"""One case per property of the paper that the library once re-checked at run time.

Each case runs the tier-1 tests that assert that property, at the same or a
tighter tolerance, so the assertion itself lives in one place and the case
name says which guarantee a failure breaks. CHANGES.md tabulates the
tolerances and instance counts.
"""

import pytest

import test_acceptance as acceptance
import test_linalg
import test_problems
import test_solver
import test_variety

PROPERTIES = {
    "singular_value_lipschitz": [test_linalg.test_singular_values_lipschitz],
    "truncation_norm_identity": [test_linalg.TestTruncation().test_norm_identity],
    "delta_rank_monotonic": [test_linalg.TestDeltaRank().test_monotone_in_threshold],
    "local_delta_rank": [test_linalg.test_local_delta_rank],
    "stationarity_sandwich": [acceptance.test_criterion_03_sandwich],
    "projection_optimality": [test_variety.TestTangentProjection().test_projection_optimality],
    "frame_invariance": [test_variety.TestStationarity().test_frame_invariance],
    "continuity_sample": [test_variety.test_continuity_of_measure_on_fixed_rank],
    "curve_identity": [
        acceptance.test_criterion_04_tangent_line_bound_and_curve,
        test_variety.TestTangentCurve().test_stays_feasible,
    ],
    "tangent_line_bound": [acceptance.test_criterion_04_tangent_line_bound_and_curve],
    "tightness_fixture": [acceptance.test_criterion_01_tightness_fixture],
    "step_size_floor": [acceptance.test_criterion_07_step_size_floor],
    "gradient_checks": [acceptance.test_criterion_10_gradient_checks],
    "candidate_dominance": [test_solver.TestSearch().test_candidate_dominance],
    "determinism": [test_solver.TestOuterLoop().test_deterministic_traces],
    "truncated_target_stationary": [
        test_problems.TestLowRankApprox().test_truncated_target_is_stationary
    ],
    "completion_full_mask": [
        test_problems.TestMatrixCompletion().test_full_mask_matches_lowrank_bitwise
    ],
    "armijo_and_descent": [
        acceptance.test_criterion_05_low_rank_approximation_solve,
        test_solver.TestOuterLoop().test_low_rank_approx_reaches_oracle,
    ],
}


@pytest.mark.parametrize("name", sorted(PROPERTIES))
def test_check_passes(name):
    for test in PROPERTIES[name]:
        test()
