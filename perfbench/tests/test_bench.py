"""Tests of the benchmark itself, on the tiny size of each workload.

    python3 -m pytest perfbench/tests
"""

import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402  (puts this checkout's src/ on the path first)
import tracing  # noqa: E402
import workloads  # noqa: E402
from lowrankopt import cli, solver, variety  # noqa: E402
from lowrankopt.variety import VarietyPoint  # noqa: E402

NAMES = list(workloads.WORKLOADS)


def tiny(name, tmp_path, seed=7):
    workload = workloads.WORKLOADS[name]
    return workload, workload.build(seed, tmp_path / "work", "tiny")


def solve(workload, inst):
    return workload.finish(inst, workload.solve(inst))


@pytest.mark.parametrize("name", NAMES)
def test_tiny_workload_passes_gate_and_repeats(name, tmp_path):
    workload, inst = tiny(name, tmp_path)
    trace, csv = solve(workload, inst)
    assert workloads.check(inst, trace) == []
    assert solve(workload, inst)[1] == csv


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs(name, tmp_path):
    _, a = tiny(name, tmp_path / "a")
    _, b = tiny(name, tmp_path / "b")
    assert a.params == b.params
    assert np.array_equal(a.problem.gradient(a.x0 + 1.0), b.problem.gradient(b.x0 + 1.0))


@pytest.mark.parametrize("name", NAMES)
def test_seeds_permute_one_design(name, tmp_path):
    workload, a = tiny(name, tmp_path / "a", seed=7)
    _, b = tiny(name, tmp_path / "b", seed=8)
    x = np.arange(a.x0.size, dtype=np.float64).reshape(a.x0.shape) / a.x0.size
    assert a.problem.eval(x) != b.problem.eval(x)
    trace_a, trace_b = solve(workload, a)[0], solve(workload, b)[0]
    assert len(trace_a.records) == len(trace_b.records)
    assert trace_a.final_f == pytest.approx(trace_b.final_f, rel=1e-9, abs=1e-12)


class FixedProbe:
    """A host that always runs at half its usual speed."""

    def __init__(self, probe):
        self.seconds = []

    def __call__(self):
        self.seconds.append(0.0)
        return 2.0


def test_untraced_run_scales_times_by_probe(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "HostProbe", FixedProbe)
    workload = workloads.WORKLOADS["poly-desk"]
    bench = dataclasses.replace(workload, build=lambda seed, workdir: workload.build(seed, workdir, "tiny"))
    gate, metrics, info = run.run_untraced(bench, 7, 0.0, tmp_path / "work")
    assert gate.failed == 0 and set(metrics) == set(run.END_TO_END)
    assert info["iterations"] >= run.MIN_ITERATIONS
    assert metrics["solve_s"][0] == pytest.approx(np.median(info["raw_solve_s"]) / 2)
    assert metrics["setup_s"][0] == pytest.approx(np.median(info["raw_build_s"]) / 2)
    assert metrics["iter_ms_p50"][0] <= metrics["iter_ms_p90"][0]


def test_every_probe_runs():
    for workload in workloads.WORKLOADS.values():
        probe = run.HostProbe(workload.probe)
        assert probe() > 0 and len(probe.seconds) == 1


def perturbed(point: VarietyPoint) -> VarietyPoint:
    return VarietyPoint(point.u, point.sigma * 1.01, point.v, point.rank_bound)


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_final_point_is_reported_failed(name, tmp_path):
    workload, inst = tiny(name, tmp_path)

    def corrupt(inst, raw):
        trace, csv = workload.finish(inst, raw)
        return dataclasses.replace(trace, final_point=perturbed(trace.final_point)), csv

    gate = run.Gate(dataclasses.replace(workload, finish=corrupt), inst)
    assert gate.solve(run.Stopwatch()) is None
    assert (gate.attempted, gate.failed) == (1, 1)
    assert "final point scores" in gate.notes[0]


def test_changed_trace_is_reported_failed(tmp_path):
    workload, inst = tiny("poly-desk", tmp_path)
    gate = run.Gate(workload, inst)
    assert gate.solve(run.Stopwatch()) is not None
    gate.csv = gate.csv.replace("\n1,", "\n1,9", 1)
    assert gate.solve(run.Stopwatch()) is None
    assert gate.failed == 1 and "differs" in gate.notes[0]


def test_wrong_optimum_and_missing_recovery_fail(tmp_path):
    workload, inst = tiny("poly-desk", tmp_path)
    trace, _ = solve(workload, inst)
    inst.reference_f = trace.final_f * (1 + 1e-3)
    assert any("reference" in p for p in workloads.check(inst, trace))

    workload, inst = tiny("rankdrop-cli", tmp_path)
    trace, _ = solve(workload, inst)
    inst.target = inst.target + 0.01 * np.linalg.norm(inst.target) / np.sqrt(inst.target.size)
    assert any("recovery error" in p for p in workloads.check(inst, trace))


@pytest.mark.parametrize("name", NAMES)
def test_traced_solve_matches_untraced_and_restores(name, tmp_path):
    workload, inst = tiny(name, tmp_path)
    originals = (solver.p2gdr, cli.p2gdr, solver.p2gd_step, np.linalg.svd, variety.compute_svd,
                 vars(cli.RunConfig)["load"], solver.Trace.to_csv, type(inst.problem).eval)
    _, plain_csv = solve(workload, inst)
    tracer = tracing.Tracer()
    with tracer:
        with tracer.solve(0):
            raw = workload.solve(inst)
        trace, csv = workload.finish(inst, raw)
    assert csv == plain_csv
    assert originals == (solver.p2gdr, cli.p2gdr, solver.p2gd_step, np.linalg.svd,
                         variety.compute_svd, vars(cli.RunConfig)["load"], solver.Trace.to_csv,
                         type(inst.problem).eval)

    spans = tracer.spans
    assert spans[0][0] == tracing.ROOT and all(s[4] == 0 for s in spans)
    root = spans[0][2] - spans[0][1]
    assert sum(tracing.self_times(spans)) == pytest.approx(root, rel=1e-9)
    metrics = tracing.layer_metrics(spans, [trace])
    assert metrics["solver.p2gdr_search.calls"][0] == len(trace.records)
    assert metrics["solver.candidates"][0] == sum(r.candidates_evaluated for r in trace.records)
    assert metrics["problems.gradient.calls"][0] > 0
    assert metrics["linalg.np_svd.calls"][0] > 0


def test_failed_traced_solve_leaves_later_spans_intact(tmp_path):
    workload = workloads.WORKLOADS["poly-desk"]
    finished = []

    def corrupt_first_traced(inst, raw):
        trace, text = workload.finish(inst, raw)
        finished.append(trace)
        if len(finished) == 3:  # the warm-up, one untraced solve, then the first traced one
            trace = dataclasses.replace(trace, final_point=perturbed(trace.final_point))
        return trace, text

    bench = dataclasses.replace(
        workload, build=lambda seed, workdir: workload.build(seed, workdir, "tiny"),
        finish=corrupt_first_traced,
    )
    spans_path = tmp_path / "spans.csv"
    gate, metrics, info = run.run_traced(bench, 7, 0.0, tmp_path / "work", spans_path)
    assert gate.failed == 1 and "final point scores" in gate.notes[0]
    assert info["traced_solves"] == info["overhead_pairs"] == run.MIN_OVERHEAD_PAIRS
    assert metrics["solver.p2gdr.calls"][0] == 1.0
    assert metrics["solver.p2gdr_search.calls"][0] == len(finished[-1].records)

    with open(spans_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["kept"] for r in rows if r["solve"] == "0"} == {"0"}
    assert {r["kept"] for r in rows if r["solve"] != "0"} == {"1"}
    spans = [
        [r["name"], float(r["start_s"]), float(r["end_s"]),
         int(r["parent"]) if r["parent"] else None, int(r["solve"]), None]
        for r in rows
    ]
    own = tracing.self_times(spans)
    for solve_id in range(run.MIN_OVERHEAD_PAIRS + 1):
        root = next(s for s in spans if s[4] == solve_id and s[3] is None)
        assert root[0] == tracing.ROOT
        in_solve = sum(t for s, t in zip(spans, own) if s[4] == solve_id)
        assert in_solve == pytest.approx(root[2] - root[1], abs=1e-6)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0.0, 10.0, None, 0, None],
        ["b", 1.0, 5.0, 0, 0, None],
        ["c", 2.0, 3.0, 1, 0, None],
        ["d", 6.0, 7.0, 0, 0, None],
    ]
    assert tracing.self_times(spans) == [5.0, 3.0, 1.0, 1.0]


def test_benchmark_json_names_every_reported_metric():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == NAMES
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in doc["per_layer"]] == run.per_layer_names()
