"""Config-driven experiment runner.

Subcommands: ``run`` a solver on a problem, ``compare`` the rank-reducing
and plain variants from the same start, ``check`` the property suite, and
``gen-problem`` to emit a problem-document skeleton. Exit codes: 0 the run
reached stationarity, 1 configuration error, 2 iteration budget exhausted,
3 line-search failure, 4 a property check or trace-equality assertion
failed, 5 a NaN or Inf gradient or cost ended the run.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checks import run_all_checks
from .linalg import truncate_to_rank
from .problems import CostFunction, load_problem, problem_skeleton
from .serialize import load_matrix
from .solver import LineSearchParams, SolverParams, Trace, p2gd_plain, p2gdr

_TERMINATION_EXIT = {"stationary": 0, "max_iters": 2, "line_search_failure": 3, "nonfinite": 5}
_CONFIG_KEYS = {
    "problem", "x0", "rank_bound", "delta", "alpha_lo", "alpha_hi", "beta", "c",
    "max_backtracks", "stop_tol", "max_iters", "out", "algorithm",
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    base_dir: Path
    problem_path: Path
    x0_source: str
    params: SolverParams
    out_dir: Path
    algorithm: str

    @staticmethod
    def load(path, overrides: dict | None = None) -> "RunConfig":
        path = Path(path)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config {path} must be a JSON object")
        unknown = sorted(set(doc) - _CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        if overrides:
            doc.update({k: v for k, v in overrides.items() if v is not None})

        try:
            ls = LineSearchParams(
                alpha_lo=float(doc.get("alpha_lo", 1e-8)),
                alpha_hi=float(doc.get("alpha_hi", 1.0)),
                beta=float(doc.get("beta", 0.5)),
                c=float(doc.get("c", 1e-4)),
                max_backtracks=int(doc.get("max_backtracks", 60)),
            )
            params = SolverParams(
                rank_bound=int(doc["rank_bound"]),
                delta=float(doc["delta"]),
                line_search=ls,
                stop_tol=None if doc.get("stop_tol") is None else float(doc["stop_tol"]),
                max_iters=int(doc.get("max_iters", 1000)),
            )
            algorithm = doc.get("algorithm", "p2gdr")
            x0_source = str(doc.get("x0", "zero"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config field: {exc}") from exc
        if algorithm not in ("p2gdr", "p2gd"):
            raise ConfigError(f"unknown algorithm {algorithm!r}")

        base = path.parent
        if "problem" not in doc:
            raise ConfigError("config is missing the 'problem' field")
        if not isinstance(doc["problem"], str):
            raise ConfigError(f"'problem' must be a path string, got {doc['problem']!r}")
        problem_path = Path(doc["problem"])
        if not problem_path.is_absolute():
            problem_path = base / problem_path
        if not problem_path.exists():
            raise ConfigError(f"problem file not found: {problem_path}")
        out_dir = Path(doc.get("out", "."))
        if not out_dir.is_absolute():
            out_dir = base / out_dir
        return RunConfig(base, problem_path, x0_source, params, out_dir, algorithm)


def _build_x0(config: RunConfig, shape: tuple[int, int]) -> np.ndarray:
    m, n = shape
    src = config.x0_source
    if src == "zero":
        return np.zeros((m, n))
    if src.startswith("random:"):
        try:
            seed = int(src.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad random seed in x0 source {src!r}") from exc
        rng = np.random.default_rng(seed)
        x, _ = truncate_to_rank(rng.standard_normal((m, n)), config.params.rank_bound)
        return x
    x0_path = Path(src)
    if not x0_path.is_absolute():
        x0_path = config.base_dir / x0_path
    if not x0_path.exists():
        raise ConfigError(f"x0 file not found: {x0_path}")
    return load_matrix(x0_path)


def _load(config: RunConfig) -> tuple[CostFunction, np.ndarray]:
    problem = load_problem(config.problem_path)
    m, n = problem.shape
    rank_bound = config.params.rank_bound
    if not rank_bound < min(m, n):
        raise ConfigError(f"rank_bound {rank_bound} must be below min{m, n}")
    return problem, _build_x0(config, problem.shape)


def _solve(problem, x0, params: SolverParams, algorithm: str) -> Trace:
    solve = p2gdr if algorithm == "p2gdr" else p2gd_plain
    return solve(problem, x0, params)


def _write_outputs(config: RunConfig, algorithm: str, trace: Trace) -> None:
    config.out_dir.mkdir(parents=True, exist_ok=True)
    (config.out_dir / f"trace_{algorithm}.csv").write_text(trace.to_csv(), encoding="utf-8")
    (config.out_dir / f"summary_{algorithm}.json").write_text(
        json.dumps(trace.summary(), indent=2) + "\n", encoding="utf-8"
    )


def cmd_run(args) -> int:
    config = RunConfig.load(args.config, _overrides(args))
    problem, x0 = _load(config)
    trace = _solve(problem, x0, config.params, config.algorithm)
    _write_outputs(config, config.algorithm, trace)
    return _TERMINATION_EXIT[trace.termination]


def cmd_compare(args) -> int:
    config = RunConfig.load(args.config, _overrides(args))
    problem, x0 = _load(config)
    codes = {}
    traces = {}
    for algorithm in ("p2gd", "p2gdr"):
        trace = _solve(problem, x0, config.params, algorithm)
        _write_outputs(config, algorithm, trace)
        traces[algorithm] = trace
        codes[algorithm] = _TERMINATION_EXIT[trace.termination]
        if trace.termination != "stationary":
            print(f"{algorithm}: terminated with {trace.termination}", file=sys.stderr)

    stop_tol = traces["p2gdr"].stop_tol
    verdict = {
        "p2gd": _verdict_entry(traces["p2gd"]),
        "p2gdr": _verdict_entry(traces["p2gdr"]),
        "apocalypse_flag": bool(
            traces["p2gd"].final_s > 10.0 * stop_tol and traces["p2gdr"].final_s <= stop_tol
        ),
    }
    (config.out_dir / "verdict.json").write_text(
        json.dumps(verdict, indent=2) + "\n", encoding="utf-8"
    )

    if getattr(args, "assert_identical", False):
        csv_a = traces["p2gd"].to_csv().splitlines()
        csv_b = traces["p2gdr"].to_csv().splitlines()
        if csv_a != csv_b:
            row = next(
                (i for i, (a, b) in enumerate(zip(csv_a, csv_b)) if a != b),
                min(len(csv_a), len(csv_b)),
            )
            print(f"traces differ at row {row}", file=sys.stderr)
            return 4
    return max(codes.values())


def _verdict_entry(trace: Trace) -> dict:
    summary = trace.summary()
    return {key: summary[key] for key in ("final_s", "final_f", "final_rank")}


def cmd_check(_args) -> int:
    results = run_all_checks()
    width = max(len(name) for name, _, _ in results)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  {status}  {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 4


def cmd_gen_problem(args) -> int:
    doc = problem_skeleton(args.kind)
    text = json.dumps(doc, indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


def _overrides(args) -> dict:
    return {
        "max_iters": getattr(args, "max_iters", None),
        "delta": getattr(args, "delta", None),
        "stop_tol": getattr(args, "stop_tol", None),
        "out": getattr(args, "out", None),
    }


def _add_run_options(parser) -> None:
    parser.add_argument("config", help="path to a run-config JSON document")
    parser.add_argument("--max-iters", dest="max_iters", type=int)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--stop-tol", dest="stop_tol", type=float)
    parser.add_argument("--out", help="output directory override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowrankopt",
        description="Bounded-rank first-order optimization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one problem and write trace files")
    _add_run_options(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run both algorithms from the same start")
    _add_run_options(p_cmp)
    p_cmp.add_argument(
        "--assert-identical",
        dest="assert_identical",
        action="store_true",
        help="fail unless the two traces agree row by row",
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_chk = sub.add_parser("check", help="run the invariant and property suite")
    p_chk.set_defaults(func=cmd_check)

    p_gen = sub.add_parser("gen-problem", help="emit a problem JSON skeleton")
    p_gen.add_argument("kind", choices=["lowrank_approx", "completion", "polynomial"])
    p_gen.add_argument("-o", "--output")
    p_gen.set_defaults(func=cmd_gen_problem)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
