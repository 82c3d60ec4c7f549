"""Config-driven experiment runner.

Subcommands: ``run`` a solver on a problem, ``compare`` the rank-reducing
and plain variants from the same start, and ``gen-problem`` to emit a
problem-document skeleton. Exit codes: 0 the run reached stationarity, 1
configuration error, a problem too large for memory or a factorization
that did not converge, 2 iteration budget exhausted, 3 line-search
failure, 4 ``compare --assert-identical`` found differing traces, 5 a NaN
or Inf gradient or cost ended the run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .linalg import truncate_to_rank
from .problems import PROBLEM_TYPES, CostFunction, load_problem, problem_skeleton
from .serialize import json_object, load_matrix, read_json
from .solver import LineSearchParams, SolverParams, Trace, p2gd_plain, p2gdr

_TERMINATION_EXIT = {"stationary": 0, "max_iters": 2, "line_search_failure": 3, "nonfinite": 5}
# The algorithms a config may name, in the order that ``compare`` runs them.
# Each solver is looked up by its module name when called, so that a wrapper
# set on ``cli.p2gdr`` (perfbench's CLI workload sets one) sees the call.
SOLVERS = {"p2gd": lambda *args: p2gd_plain(*args), "p2gdr": lambda *args: p2gdr(*args)}


# The parameter classes' fields, bar the nested line search, and the run's own keys.
CONFIG_KEYS = frozenset(
    {f.name for cls in (LineSearchParams, SolverParams) for f in dataclasses.fields(cls)}
    - {"line_search"} | {"problem", "x0", "out", "algorithm"})


class ConfigError(ValueError):
    pass


@dataclasses.dataclass
class RunConfig:
    """A loaded run config. ``x0`` is ``"zero"``, the seed of ``"random:SEED"`` or a matrix file."""

    problem_path: Path
    x0: str | int | Path
    params: SolverParams
    out_dir: Path
    algorithm: str

    @staticmethod
    def load(path, overrides: dict | None = None) -> "RunConfig":
        """Read a run config; an ``overrides`` value that is not None replaces its key's."""
        path = Path(path)
        try:
            doc = json_object("config", read_json(path), CONFIG_KEYS, ())
            doc.update((key, value) for key, value in (overrides or {}).items()
                       if key in CONFIG_KEYS and value is not None)
            given = {key: value for key, value in doc.items() if value is not None}
            json_object("config", given, CONFIG_KEYS, ("rank_bound", "delta"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

        try:
            params = _params(SolverParams, given, line_search=_params(LineSearchParams, given))
        except ValueError as exc:
            raise ConfigError(f"invalid config field: {exc}") from exc
        algorithm = doc.get("algorithm", "p2gdr")
        if not (isinstance(algorithm, str) and algorithm in SOLVERS):
            raise ConfigError(f"'algorithm' must be 'p2gdr' or 'p2gd', got {algorithm!r:.40}")

        def resolve(key: str, value) -> Path:
            if not isinstance(value, str):
                raise ConfigError(f"{key!r} must be a path string, got {value!r}")
            return path.parent / value

        x0 = doc.get("x0", "zero")
        if isinstance(x0, str) and x0.startswith("random:"):
            seed = x0.removeprefix("random:")
            if not (seed.isascii() and seed.isdigit()):
                raise ConfigError(f"bad random seed in x0 source {x0!r}: "
                                  "expected a nonnegative integer")
            x0 = int(seed)
        elif x0 != "zero":
            x0 = resolve("x0", x0)
        return RunConfig(resolve("problem", doc.get("problem")), x0, params,
                         resolve("out", doc.get("out", ".")), algorithm)


def _params(cls, doc: dict, **nested):
    """``cls`` from the values ``doc`` gives its fields, which ``cls`` reads.
    ``doc`` is the config without its null keys: a null or absent key keeps
    the default."""
    return cls(**{f.name: doc[f.name] for f in dataclasses.fields(cls) if f.name in doc},
               **nested)


def _load(config: RunConfig) -> tuple[CostFunction, np.ndarray]:
    problem = load_problem(config.problem_path)
    if isinstance(config.x0, Path):
        return problem, load_matrix(config.x0)
    if config.x0 == "zero":
        return problem, np.zeros(problem.shape)
    x0 = np.random.default_rng(config.x0).standard_normal(problem.shape)
    return problem, truncate_to_rank(x0, config.params.rank_bound)[0]


def _write_outputs(config: RunConfig, algorithm: str, trace: Trace) -> None:
    config.out_dir.mkdir(parents=True, exist_ok=True)
    (config.out_dir / f"trace_{algorithm}.csv").write_text(trace.to_csv(), encoding="utf-8")
    (config.out_dir / f"summary_{algorithm}.json").write_text(
        json.dumps(trace.summary(), indent=2) + "\n", encoding="utf-8"
    )


def cmd_run(args) -> int:
    config = RunConfig.load(args.config, vars(args))
    problem, x0 = _load(config)
    trace = SOLVERS[config.algorithm](problem, x0, config.params)
    _write_outputs(config, config.algorithm, trace)
    return _TERMINATION_EXIT[trace.termination]


def cmd_compare(args) -> int:
    config = RunConfig.load(args.config, vars(args))
    problem, x0 = _load(config)
    traces, verdict = {}, {}
    for algorithm, solve in SOLVERS.items():
        traces[algorithm] = trace = solve(problem, x0, config.params)
        _write_outputs(config, algorithm, trace)
        summary = trace.summary()
        verdict[algorithm] = {key: summary[key] for key in ("final_s", "final_f", "final_rank")}
        if trace.termination != "stationary":
            print(f"{algorithm}: terminated with {trace.termination}", file=sys.stderr)

    stop_tol = traces["p2gdr"].stop_tol
    verdict["apocalypse_flag"] = bool(
        traces["p2gd"].final_s > 10.0 * stop_tol and traces["p2gdr"].final_s <= stop_tol
    )
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
    return max(_TERMINATION_EXIT[trace.termination] for trace in traces.values())


def cmd_gen_problem(args) -> int:
    doc = problem_skeleton(args.kind)
    text = json.dumps(doc, indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


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

    p_gen = sub.add_parser("gen-problem", help="emit a problem JSON skeleton")
    p_gen.add_argument("kind", choices=list(PROBLEM_TYPES))
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
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
