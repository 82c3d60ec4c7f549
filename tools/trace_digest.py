"""Print a digest of the seeded benchmark solves, for comparing two checkouts.

Solves each perfbench workload at both sizes (tiny, full) with both
algorithms (p2gdr, p2gd_plain) directly on the workload's instance, and
prints one line per solve: workload, size, algorithm, iterations,
termination, the sha256 of the trace CSV, and the final report
(``final_f`` and ``final_s`` to 17 significant digits, ``final_rank``),
which the CSV does not hold. A workload that runs through ``lowrankopt
run`` (rankdrop-cli) is also solved at both sizes by its own ``solve``
and ``finish``, that is through ``cli.main`` from its config file; that
line's algorithm reads ``cli`` and its digest is of the
``trace_p2gdr.csv`` the run wrote. The same run is repeated from a copy of
that config with ``"x0": "random:7"`` (algorithm ``cli-random7``), since
every workload itself starts from zero and so never factors a nonzero
start. Two checkouts whose outputs are identical produce byte-identical
traces on all sixteen solves. A last line, ``check sha256=<digest>``,
fingerprints the table that ``lowrankopt check`` prints, since the
property suite builds every point it checks through the library's own
constructors.

    PYTHONPATH=src python3 tools/trace_digest.py [--seed 101] [--save DIR] > digest.txt

Point PYTHONPATH at another checkout's ``src`` to digest that library with
the same workloads, then ``diff`` the two outputs. ``--save DIR`` also
writes each trace CSV to ``DIR/<workload>-<size>-<algorithm>.csv``, for
``tools/trace_diff.py`` to compare two such directories by tolerance.
``perfbench/workloads.py`` is loaded read-only from this checkout. BLAS
runs on one thread, as in the benchmark, so the low bits of every product
are reproducible.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from lowrankopt import cli, solver  # noqa: E402

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SIZES = ("tiny", "full")
ALGORITHMS = ("p2gdr", "p2gd_plain")
RANDOM_START = "random:7"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while they are built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def random_start(inst):
    """The CLI instance with its config copied to start from ``RANDOM_START``."""
    config = json.loads(inst.config_path.read_text(encoding="utf-8"))
    config.update(x0=RANDOM_START, out="out-random")
    path = inst.config_path.with_name("config-random.json")
    path.write_text(json.dumps(config), encoding="utf-8")
    return dataclasses.replace(inst, config_path=path, out_dir=path.parent / "out-random")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--save", type=Path, help="directory that receives each trace CSV")
    args = parser.parse_args(argv)
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
    workloads = load_workloads()

    def report(name, size, algorithm, trace, csv):
        digest = hashlib.sha256(csv.encode("utf-8")).hexdigest()
        print(f"{name} {size} {algorithm} iters={len(trace.records)} "
              f"termination={trace.termination} sha256={digest} final_f={trace.final_f:.17g} "
              f"final_s={trace.final_s:.17g} final_rank={trace.final_rank}", flush=True)
        if args.save is not None:
            (args.save / f"{name}-{size}-{algorithm}.csv").write_text(csv, encoding="utf-8")

    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in workloads.WORKLOADS.items():
            for size in SIZES:
                inst = workload.build(args.seed, Path(tmp) / f"{name}-{size}", size)
                for algorithm in ALGORITHMS:
                    trace = getattr(solver, algorithm)(inst.problem, inst.x0, inst.params)
                    report(name, size, algorithm, trace, trace.to_csv())
                if inst.config_path is not None:
                    report(name, size, "cli", *workload.finish(inst, workload.solve(inst)))
                    random = random_start(inst)
                    report(name, size, "cli-" + RANDOM_START.replace(":", ""),
                           *workload.finish(random, workload.solve(random)))
    table = io.StringIO()
    with contextlib.redirect_stdout(table):
        cli.main(["check"])
    print(f"check sha256={hashlib.sha256(table.getvalue().encode('utf-8')).hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
