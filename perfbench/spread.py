"""Run one workload once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload poly-desk --seeds 1-10 [--trace 0] [--out FILE]

Each run is a separate ``run.py`` process, one after another. The spread
of a metric is the distance between the first and third quartile of its
per-run values (``statistics.quantiles(values, n=4)``) as a share of their
median: the figure a bound in BENCHMARK.json has to cover. With ``--out``
the per-run values, the summary and the machine (nproc, BLAS threads,
numpy version) are also written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - start
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "wall_s": wall, "exit": done.returncode, **result})
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} wall={wall:.1f}s {values}", flush=True)

    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        median = statistics.median(values)
        summary[name] = {"unit": first["unit"], "median": median, "runs": len(values)}
        if len(values) > 1:  # a spread needs at least two runs
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary[name].update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
        spread = summary[name].get("spread")
        print(f"{name:<40} median {median:.6g} {first['unit']}  "
              + (f"spread {spread:.4f}" if spread is not None else "(one run, no spread)"))
    failed = [r["seed"] for r in runs if not r["correct"]]
    print(f"runs {len(runs)}, incorrect {failed or 'none'}, "
          f"wall median {statistics.median(r['wall_s'] for r in runs):.1f}s max {max(r['wall_s'] for r in runs):.1f}s")
    if args.out:
        record = HERE / "out" / f"result-{args.workload}-seed{args.seeds[0]}-trace{args.trace}.json"
        args.out.write_text(json.dumps({
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "environment": json.loads(record.read_text(encoding="utf-8"))["environment"],
            "summary": summary, "runs": runs,
        }, indent=1) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
