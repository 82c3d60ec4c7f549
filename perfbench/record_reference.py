"""Record the poly-desk reference optima into reference.json.

    python3 perfbench/record_reference.py

Solves the poly-desk design once at each size with the current library and
stores the final cost. The gate then holds later code to these values, so
run this only when the benchmark itself changes, never to make a failing
solve pass. Each solve must pass the rest of the gate first.
"""

import json
import sys

import run  # noqa: F401  (pins BLAS threads and puts this checkout's src/ on the path)
import workloads


def main() -> int:
    table = {}
    for size in ("full", "tiny"):
        inst = workloads.build_poly_desk(0, run.OUT, size)
        inst.reference_f = None
        trace = workloads.solve_direct(inst)
        problems = [p for p in workloads.check(inst, trace) if p != workloads.NO_REFERENCE]
        if problems:
            print(f"{size}: {'; '.join(problems)}", file=sys.stderr)
            return 1
        table[size] = trace.final_f
        print(f"{size}: final_f {trace.final_f!r} after {len(trace.records)} iterations")
    workloads.REFERENCE_PATH.write_text(
        json.dumps({"poly-desk": table}, indent=1) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
