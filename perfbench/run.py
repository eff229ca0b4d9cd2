#!/usr/bin/env python3
"""gazefield benchmark: four fixed workloads through ``gazefield.cli.main``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload two-blob-64 --seed 0 --seconds 20 --trace 0

One invocation generates the workload's inputs from --seed (set-up,
repeated and timed) and writes them to files once; then one client runs the
workload back to back in this process for --seconds, checking every run's
outputs.  With --trace 0 the
runs are untraced and the end-to-end metrics are printed, after one
tracemalloc run made apart from the timed ones for peak_alloc_mb.  With
--trace 1 traced and untraced runs alternate and the per-layer metrics are
printed.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 means the benchmark
ran; an unusable checkout (no gazefield sources) exits 2 and prints no
result.
"""

import argparse
import os
import shutil
import sys
from pathlib import Path

# one process, one BLAS/OpenMP thread: set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "gazefield" / "__init__.py").is_file():
        print(f"error: no gazefield sources under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        result = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace),
                               work, spans_csv=WORK / f"spans-{args.workload}.csv"
                               if args.trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(result.lines))
    print(result.json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
