"""eigenknot benchmark: time to a certified result, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The metric names and units are read
from BENCHMARK.json; see bench/README.md for the workloads and what each
metric should move.  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _pin_blas() -> tuple[int, int]:
    """Pin BLAS and OpenMP pools to one thread; must run before numpy loads.

    On a 2-core VM a second OpenBLAS thread cost circle_design 35 % more CPU
    time for the same wall time, and it left no core for the rest of the host.
    """
    nproc = len(os.sched_getaffinity(0))
    threads = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return nproc, threads


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "eigenknot" / "__init__.py").is_file():
        print(f"no eigenknot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc, threads = _pin_blas()
    sys.path.insert(0, str(ROOT / "src"))
    import eigenknot

    if Path(eigenknot.__file__).resolve().parent != ROOT / "src" / "eigenknot":
        print(f"imported eigenknot from {eigenknot.__file__}, not this checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    make_inputs = WORKLOADS[args.workload][0]
    if args.setup_probe:
        # what every fresh process pays before its pipeline: import plus inputs
        make_inputs(args.seed, 0)
        return 0
    from harness import run_benchmark

    return run_benchmark(args, ROOT, nproc, threads)


if __name__ == "__main__":
    sys.exit(main())
