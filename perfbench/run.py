"""Benchmark of the rolekit CLI; run from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --grid      # per-layer table over the size grid
    python3 perfbench/run.py --record    # rewrite perfbench/reference.json
    python3 perfbench/selftest.py        # self-tests of the oracles and the tracer

The last line of standard output of a workload run is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it name every metric with its unit and record the environment.
The program under test is the checkout's own ``src/rolekit``; without it
the benchmark exits with code 2 and prints no result.

``reference.json`` holds what the CLI printed for every pool input when it
was recorded; rewrite it only with a change that alters the CLI output on
purpose, since the spectrum oracle and the stdout digest count compare
against it.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare():
    """Cap BLAS threads at nproc, then put the checkout's ``src`` first on
    the import path.  Returns that directory, or None if rolekit is absent.

    Must run before numpy is imported: BLAS reads its thread count once.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 0 < int(value) <= nproc:
            os.environ[var] = str(nproc)
    src = ROOT / "src"
    if not (src / "rolekit" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    return src


if __name__ == "__main__":
    if prepare() is None:
        print(f"perfbench: no rolekit package under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    import bench
    sys.exit(bench.main(sys.argv[1:]))
