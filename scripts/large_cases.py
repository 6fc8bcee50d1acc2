#!/usr/bin/env python3
"""Time the large plain-cohomology cases, one fresh process per case.

    python3 scripts/large_cases.py

The cases are H^5 of matrix_lts(2) and H^3 of matrix_lts(3), each over QQ
and over GF(10007), computed as cohomology(self_module(system), degree)
with representatives.  The package is imported from this tree's src/.
Each case runs in its own spawned process, so that no cache or allocation
of one case carries over to the next, and prints one line: the wall time
of the cohomology call, the peak resident set size of its process, and
the dimensions of the cochain space, the cocycles, the coboundaries and
the cohomology.
"""

import multiprocessing
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

CASES = [(2, 5, 0), (2, 5, 10007), (3, 3, 0), (3, 3, 10007)]


def run_case(n, degree, p):
    from ltsdeform.cohomology import cohomology
    from ltsdeform.linalg import QQ, PrimeField
    from ltsdeform.lts import matrix_lts, self_module

    field = PrimeField(p) if p else QQ
    module = self_module(matrix_lts(n, field))
    start = time.perf_counter()
    rep = cohomology(module, degree)
    seconds = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return ("matrix_lts(%d) H^%d %-10s %7.2f s  peak %6.1f MB  "
            "space %d  cocycles %d  coboundaries %d  H %d"
            % (n, degree, field, seconds, peak_mb, rep.dim_space, rep.dim_cocycles,
               rep.dim_coboundaries, rep.dim_h))


def main():
    ctx = multiprocessing.get_context("spawn")
    for case in CASES:
        with ctx.Pool(1) as pool:
            print(pool.apply(run_case, case), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
