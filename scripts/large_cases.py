#!/usr/bin/env python3
"""Time the large cohomology cases and two long deformation commands, one
fresh process per case.

    python3 scripts/large_cases.py

The cohomology cases are H^5 of matrix_lts(2) and H^3 of matrix_lts(3),
each over QQ and over GF(10007), plain and invariant under transposition
(a group of order 2), and H^3 of matrix_lts(3) in the basis of the
benchmark's seeded unimodular change (perfbench/gen.py, seed 1), the
change that the scan-plain workload applies to its systems.  Each is
computed as cohomology(self_module(system), degree, action) with
representatives; the system and the action are built before the clock
starts.  The deformation commands run through cli.main on the bundled
documents: deform-check of meson2_swap_t2.json padded to order 100000,
and deform-equiv of meson2_swap_t2.json against meson2_swap_trivial.json
through order 100; their output is discarded.  The package is imported
from this tree's src/, and perfbench from this tree.
Each case runs in its own spawned process, so that no cache or allocation
of one case carries over to the next, and prints one line: the wall time
of the call and the peak resident set size of its process, then the
dimensions of the cochain space, the cocycles, the coboundaries and the
cohomology, or the command's exit code.
"""

import contextlib
import io
import multiprocessing
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

CASES = [(n, degree, p, variant) for variant in ("plain", "transpose")
         for n, degree in ((2, 5), (3, 3)) for p in (0, 10007)]
CASES += [(3, 3, p, "unimodular") for p in (0, 10007)]
UNIMODULAR_SEED = 1
COMMANDS = [["deform-check", "meson2_swap_t2.json", "--order", "100000", "--json"],
            ["deform-equiv", "meson2_swap_t2.json", "meson2_swap_trivial.json",
             "--cap", "100"]]


def run_case(n, degree, p, variant):
    from ltsdeform.cohomology import cohomology
    from ltsdeform.groups import make_group_action
    from ltsdeform.linalg import QQ, Matrix, PrimeField
    from ltsdeform.lts import StructureTensor, make_system, matrix_lts, self_module
    from perfbench import gen

    field = PrimeField(p) if p else QQ
    system = matrix_lts(n, field)
    d = n * n
    if variant == "unimodular":
        # gen.matrix_tensor(n) holds the structure constants of matrix_lts(n)
        u, uinv = gen.unimodular(d, random.Random(UNIMODULAR_SEED))
        tensor = gen.change_basis(gen.matrix_tensor(n), u, uinv)
        system = make_system(system.basis_names,
                             StructureTensor.build(tensor, (d, d, d), d, field), field)
    action = None
    if variant == "transpose":
        # E_ij -> E_ji, an automorphism of [[A, B], C]
        swap = Matrix([[int(r == c % n * n + c // n) for c in range(d)] for r in range(d)],
                      field)
        action = make_group_action(system, [("e", Matrix.identity(d, field)), ("t", swap)])
    start = time.perf_counter()
    rep = cohomology(self_module(system), degree, action)
    seconds = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return ("matrix_lts(%d) H^%d %-10s %-10s %7.2f s  peak %6.1f MB  "
            "space %d  cocycles %d  coboundaries %d  H %d"
            % (n, degree, field, variant, seconds, peak_mb,
               rep.dim_space, rep.dim_cocycles, rep.dim_coboundaries, rep.dim_h))


def run_command(argv):
    from ltsdeform import bundled_path
    from ltsdeform.cli import main

    args = [str(bundled_path(a)) if a.endswith(".json") else a for a in argv]
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    seconds = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return "%-75s %7.2f s  peak %6.1f MB  exit %d" % (" ".join(argv), seconds, peak_mb, code)


def main():
    ctx = multiprocessing.get_context("spawn")
    jobs = [(run_case, case) for case in CASES] + [(run_command, (argv,)) for argv in COMMANDS]
    for fn, args in jobs:
        with ctx.Pool(1) as pool:
            print(pool.apply(fn, args), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
