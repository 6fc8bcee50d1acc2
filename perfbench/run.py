#!/usr/bin/env python3
"""Benchmark of the ltsdeform library and command line.

    python3 perfbench/run.py --workload scan-plain --seed 1 --seconds 30 --trace 0

Workloads: scan-plain, scan-equivariant, deform-cli (see perfbench/README.md).
Each is a closed loop in one process and one thread: the seeded job list
runs back to back, each job starting when the previous one finishes, in
whole rounds until --seconds have passed.  Every answer is checked.

--trace 0 prints the end-to-end metrics; --trace 1 runs the round list
once untraced and once traced, and prints the per-layer metrics.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  --smoke runs one small round instead, for the benchmark's tests.
setup_s is the median of several set-ups, each in a fresh process of its
own, so that the caches they fill start cold.
End-to-end times are scaled to a reference host speed (see SpeedProbe);
the unscaled figures go to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5

# per-layer metrics: (name, unit); times are self times
LAYER_TIMES = [
    "cohomology.apply", "cohomology.express", "cohomology.matrix",
    "cohomology.basis", "cohomology.cohomology",
    "groups.transform", "groups.validate",
    "linalg.rref", "linalg.solve",
    "deformation.order_eqs", "deformation.gauge", "deformation.equiv",
    "deformation.trivialize", "deformation.obstruction", "deformation.validate",
    "documents.parse", "documents.dump", "lts.verify", "cli.self",
]
SPLIT_BY_FIELD = LAYER_TIMES[:9]   # the scan layers, also reported per field
LAYER_CALLS = ["cohomology.apply", "cohomology.matrix", "cohomology.basis",
               "groups.transform", "linalg.solve", "deformation.gauge", "lts.verify"]
LAYER_COUNTS = [("cohomology.matrix_nnz", "count"), ("cohomology.matrix_cells", "count"),
                ("cohomology.basis_cols", "count"), ("linalg.rref_rows", "count"),
                ("linalg.rank_sum", "count"), ("documents.bytes_in", "bytes")]


def per_layer_names():
    names = [(layer + "_s", "s") for layer in LAYER_TIMES]
    names += [("%s_s.%s" % (layer, tag), "s") for layer in SPLIT_BY_FIELD
              for tag in ("qq", "gf")]
    names += [(layer + "_calls", "count") for layer in LAYER_CALLS]
    names += LAYER_COUNTS
    names += [("trace.overhead_frac", "ratio"), ("trace.wall_s", "s"),
              ("trace.spans", "count"), ("machine.probe_s", "s")]
    return names


END_TO_END = [("jobs_per_s", "1/s"), ("verdict_s.p50", "s"), ("verdict_s.p90", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "ratio")]


class SpeedProbe:
    """Host-speed probe: a fixed computation in the benchmark's own code.

    On a shared host the same code runs up to twice as slow at times, for
    moments or for minutes, and the probe slows with it: over 10-second
    windows a job and the probe each varied by about 20% while their ratio
    varied by 4%.  So every timed span is scaled by REF_S over the mean of
    the probe runs just before and just after it; reported times are
    seconds on a host where the probe takes REF_S.  The probe runs outside
    every timed span and the program cannot change it, so the scaling
    cancels host speed and leaves program changes in place.
    """

    REF_S = 0.0033      # the probe on a quiet host: 2 vCPU, Python 3.11.7

    def __init__(self):
        from perfbench import gen

        mu = gen.meson_tensor(3)
        psi = [[1, 0, 0], [0, -1, 0], [0, 0, 1]]
        self._terms = [mu] + gen.gauge_trivial_terms(mu, psi, 3)
        self._check = gen.order_equation_holds
        self.samples = []

    def measure(self):
        t = time.perf_counter()
        self._check(self._terms, 3)
        self.samples.append(time.perf_counter() - t)
        return self.samples[-1]

    def scale(self, before, after):
        return self.REF_S / ((before + after) / 2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["scan-plain", "scan-equivariant", "deform-cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one small round, for the benchmark's own tests")
    p.add_argument("--setup-once", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Outcome:
    """Answers, job times and failures of the jobs run so far."""

    def __init__(self, probe):
        self.probe = probe
        self.ref = probe.measure()
        self.latencies = []     # wall seconds
        self.scaled = []        # seconds at the probe's reference speed
        self.attempted = 0
        self.failed = 0
        self.answers = {}
        self.by_key = {}        # scaled times per job of the round list

    def run(self, job, key, runner=None):
        self.attempted += 1
        start = time.perf_counter()
        try:
            answer = runner(job.run, job.field) if runner else job.run()
        except Exception:
            answer = None
            print("job %s raised:\n%s" % (job.name, traceback.format_exc()), file=sys.stderr)
        wall = time.perf_counter() - start
        before, self.ref = self.ref, self.probe.measure()
        self.latencies.append(wall)
        self.scaled.append(wall * self.probe.scale(before, self.ref))
        self.by_key.setdefault(key, []).append(self.scaled[-1])
        ok = answer is not None and job.check(answer)
        previous = self.answers.setdefault(key, answer)
        if previous != answer:       # traced and untraced answers must agree
            ok = False
        if not ok:
            self.failed += 1
            print("job %s: wrong answer %r" % (job.name, answer), file=sys.stderr)


def setup(name, seed, workdir, smoke):
    """Generate inputs, write documents and warm the caches; timed."""
    from perfbench import workloads

    lib = workloads.Library()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    rounds = workloads.build(name, lib, seed, workdir, smoke)
    fields = {job.field for r in rounds for job in r}
    for d in (2, 3, 4):
        for f in sorted(fields):
            fld = lib.fields[f]
            system = lib.system([[[[0] * d] * d] * d] * d, fld)
            lib.cohomology.cochain_space_basis(lib.lts.self_module(system), 3)
    return rounds


def cold_setup(args):
    """Import and set up once in this fresh process; prints the scaled time.

    Each set-up repetition runs in a process of its own, so the caches the
    warm-up fills are cold every time and their cost counts in setup_s.
    """
    probe = SpeedProbe()
    probe.measure()                  # the probe's own first-call cost
    before = probe.measure()
    t = time.perf_counter()
    import ltsdeform  # noqa: F401  (import time is part of set-up)
    import_s = time.perf_counter() - t
    ref = probe.measure()
    elapsed = import_s * probe.scale(before, ref)
    workdir = os.path.join(WORK, "setup-%d" % os.getpid())
    try:
        t = time.perf_counter()
        setup(args.workload, args.seed, workdir, args.smoke)
        setup_s = time.perf_counter() - t
        elapsed += setup_s * probe.scale(ref, probe.measure())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    print(json.dumps({"setup_s": elapsed}))


def timed_setups(args):
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-once"]
    if args.smoke:
        argv.append("--smoke")
    times = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              timeout=120, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def measure(args):
    setup_s = None if args.trace else statistics.median(timed_setups(args))
    probe = SpeedProbe()
    workdir = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        rounds = setup(args.workload, args.seed, workdir, args.smoke)
        if args.trace:
            return traced(args, rounds, probe)
        return untraced(args, rounds, setup_s, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)           # left in place while other runs use it


def untraced(args, rounds, setup_s, probe):
    out = Outcome(probe)
    start = time.perf_counter()
    n = 0
    while True:
        for i, job in enumerate(rounds[n % len(rounds)]):
            out.run(job, (n % len(rounds), i))
        n += 1
        if args.smoke or time.perf_counter() - start >= args.seconds:
            break
    lat = out.scaled
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 2 else lat[0]
    correct = out.attempted - out.failed
    # one pass of the round list, each job at its mean time: rounds differ
    # in cost, so a run that stops inside a pass must not shift the mix
    pass_s = sum(statistics.fmean(v) for v in out.by_key.values())
    metrics = {
        "jobs_per_s": correct / out.attempted * len(out.by_key) / pass_s,
        "verdict_s.p50": statistics.median(lat),
        "verdict_s.p90": p90,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": correct / out.attempted,
    }
    print("%s seed %d: %d jobs in %d rounds, %.1f s of jobs (%.2f jobs/s unscaled), "
          "probe mean %.2f ms"
          % (args.workload, args.seed, out.attempted, n, sum(out.latencies),
             correct / sum(out.latencies), 1000 * statistics.fmean(probe.samples)),
          file=sys.stderr)
    return out, [(k, u, metrics[k]) for k, u in END_TO_END]


def traced(args, rounds, probe):
    from perfbench.tracer import Tracer

    out = Outcome(probe)
    tracer = Tracer()
    plain_s = traced_s = traced_wall = 0.0
    passes = 0
    start = time.perf_counter()
    while True:
        n0 = len(out.scaled)
        for r, jobs in enumerate(rounds):
            for i, job in enumerate(jobs):
                out.run(job, (r, i))
        plain_s += sum(out.scaled[n0:])
        n0 = len(out.scaled)
        tracer.install()
        try:
            for r, jobs in enumerate(rounds):
                for i, job in enumerate(jobs):
                    out.run(job, (r, i), tracer.run_job)
        finally:
            tracer.uninstall()
        traced_s += sum(out.scaled[n0:])
        traced_wall += sum(out.latencies[n0:])
        passes += 1
        if args.smoke or time.perf_counter() - start >= args.seconds:
            break

    tracer.write_spans(os.path.join(OUT, "%s-seed%d" % (args.workload, args.seed)))
    values = {}
    for layer in LAYER_TIMES:
        values[layer + "_s"] = tracer.layer_self_time(layer) / passes
    for layer in SPLIT_BY_FIELD:
        for tag in ("qq", "gf"):
            values["%s_s.%s" % (layer, tag)] = tracer.layer_self_time(layer, tag) / passes
    for layer in LAYER_CALLS:
        values[layer + "_calls"] = tracer.layer_calls(layer) // passes
    for key, _ in LAYER_COUNTS:
        values[key] = tracer.counts[key] // passes
    values["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    values["trace.wall_s"] = traced_wall / passes     # unscaled, like the self times
    values["trace.spans"] = tracer.span_count // passes
    values["machine.probe_s"] = statistics.fmean(probe.samples)
    print("%s seed %d: %d passes, untraced %.2f s, traced %.2f s per pass (scaled)"
          % (args.workload, args.seed, passes, plain_s / passes, traced_s / passes),
          file=sys.stderr)
    return out, [(k, u, values[k]) for k, u in per_layer_names()]


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ltsdeform", "__init__.py")):
        print("perfbench: the program source src/ltsdeform is missing", file=sys.stderr)
        return 2
    for var in [v for v in os.environ if v.startswith("LTSDEFORM_")]:
        del os.environ[var]          # the default caps apply
    sys.dont_write_bytecode = True
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [SRC, ROOT] + [p for p in sys.path if os.path.abspath(p or ".") != here]
    if args.setup_once:
        cold_setup(args)
        return 0
    out, metrics = measure(args)
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, u, v in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
