#!/usr/bin/env python3
"""Compare two revisions on one benchmark workload, in alternating pairs.

    python3 scripts/bench_pairs.py REV_A REV_B --workload scan-equivariant --pairs 10

Both revisions are exported with `git archive` into a temporary directory,
and each runs `perfbench/run.py --trace 0` from its own tree.  Pair i runs
both with seed SEED + i, A first in even pairs and B first in odd ones, so
a drift in host speed does not favour either side.  Every run lasts the
benchmark's `run_seconds`, read from REV_B's BENCHMARK.json like the
end-to-end metrics; for each metric it prints the median and quartiles of
each side, in how many pairs B beat A, and whether B's median is better
than A's by more than A's interquartile range.
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def export(rev, dest):
    """Write the tree of rev into dest; returns the full commit hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=REPO,
                            capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=REPO,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def run(tree, workload, seed, seconds):
    """Metric values of one untraced benchmark run in tree."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("benchmark run in %s failed:\n%s" % (tree, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print("warning: %s: %d of %d jobs failed" % (tree.name, result["failed"],
                                                     result["attempted"]), file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(metrics, runs_a, runs_b):
    lines = ["%-16s %-7s %30s %30s %7s %s" % ("metric", "better", "A median [q1, q3]",
                                              "B median [q1, q3]", "B wins", "gain > A IQR")]
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        a = [r[name] for r in runs_a]
        b = [r[name] for r in runs_b]
        if None in a or None in b:
            continue
        qa, qb = quartiles(a), quartiles(b)
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        clear = sign * (qb[1] - qa[1]) > qa[2] - qa[0]
        lines.append("%-16s %-7s %30s %30s %4d/%-2d %s" % (
            name, m["better"], "%.4g [%.4g, %.4g]" % (qa[1], qa[0], qa[2]),
            "%.4g [%.4g, %.4g]" % (qb[1], qb[0], qb[2]), wins, len(a),
            "yes" if clear else "no"))
    return "\n".join(lines)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("rev_a")
    p.add_argument("rev_b")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=2101, help="seed of the first pair")
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {"A": Path(tmp) / "a", "B": Path(tmp) / "b"}
        for side, rev in (("A", args.rev_a), ("B", args.rev_b)):
            print("%s = %s" % (side, export(rev, trees[side])), file=sys.stderr)
        bench = json.loads((trees["B"] / "BENCHMARK.json").read_text())
        seconds, metrics = bench["run_seconds"], bench["end_to_end"]
        runs = {"A": [], "B": []}
        for i in range(args.pairs):
            seed = args.seed + i
            for side in ("AB" if i % 2 == 0 else "BA"):
                runs[side].append(run(trees[side], args.workload, seed, seconds))
                print("pair %d seed %d %s: jobs_per_s %.2f" % (
                    i + 1, seed, side, runs[side][-1]["jobs_per_s"]), file=sys.stderr)
    print("%s, %d pairs of %g s" % (args.workload, args.pairs, seconds))
    print(summary(metrics, runs["A"], runs["B"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
