#!/usr/bin/env python3
"""Paired, alternating A/B runs of the benchmark of record between two revisions.

    python3 scripts/perfbench_ab.py --base <rev> [--head <rev>] [--workload W ...]
                                    [--seeds 101-110]

Each revision is exported with `git archive` into a fresh temporary
directory of its own, so each builds its own .bench_build/; the directory
is removed at exit. (A copied checkout would reuse the original's
.bench_build/, whose CMake cache points at the original sources: the
"change" side would silently benchmark the original code.)

For every workload and seed it runs `perfbench/run.py --trace 0` once per
revision, for the `run_seconds` of BENCHMARK.json (the benchmark's own run
length), alternating which revision goes first from seed to seed, as
perfbench/README.md requires. It prints, per workload and per end-to-end
metric of BENCHMARK.json: the base and head medians, the base
interquartile range, the per-pair head/base ratios with their median, and
in how many pairs head was better. It then prints in how many pairs
`rounds` and `total_bits` were identical: both are deterministic per seed,
so a change meant to be bit-identical must show every pair. A failed or
incorrect run aborts.

To measure uncommitted edits of tracked files, pass
--head "$(git stash create)" (an unreferenced commit of the working tree;
it changes nothing in the checkout). Run from the repository root.
Stdlib only.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

# Counts that are deterministic per seed: equal in every pair unless the
# change alters what the algorithm does.
EXACT_METRICS = ("rounds", "total_bits")


def git(*args):
    return subprocess.run(["git"] + list(args), check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def export(rev, dest):
    """Writes the tree of `rev` into the fresh directory `dest`."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit("perfbench_ab: git archive %s failed" % rev)


def run_once(tree, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.exit("perfbench_ab: %s failed in %s (exit %d)" % (" ".join(cmd), tree,
                                                              done.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("perfbench_ab: incorrect or failed solves: %s in %s" % (" ".join(cmd), tree))
    return {k: v["value"] for k, v in result["metrics"].items()}


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def report(workload, metrics, base_runs, head_runs):
    print("== %s: %d pairs" % (workload, len(base_runs)))
    print("  %-12s %12s %12s %10s %12s %7s  %s" % ("metric", "base med", "head med", "base IQR",
                                                   "ratio med", "better", "pair ratios"))
    for m in metrics:
        name = m["name"]
        base = [r[name] for r in base_runs]
        head = [r[name] for r in head_runs]
        ratios = [h / b if b else float("nan") for b, h in zip(base, head)]
        lower = m["better"] == "lower"
        better = sum(1 for b, h in zip(base, head) if (h < b if lower else h > b))
        print("  %-12s %12.6g %12.6g %10.3g %12.3f %4d/%-2d  %s" % (
            name, statistics.median(base), statistics.median(head), iqr(base),
            statistics.median(ratios), better, len(ratios),
            " ".join("%.3f" % r for r in ratios)))
    print("  identical: " + ", ".join(
        "%s %d/%d" % (name, sum(1 for b, h in zip(base_runs, head_runs) if b[name] == h[name]),
                      len(base_runs))
        for name in EXACT_METRICS))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="revision to compare against")
    ap.add_argument("--head", default="HEAD", help="revision under test (default HEAD)")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all of BENCHMARK.json)")
    ap.add_argument("--seeds", default="101-110", help="seed range, one pair per seed")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    revs = {"base": git("rev-parse", "--verify", a.base + "^{commit}"),
            "head": git("rev-parse", "--verify", (a.head or "HEAD") + "^{commit}")}
    seeds = parse_seeds(a.seeds)
    with tempfile.TemporaryDirectory(prefix="perfbench_ab.") as workdir:
        trees = {}
        for side, sha in revs.items():
            trees[side] = os.path.join(workdir, "%s-%s" % (side, sha[:12]))
            export(sha, trees[side])
        print("# base %s  head %s  %g s per run" % (revs["base"][:12], revs["head"][:12],
                                                   bench["run_seconds"]))
        for workload in workloads:
            runs = {"base": [], "head": []}
            for i, seed in enumerate(seeds):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    runs[side].append(run_once(trees[side], workload, seed,
                                               bench["run_seconds"]))
            report(workload, metrics, runs["base"], runs["head"])
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
