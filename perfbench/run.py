#!/usr/bin/env python3
"""Benchmark of record for dcolor: builds perfbench/ and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test            # Network-reference parity, reduced size
    python3 perfbench/run.py --write-fingerprints   # re-pin fingerprints.json

Run from the repository root. The harness is compiled (Release) into
.bench_build/perfbench on first use. The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; lines before it start
with "# " (run context, input fingerprints, tail percentiles). The exit code
is non-zero when any solve fails its checks, when the default seed's inputs
no longer match fingerprints.json (a generator changed: numbers from before
and after are not comparable), or when the sources cannot be built.
See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("no dcolor sources next to perfbench/ (run from a full checkout)")
    if shutil.which("cmake") is None:
        die("cmake not found")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    # One build at a time per checkout; later runs find it up to date.
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
                         + generator)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                die("build timed out: " + " ".join(cmd))
            if done.returncode != 0:
                die("build failed: " + " ".join(cmd))


def run_binary(args):
    try:
        return subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("run timed out after %d s" % RUN_TIMEOUT_S)


def default_fingerprints(lines):
    """{workload: inputs} from the '# fingerprint_default {...}' lines."""
    out = {}
    prefix = "# fingerprint_default "
    for line in lines:
        if line.startswith(prefix):
            fp = json.loads(line[len(prefix):])
            out[fp["workload"]] = fp["inputs"]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-fingerprints", action="store_true")
    a = ap.parse_args()
    if not (a.self_test or a.write_fingerprints or a.workload):
        ap.error("--workload is required")

    build()
    if a.self_test:
        done = run_binary(["--self-test"])
        sys.stdout.write(done.stdout)
        return done.returncode
    if a.write_fingerprints:
        done = run_binary(["--fingerprints"])
        if done.returncode != 0:
            return done.returncode
        pinned = default_fingerprints(done.stdout.splitlines())
        with open(FINGERPRINTS, "w") as f:
            json.dump(pinned, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote " + os.path.relpath(FINGERPRINTS, ROOT))
        return 0

    done = run_binary(["--workload", a.workload, "--seed", str(a.seed),
                       "--seconds", str(a.seconds), "--trace", str(a.trace)])
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        die("the harness printed no result (exit code %d)" % done.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    code = done.returncode

    with open(FINGERPRINTS) as f:
        pinned = json.load(f)
    seen = default_fingerprints(lines).get(a.workload)
    if seen != pinned.get(a.workload):
        print("perfbench: the default seed's inputs for %s changed:\n  pinned %s\n  now    %s\n"
              "a generator changed, so numbers before and after are not comparable; "
              "re-pin with --write-fingerprints in a benchmark change"
              % (a.workload, pinned.get(a.workload), seen), file=sys.stderr)
        result["correct"] = False
        code = code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
