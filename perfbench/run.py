#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a source checkout.  The binary refuses to run while
any LPFPS_* knob it pins is set.  The first run configures and
builds (Release) into .bench_build/perfbench; later runs only re-check
the build.  Build output goes to stderr, so the binary's JSON result
stays the last line of stdout.  Traced runs write their spans to
.bench_build/perfbench/spans/<workload>-seed<n>.jsonl.
"""
import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def build():
    """Configures once, then builds the binary; False on any failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    if not build():
        return 1

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    env = dict(os.environ, PERFBENCH_COMMIT=source_revision())
    sys.stdout.flush()
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
