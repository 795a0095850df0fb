#!/usr/bin/env python3
"""Builds the XRing synthesis benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid256_tight --seed 1 --seconds 10 --trace 0

--workload is one of paper_tables, irregular_corpus, grid256_tight,
grid256_wide, or `all` (every workload, one process). Any further option
(--jobs J, --corpus-seed C) goes to the benchmark binary unchanged. The build
goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) as an
optimized Release build; the binary refuses to report from anything else.
The last line of stdout is the JSON result; build output goes to stderr.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A normal run must end within 180 s; the benchmark itself stays well below.
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures once and builds incrementally; returns the binary path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "xring_perfbench")


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_hash():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-hash", git_hash(), "--source-digest", source_digest()]
    try:
        r = subprocess.run(cmd + extra, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
