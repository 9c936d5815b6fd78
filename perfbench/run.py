#!/usr/bin/env python3
"""The nbuf benchmark (perfbench/README.md).

Builds nbuf and the benchmark from this checkout's sources (Release, into
$CARGO_TARGET_DIR or .bench_build), then runs one workload:

    python3 perfbench/run.py --workload section5 --seed 1 --seconds 25 --trace 0

The last line of stdout is the result object; build output goes to stderr.
`--selftest` builds and runs the benchmark's self-tests instead.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    """The build directory, kept inside the checkout."""
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    d = os.path.realpath(os.path.join(ROOT, d))
    if os.path.commonpath([d, os.path.realpath(ROOT)]) != os.path.realpath(ROOT):
        d = os.path.join(ROOT, ".bench_build")
    return d


def build(out, jobs):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: the nbuf sources (CMakeLists.txt, src/) are missing")
        return False
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg + gen, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", out, "--target", "perfbench",
           "perfbench_selftest", "-j", str(jobs)]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def source_id():
    """git commit when there is a repository, plus a digest of the sources."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return f"{commit}+src:{h.hexdigest()[:12]}"


def run(cmd, cwd):
    """Runs cmd to completion (killed after RUN_TIMEOUT_S); returns its code."""
    proc = subprocess.Popen(cmd, cwd=cwd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: run timed out")
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    out = os.path.join(build_root(), "perfbench")
    jobs = max(1, min(4, os.cpu_count() or 1))
    if not build(out, jobs):
        log("perfbench: build failed")
        return 2
    binary = os.path.join(out, "perfbench")
    if args.selftest:
        return run([os.path.join(out, "perfbench_selftest"), binary], out)

    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_root(), "work"),
           "--commit", source_id()]
    return run(cmd, ROOT)


if __name__ == "__main__":
    sys.exit(main())
