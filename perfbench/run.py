#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and compiles perfbench/ (the library sources plus kvbench) into
perfbench-<hash of this checkout's path> under $CARGO_TARGET_DIR, or under .bench_build at
the checkout root when that is unset; later runs only check the build is current. Each
checkout thus owns its build tree, even when several share one $CARGO_TARGET_DIR. Build
output goes to stderr, so the last line of stdout is kvbench's JSON result. The exit code
is kvbench's: nonzero when the build fails or any response fails verification.
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    tag = hashlib.sha1(HERE.encode()).hexdigest()[:12]
    return os.path.join(target, "perfbench-" + tag)


def build(out):
    """Configures (until it succeeds once) and builds kvbench; returns its path or None."""
    if not any(os.path.exists(os.path.join(out, f)) for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", out, "-j", jobs, "--target", "kvbench"],
                       stdout=sys.stderr) != 0:
        return None
    return os.path.join(out, "kvbench")


def main():
    binary = build(build_dir())
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.call([binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
