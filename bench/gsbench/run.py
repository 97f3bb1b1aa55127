#!/usr/bin/env python3
"""Builds gsbench from this checkout's sources, then runs it.

    python3 bench/gsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Arguments are passed through to the gsbench binary (see main.cc). The build
goes to $CARGO_TARGET_DIR/gsbench (default .bench_build/gsbench at the
checkout root) and is reused by later runs; concurrent runs wait for one
build. Everything the run writes (JIT artifacts, compiler temp files, the
trace) stays under that directory. The last line of stdout is the binary's
JSON result; build output goes to stderr.
"""

import fcntl
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"gsbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_root):
    build_dir = os.path.join(build_root, "gsbench")
    with open(os.path.join(build_root, "gsbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            step = subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr)
            if step.returncode != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        step = subprocess.run(["cmake", "--build", build_dir, "--target", "gsbench", "-j", jobs],
                              stdout=sys.stderr, stderr=sys.stderr)
        if step.returncode != 0:
            fail("build failed")
    return os.path.join(build_dir, "gsbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no gSampler sources under {ROOT}/src")
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    os.makedirs(build_root, exist_ok=True)
    binary = build(build_root)

    out_dir = os.path.join(build_root, "gsbench-out")
    tmp_dir = os.path.join(build_root, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)  # the JIT's compiler writes temp files here
    child = subprocess.Popen([binary, *sys.argv[1:], "--out", out_dir], env=env)
    # Forward termination to the child and always reap it.
    signal.signal(signal.SIGTERM, lambda *_: child.terminate())
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", code=3)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
