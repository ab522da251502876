#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload mc_video --seed 1 --seconds 10 --trace 0

The first run configures and compiles perfbench/ (and the simulator sources
it needs) into the directory named by CARGO_TARGET_DIR, default .bench_build;
later runs only re-check that build. Build output goes to stderr. The
benchmark's last stdout line is its JSON result; see perfbench/README.md.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


_children = []


def _stop_children(signum, frame):
    for proc in _children:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    sys.exit(1)


def run(cmd, timeout, env, **kwargs):
    """Runs `cmd` in its own process group, so that a timeout or a signal to
    this script stops the compiler or benchmark processes under it too."""
    proc = subprocess.Popen(cmd, env=env, start_new_session=True, **kwargs)
    _children.append(proc)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: timed out after {timeout} s: {' '.join(cmd)}", file=sys.stderr)
        return 1
    finally:
        _children.remove(proc)


def build(build_dir, env):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if run(["cmake", "-S", HERE, "-B", build_dir], BUILD_TIMEOUT_S, env,
               stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
               BUILD_TIMEOUT_S, env, stdout=sys.stderr) == 0


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 1
    signal.signal(signal.SIGTERM, _stop_children)
    signal.signal(signal.SIGINT, _stop_children)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not build(build_dir, env):
        return 1
    return run([os.path.join(build_dir, "perfbench")] + sys.argv[1:], RUN_TIMEOUT_S, env)


if __name__ == "__main__":
    sys.exit(main())
