#!/usr/bin/env python3
"""Build and run the revmax benchmark.

    python3 perfbench/run.py --workload serve-wire --seed 2015 --seconds 16 --trace 0

Run from the repository root. Builds `revmax-served` from the workspace
and the `perfbench` package next to this file (release, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the benchmark
with the given flags. The benchmark's own standard output passes through;
its last line is the JSON result. Exits non-zero, with no result, when
the build or the run fails.
"""

import os
import signal
import subprocess
import sys

# A run must end within 180 s; leave the benchmark a margin to stop its
# daemon before this wrapper gives up on it.
RUN_TIMEOUT_S = 170


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "Cargo.toml"),
         "-p", "revmax-bench", "--bin", "revmax-served"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "revmax-perfbench"), *sys.argv[1:],
           "--served", os.path.join(release, "revmax-served")]
    # Own process group: on a timeout the daemon the benchmark started
    # goes down with it.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
