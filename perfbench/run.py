#!/usr/bin/env python3
"""Build and run the MobiEyes deployment benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `mobieyes-serve` (the repository's partition binary) and the
`perfbench` binary in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), then runs `perfbench` with the same arguments. Standard
output is perfbench's: its last line is the result JSON. perfbench runs in
its own process group, which is killed when it exits, times out or this
wrapper is signalled, so no partition process outlives a run; its run
directory under `.perfbench-tmp/` is removed too.
"""

import glob
import os
import shutil
import signal
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170
# perfbench's per-run directories: `<RUN_ROOT>/<pid>-<nanos>`.
RUN_ROOT = ".perfbench-tmp"


def cleanup(bench):
    """SIGKILLs perfbench's process group, waits until every process in it
    has ended, and removes perfbench's run directory, which a killed
    perfbench cannot remove itself."""
    try:
        os.killpg(bench.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    # Reap the group leader, so only stragglers keep the group alive.
    bench.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(bench.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    for path in glob.glob(os.path.join(RUN_ROOT, "%d-*" % bench.pid)):
        shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(RUN_ROOT)
    except OSError:
        pass


def main():
    if not os.path.isfile("Cargo.toml") or not os.path.isfile("perfbench/Cargo.toml"):
        sys.exit("perfbench: run from the root of a MobiEyes source checkout")
    env = {k: v for k, v in os.environ.items() if not k.startswith("MOBIEYES_")}
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "mobieyes-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))

    bench = subprocess.Popen(
        [os.path.join(target, "release", "perfbench")] + sys.argv[1:],
        env=env,
        start_new_session=True,
    )

    def on_signal(signum, _frame):
        cleanup(bench)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        code = bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        cleanup(bench)
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    cleanup(bench)
    sys.exit(code)


if __name__ == "__main__":
    main()
