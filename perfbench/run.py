#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench/perfbench.exe with dune (release profile, build
directory $CARGO_TARGET_DIR or .bench_build, dune cache off so nothing
is written outside the checkout), runs it in its own process group,
forwards its report, and prints the result JSON object as the last
line of standard output. Every process the benchmark started is killed
and waited for before this script exits. A failed build, a failed
correctness check or a timeout exits non-zero without a result.
"""

import json
import os
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
MARKER = "PERFBENCH_RESULT "


def build(build_dir):
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir,
           "--profile", "release", "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return False
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: build failed (exit %d)\n" % r.returncode)
        return False
    return True


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


def stop_group(proc):
    """Kill whatever is left of the run's process group and wait for it.
    The group leader is this script's child, so it is reaped here;
    the rest are reaped by init once the leader is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while group_alive(proc.pid) and time.time() < deadline:
        proc.poll()
        time.sleep(0.05)


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        return 1
    exe = os.path.join(build_dir, "default", "perfbench", "perfbench.exe")
    proc = subprocess.Popen([exe] + sys.argv[1:], stdout=subprocess.PIPE,
                            start_new_session=True)

    def on_signal(signum, _frame):
        stop_group(proc)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    result = None
    timed_out = []

    def on_alarm(_signum, _frame):
        timed_out.append(True)
        stop_group(proc)

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_TIMEOUT_S)
    try:
        for raw in proc.stdout:
            line = raw.decode(errors="replace").rstrip("\n")
            if line.startswith(MARKER):
                result = line[len(MARKER):]
            else:
                print(line, flush=True)
        rc = proc.wait()
        signal.alarm(0)
    finally:
        stop_group(proc)
    if timed_out:
        sys.stderr.write("perfbench: timed out after %d s\n" % RUN_TIMEOUT_S)
        return 1
    if rc != 0:
        return rc if rc > 0 else 1
    if result is None:
        sys.stderr.write("perfbench: the run printed no result\n")
        return 1
    if sorted(json.loads(result)) != ["attempted", "correct", "failed", "metrics"]:
        sys.stderr.write("perfbench: malformed result\n")
        return 1
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
