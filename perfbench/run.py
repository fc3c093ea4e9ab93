#!/usr/bin/env python3
"""Build the server and the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload scan|churn|disk --seed N \
        --seconds S --trace 0|1

The last line of stdout is the result as one JSON object; see
perfbench/README.md. Exits non-zero, printing no result, when the
program cannot be built or a run fails.
"""

import os
import signal
import subprocess
import sys

TARGETS = ["./bin/pathcache_server.exe", "./perfbench/pcbench.exe"]


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "bin", "pathcache_server.ml")):
        sys.stderr.write("run.py: run from the repository root (no bin/pathcache_server.ml)\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", *TARGETS],
        stdout=subprocess.DEVNULL,
        stderr=sys.stderr,
        timeout=840,
    )
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return 2
    bench = os.path.join(root, "_build", "default", "perfbench", "pcbench.exe")
    server = os.path.join(root, "_build", "default", "bin", "pathcache_server.exe")
    # The benchmark and the servers it spawns share one CPU. A closed loop
    # keeps only one of them busy at a time, and on a small shared
    # machine two-CPU runs spread two to three times wider (cross-CPU
    # wake-ups), so one CPU is the steadier measure.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Its own process group, so that on a timeout the servers it spawned
    # are stopped with it.
    run = subprocess.Popen([bench, "--server", server, *sys.argv[1:]], start_new_session=True)
    try:
        return run.wait(timeout=175)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        sys.stderr.write("run.py: run timed out\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
