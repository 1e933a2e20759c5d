#!/usr/bin/env python3
"""Builds ipool_bench from this checkout and runs workloads with it.

  python3 bench/suite/run.py --workload NAME|all --seed N [--seconds 15]
                             [--trace 0|1] [--smoke]

A run measures a fixed amount of work sized to take RUN_SECONDS on the
reference host (kRunSeconds in suite.h, run_seconds in BENCHMARK.json);
--seconds is accepted only with that value, so every run does the same work.

The Release build lives in $CARGO_TARGET_DIR (default .bench_build) under
the checkout root; traced runs write spans.jsonl and tasks.jsonl to
<build>/trace/<workload>. Each workload runs in a fresh process, and the
last line it prints is its result:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exits non-zero when the sources are missing, the build fails, or a
workload fails a correctness check. SIGTERM or SIGINT stops the running
build or workload first, then exits 128 + the signal number.
"""
import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
WORKLOADS = ("serve-read", "fleet-tick", "fleet-retune", "offline-eval")
RUN_SECONDS = 15


def commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        with open(os.path.join(git, ref)) as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def run(command, **kwargs):
    """Runs `command` in a process group of its own and returns its exit
    code. SIGTERM or SIGINT to run.py goes to the whole group, and run.py
    waits for the command to end before it exits, so nothing it started
    outlives it."""
    child = subprocess.Popen(command, start_new_session=True, **kwargs)
    received = []

    def forward(signum, _frame):
        # No wait here: the interrupted child.wait() below holds Popen's
        # wait lock and resumes once the handler returns.
        os.killpg(child.pid, signum)
        received.append(signum)

    previous = {s: signal.signal(s, forward)
                for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        code = child.wait()
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)
    if received:
        sys.exit(128 + received[0])
    return code


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no repository sources under %s" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "bench", "suite"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "ipool_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if run(step, stdout=sys.stderr) != 0:
            sys.exit("run.py: build step failed: %s" % " ".join(step))
    return os.path.join(build_dir, "ipool_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seconds != RUN_SECONDS:
        parser.error("--seconds must be %d: the work per run is fixed" %
                     RUN_SECONDS)

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        command = [binary, "--workload", workload, "--seed", str(args.seed),
                   "--trace", str(args.trace),
                   "--trace-dir", os.path.join(build_dir, "trace", workload),
                   "--commit", commit()]
        if args.smoke:
            command.append("--smoke")
        sys.stdout.flush()
        status = status or run(command)
    return status


if __name__ == "__main__":
    sys.exit(main())
