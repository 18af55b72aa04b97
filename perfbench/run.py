#!/usr/bin/env python3
"""Build and run the GemStone end-to-end benchmark.

    python3 perfbench/run.py --workload report_cold --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source tree. The benchmark package
(perfbench/CMakeLists.txt) is configured and built under
.bench_build/perfbench, then gsbench runs the workload. Build output
goes to standard error; standard output carries gsbench's lines, the
last of which is the JSON result. The exit code is gsbench's, or
non-zero without a result when the tree cannot be built.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
TMP_DIR = os.path.join(BUILD_ROOT, "tmp")
WORKLOADS = ("report_cold", "report_warm", "serve_stream")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def source_id():
    """The commit, or a digest of the sources when not in a git tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return tree_digest()
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return tree_digest()


def tree_digest():
    """A digest of the build inputs, for trees without git metadata."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no GemStone sources (src/CMakeLists.txt) under " + ROOT)
    # Keep the compiler's and the benchmark's temporary files inside
    # the tree.
    os.makedirs(TMP_DIR, exist_ok=True)
    os.environ["TMPDIR"] = TMP_DIR
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "gsbench",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def interrupted(signum, frame):
    raise KeyboardInterrupt


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    command = [
        os.path.join(BUILD_DIR, "gsbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        # Relative to ROOT, which keeps the daemon's Unix socket path
        # short whatever the checkout's location.
        "--workdir", os.path.join(".bench_build", "run"),
        "--trace-dir", os.path.join(".bench_build", "traces"),
        "--commit", source_id(),
    ]
    sys.stdout.flush()
    bench = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    signal.signal(signal.SIGTERM, interrupted)
    try:
        return bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        fail("gsbench did not finish within %d s" % RUN_TIMEOUT_S)
    except KeyboardInterrupt:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
