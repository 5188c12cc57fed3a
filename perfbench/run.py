#!/usr/bin/env python3
"""Build and run the GDDR benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree.  The first run configures and builds
perfbench/ (the library sources under src/ plus the benchmark binary)
into $CARGO_TARGET_DIR, or .bench_build when that is unset, and runs the
benchmark's self-test once per source state.  Every run then executes
one workload and passes its output through: a record line, then, as the
last line, {"correct", "attempted", "failed", "metrics"}.

Exit codes: 0 when a result line was printed ("correct" says whether
every output check passed), 1 when the build, self-test or workload
fails without a result, 2 on bad usage or when the tree has no sources
to build.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("train_abilene", "eval_geant")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """sha256 over every file the build reads, in path order."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        if not os.path.isfile(path) or "__pycache__" in path:
            continue
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(build_dir, digest, env):
    """Configures once, builds incrementally, self-tests once per digest."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", str(cores()),
                      "--target", "perfbench", "perfbench_selftest"])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, env=env,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                sys.stderr.write(done.stderr[-4000:])
                fail("build failed: " + " ".join(step))
        marker = os.path.join(build_dir, "selftest.ok")
        if not os.path.exists(marker) or open(marker).read() != digest:
            done = subprocess.run(
                [os.path.join(build_dir, "perfbench_selftest")],
                capture_output=True, text=True, env=env, timeout=RUN_TIMEOUT_S)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-2000:] + done.stderr[-4000:])
                fail("self-test failed")
            with open(marker, "w") as f:
                f.write(digest)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no GDDR sources under {ROOT}/src", code=2)
    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    tmp_dir = os.path.join(build_dir, "tmp")
    records = os.path.join(build_dir, "records")
    os.makedirs(tmp_dir, exist_ok=True)
    os.makedirs(records, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)

    digest = source_digest()
    build(build_dir, digest, env)

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--nproc", str(cores()), "--out-dir", records,
               "--git-sha", git_sha(), "--source-digest", digest]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        valid = False
    if done.returncode != 0 or not valid:
        sys.stdout.write(done.stdout[-4000:])
        fail(f"{args.workload} exited {done.returncode} without a result")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
