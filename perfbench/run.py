#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md in this directory).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs the four workloads one after another.

The first call configures and builds perfbench/ (attain_lib from ../src
plus perfbench.cpp) into .bench_build/perfbench; later calls rebuild only what
changed. The program's standard output is passed through, so its last line
is the result JSON. Build output goes to standard error.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["fig11_attack", "fig11_baseline", "flood_enterprise", "campaign"]
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_id(root):
    """The git commit when the checkout is a repository, else a digest of src/."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha1()
    src = os.path.join(root, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def build(root):
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--digests", default=os.path.join(HERE, "digests.txt"),
                        help="committed result digests (default: perfbench/digests.txt)")
    parser.add_argument("--record-digests", action="store_true",
                        help="print the workload's digest lines instead of checking them")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no attain sources under " + os.path.join(root, "src") +
             "; run from the root of a checkout")
    binary = build(root)
    workdir = os.path.join(root, ".bench_build", "perfbench-work")
    os.makedirs(workdir, exist_ok=True)

    commit = source_id(root)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    codes = [run_workload(binary, workload, args, workdir, commit) for workload in workloads]
    sys.exit(next((code for code in codes if code != 0), 0))


def run_workload(binary, workload, args, workdir, commit):
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--digests", args.digests, "--workdir", workdir, "--commit", commit]
    if args.record_digests:
        command.append("--record-digests")
    sys.stdout.flush()
    # Own process group: the campaign forks workers, and a timeout or a
    # signal to this script must stop them too.
    child = subprocess.Popen(command, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail("workload %s did not finish within %d s" % (workload, RUN_TIMEOUT_S), code=3)


if __name__ == "__main__":
    main()
