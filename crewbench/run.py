#!/usr/bin/env python3
"""Builds and runs the CREW benchmark from the root of a source tree.

    python3 crewbench/run.py --workload <name> --seed <n> --seconds <t> --trace <0|1>

Configures and builds crewbench/ (which compiles the repository's src/)
into $CARGO_TARGET_DIR/crewbench, default .bench_build/crewbench, then runs
the benchmark binary from the tree's root. Build output goes to
stderr; the last stdout line is the JSON result. See crewbench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "crewbench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("crewbench: build step failed: %s\n"
                             % " ".join(step))
            return False
    return True


def git_revision():
    # Stop git at the tree's root: a tree that is not a repository must
    # not borrow the revision of some enclosing one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("crewbench: no CREW sources under %s\n" % ROOT)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "crewbench")
    if not build(build_dir):
        return 1
    env = dict(os.environ, CREWBENCH_GIT_REV=git_revision())
    binary = os.path.join(build_dir, "crewbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
