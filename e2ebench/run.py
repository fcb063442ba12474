#!/usr/bin/env python3
"""Builds robustqp_server and bench_e2e from this checkout, then runs
bench_e2e with the given arguments (see bench_e2e.cc for them).

    python3 e2ebench/run.py --workload engine_mix --seed 1 --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR (relative paths are taken from the
current directory) or else .bench_build at the repository root; build output
goes to stderr, so the last line of stdout stays bench_e2e's JSON result.
Exits 2 when the build fails, otherwise with bench_e2e's status.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build = os.path.join(build_root, "e2e")
    configure = ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in [configure, ["cmake", "--build", build, "-j", jobs]]:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("e2ebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    sys.stdout.flush()
    os.execv(os.path.join(build, "bench_e2e"),
             [os.path.join(build, "bench_e2e")] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
