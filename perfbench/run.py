#!/usr/bin/env python3
"""Build the hsmc benchmark from source and run one measurement.

Usage, from the root of an hsmc checkout:

    python3 perfbench/run.py --workload compile|simulate|sweep|observe \
        --seed N --seconds S --trace 0|1

The build output goes to stderr; the benchmark's own report goes to
stdout, whose last line is the JSON result.  The exit code is the
build's when the build fails, otherwise the benchmark's.
"""

import glob
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    candidates = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    return candidates[0] if candidates else None


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of an hsmc checkout", file=sys.stderr)
        return 2
    dune = find_dune()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "./perfbench/perfbench.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if build.returncode != 0:
        return build.returncode
    try:
        return subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
