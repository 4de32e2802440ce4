#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune, then replaces this process with
it, passing every argument through. The last line of standard output is the
result object; see perfbench/README.md.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "dune-project")):
        sys.stderr.write("perfbench: no dune-project at %s; run from a full checkout\n" % root)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", root, "--display", "quiet", "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed (exit %d)\n" % build.returncode)
        return 1
    exe = os.path.join(root, "_build", "default", "perfbench", "perfbench.exe")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
