#!/usr/bin/env python3
"""Build timebounds from source, then run the bound-overhead benchmark.

    python3 perfbench/run.py --workload kv-mixed --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  The script builds the
`timebounds` CLI and the benchmark with dune, then replaces itself with the
benchmark executable, so the process that was started is the one that
spawns (and reaps) the replica processes.  The last line of standard
output is the result JSON; the exit code is non-zero on any build failure,
correctness failure or aborted run.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("kv-mixed", "kv-sharded-writes", "kv-failover")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    needed = ["dune-project", "bin/timebounds.ml", "lib", "perfbench/dune-project"]
    missing = [p for p in needed if not os.path.exists(os.path.join(root, p))]
    if missing:
        sys.exit("perfbench: not a timebounds source checkout (missing %s)"
                 % ", ".join(missing))

    # The shared dune cache lives in the home directory; keep every write
    # inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root,
         "./bin/timebounds.exe", "./perfbench/perfbench.exe"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed (exit %d)" % build.returncode)

    default = os.path.join(root, "_build", "default")
    bench = os.path.join(default, "perfbench", "perfbench.exe")
    sys.stdout.flush()
    sys.stderr.flush()
    os.chdir(root)
    os.execv(bench, [
        bench,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--exe", os.path.join(default, "bin", "timebounds.exe"),
        "--work", os.path.join(root, ".perfbench-work"),
    ])


if __name__ == "__main__":
    main()
