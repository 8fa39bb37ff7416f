"""Run every workload once and print all their metrics.

One timed run (``--trace 0``) of each workload, one after the other,
with the same seed. Prints each run's box, digest and ``metric`` lines
(the end-to-end metrics by name and unit, plus the workloads' own names
for them and ``ops_failed_ratio``)::

    python3 perfbench/all.py --seed 1 --seconds 30

Exit status: 0 when every run passed its output checks, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

from run import WORKLOAD_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
SHOWN = ("perfbench ", "box ", "digest ", "ops ", "metric ", "raw ",
         "reference_kernel_ms ", "check failed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        for line in proc.stdout.splitlines():
            if line.startswith(SHOWN):
                print(line)
        if proc.returncode != 0:
            ok = False
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
