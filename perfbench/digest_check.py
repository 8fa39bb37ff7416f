"""Check that the simulated outputs of every workload are reproducible.

Runs ``run.py --digest-only`` twice per workload, in separate processes,
and fails if the two digests differ. With ``--save FILE`` it also writes
the digests; with ``--against FILE`` it fails if any differs from a file
saved on another commit. A change meant only to make the program faster
shows with this that it changed no simulated number::

    git checkout <parent> && python3 perfbench/digest_check.py --save d.json
    git checkout <change> && python3 perfbench/digest_check.py --against d.json

Exit status: 0 when every digest matched, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import WORKLOAD_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))


def digest(workload: str, seed: int) -> str:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--digest-only"],
        capture_output=True, text=True, timeout=600)
    for line in proc.stdout.splitlines():
        if line.startswith("digest ") and proc.returncode == 0:
            return line.split()[-1]
    raise SystemExit(f"{workload}: no digest (exit {proc.returncode})\n"
                     f"{proc.stdout}{proc.stderr}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--save", metavar="FILE")
    parser.add_argument("--against", metavar="FILE")
    args = parser.parse_args()
    expected = {}
    if args.against:
        with open(args.against) as handle:
            expected = json.load(handle)
        if expected.get("seed") != args.seed:
            parser.error(f"{args.against} holds seed {expected.get('seed')}")
    digests = {"seed": args.seed}
    ok = True
    for workload in WORKLOAD_NAMES:
        first, second = digest(workload, args.seed), digest(workload, args.seed)
        status = "ok"
        if first != second:
            status, ok = "differs between runs", False
        elif workload in expected and expected[workload] != first:
            status, ok = f"differs from {args.against}", False
        print(f"{workload:18s} {first} {status}")
        digests[workload] = first
    if args.save:
        with open(args.save, "w") as handle:
            json.dump(digests, handle, indent=1, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
