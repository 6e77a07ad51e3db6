"""Benchmark entry point for nonarch.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload in its own child process against the program in
``src/`` of the checkout that holds this file, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Workloads: lattice-content, kahler-charts,
skeleton-locus, cli-batch (see bench/README.md).  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lattice-content", "kahler-charts", "skeleton-locus", "cli-batch")
TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "nonarch", "__init__.py")):
        sys.stderr.write(f"bench: no nonarch package under {src}; run from a checkout of the repo\n")
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
           str(args.seconds), args.trace, os.path.join(HERE, "results")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"bench: {args.workload} did not finish within {TIMEOUT_S} s\n")
        return 1
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"bench: {args.workload} worker exited with {proc.returncode}\n")
        return 1
    result = json.loads(lines[-1])
    rounds = result.pop("rounds")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    record = os.path.join(HERE, "results",
                          f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as handle:
        json.dump(dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                       rounds=rounds, python=sys.version.split()[0]), handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
