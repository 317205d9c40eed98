"""Print every end-to-end metric of every workload, with its unit, sample
count and the correctness verdict.

    python3 bench/report.py [--seed N] [--seconds S]
"""

from __future__ import annotations

import argparse
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=run.DEFAULT_SECONDS)
    args = parser.parse_args(argv)
    error = run.prepare()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    all_correct = True
    for workload in WORKLOADS:
        result = run.measure(workload, args.seed, args.seconds, trace=False)
        print("\n".join(run.describe(result)), flush=True)
        all_correct = all_correct and result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
