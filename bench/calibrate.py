"""Fixed calibration work that measures how fast the host runs right now.

    python3 bench/calibrate.py [python] [numpy]

Prints the time in seconds of each part asked for (both by default): a
pure-Python part (random draws, set and
dict work, JSON encoding, the kind of work ``beliefsim run`` and
``beliefsim validate`` do) and a numpy part (column-wise boolean votes
weighted over an outcome enumeration, the kind of work ``beliefsim oracle``
does). The work never changes and never touches beliefsim, so a change to
the program cannot change these times; only the host can. ``run.py`` runs
it beside every timed repetition and scales its times by it (see
``HOST_PARTS`` there).
"""

from __future__ import annotations

import json
import random
import sys
import time


def python_part() -> float:
    start = time.perf_counter()
    rng = random.Random(7)
    agents = [f"a{i:02d}" for i in range(12)]
    records = []
    for trial in range(12000):
        beliefs = {agent: rng.random() < 0.8 for agent in agents}
        voters = set(agents[trial % 5:]) & set(agents[: 12 - trial % 3])
        votes = sum(1 for agent in sorted(voters) if beliefs[agent])
        records.append(
            json.dumps({"trial": trial, "votes": votes, "beliefs": beliefs}, sort_keys=True)
        )
    counts: dict[str, int] = {}
    for line in records:
        for key in json.loads(line)["beliefs"]:
            counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


def numpy_part() -> float:
    import numpy as np  # imported here: the Python part alone stays quick to start

    start = time.perf_counter()
    n = 18
    outcomes = np.arange(2**n, dtype=np.int64)
    correct = np.empty((2**n, n), dtype=bool)
    weight = np.ones(2**n)
    for j in range(n):
        correct[:, j] = (outcomes >> j) & 1
        weight *= np.where(correct[:, j], 0.8, 0.2)
    total = 0.0
    for r in range(0, n, 2):
        cols = [c for c in range(n) if c != r]
        votes = correct[:, cols].sum(axis=1)
        win = (2 * votes > len(cols)) | ((2 * votes == len(cols)) & correct[:, r])
        total += float(weight @ win)
    return time.perf_counter() - start


PARTS = {"python": python_part, "numpy": numpy_part}

if __name__ == "__main__":
    names = sys.argv[1:] or list(PARTS)
    print(" ".join(f"{PARTS[name]():.6f}" for name in names))
