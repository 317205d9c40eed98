"""Seeded inputs for the beliefsim benchmark workloads.

Every workload gives the program one scenario file, written in the YAML
format that ``beliefsim.scenario_io.save_scenario`` writes (README.md,
"Scenario files"). This module does not import beliefsim, so a change to
the program under test cannot change the inputs it is measured on. The
same (workload, seed) always gives a byte-identical file.

The generated populations are a fixed design that the seed disguises
without changing the dominance relation, so every seed costs the program
the same work and the seeds differ only in inputs and outputs.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import yaml

WORKLOADS = ("intersection", "crowd-drift", "oracle-20")
DEFAULT_SEED = 42

# The shipped example at a trial count that makes beliefs, rules and trace
# serialisation do nearly all the work.
INTERSECTION_TRIALS = 2000

# Middle of the 40-500 agent range; drift on every step after the first
# keeps the lattice rebuilding, and few trials keep one run to a few seconds.
CROWD_AGENTS = 200
CROWD_STEPS = 4
CROWD_EVENTS_PER_STEP = 2
CROWD_TRIALS = 2

# The enumeration oracle's largest supported population (2^20 outcomes).
ORACLE_AGENTS = 20

LEVELS = 7  # quality levels per feature, 0 worst .. 6 best
_BOTH_DIRECTIONS = ("smaller_is_better", "larger_is_better")


def _design(workload: str, agents: int, features: int) -> list[list[int]]:
    """The workload's population as quality levels, the same for every seed.

    A small grid keeps dominance chains and ties common. Fixing the design
    fixes the dominance relation, so every seed costs the program the same
    work; the seed changes only what :class:`_Disguise` may change.
    """
    rng = random.Random(f"{workload}:design")
    return [[rng.randrange(LEVELS) for _ in range(features)] for _ in range(agents)]


class _Disguise:
    """A seeded rewrite of a design that keeps its dominance relation.

    Agent ids are permuted, features reordered, each feature given a
    direction (both kinds always occur) and its levels mapped to values by a
    strictly increasing map, reversed for smaller-is-better features.
    """

    def __init__(self, rng: random.Random, agents: int, features: int) -> None:
        self.ids = [f"a{i:03d}" for i in rng.sample(range(agents), agents)]
        self.order = rng.sample(range(features), features)  # output j shows design feature order[j]
        self.directions = list(_BOTH_DIRECTIONS) + [
            rng.choice(_BOTH_DIRECTIONS) for _ in range(features - 2)
        ]
        rng.shuffle(self.directions)
        self.maps = [sorted(rng.sample(range(1, 100), LEVELS)) for _ in range(features)]

    def schema(self) -> list[dict]:
        return [
            {"name": f"f{j}", "direction": direction, "unit": "grid"}
            for j, direction in enumerate(self.directions)
        ]

    def value(self, j: int, level: int) -> float:
        if self.directions[j] == "smaller_is_better":
            level = LEVELS - 1 - level
        return float(self.maps[j][level])

    def agents(self, design: list[list[int]]) -> dict[str, list[float]]:
        rows = {
            self.ids[i]: [self.value(j, levels[f]) for j, f in enumerate(self.order)]
            for i, levels in enumerate(design)
        }
        return dict(sorted(rows.items()))

    def feature(self, design_feature: int) -> int:
        return self.order.index(design_feature)


def _error_model(rng: random.Random) -> dict:
    # The error range changes the accuracies, not the work.
    return {
        "kind": "quality_mapped",
        "p_min": rng.randrange(2, 9) / 100,
        "p_max": rng.randrange(30, 46) / 100,
    }


def _intersection(root: Path, seed: int) -> dict:
    doc = yaml.safe_load((root / "scenarios" / "intersection.scn").read_text(encoding="utf-8"))
    doc["trials"] = INTERSECTION_TRIALS
    doc["seed"] = seed
    return doc


def _crowd_drift(rng: random.Random, seed: int) -> dict:
    features = 3
    design = _design("crowd-drift", CROWD_AGENTS, features)
    # Each drifting step moves CROWD_EVENTS_PER_STEP distinct agents to a new
    # level of one feature, so every such step rebuilds the same number of times.
    plan = random.Random("crowd-drift:drift")
    levels = [list(row) for row in design]
    events = []
    for step in range(1, CROWD_STEPS):
        for agent in plan.sample(range(CROWD_AGENTS), CROWD_EVENTS_PER_STEP):
            feature = plan.randrange(features)
            level = plan.choice([x for x in range(LEVELS) if x != levels[agent][feature]])
            levels[agent][feature] = level
            events.append((agent, feature, step, level))
    disguise = _Disguise(rng, CROWD_AGENTS, features)
    drift = [
        {
            "agent": disguise.ids[agent],
            "feature": f"f{disguise.feature(feature)}",
            "step": step,
            "value": disguise.value(disguise.feature(feature), level),
        }
        for agent, feature, step, level in events
    ]
    return {
        "version": 1,
        "name": "crowd-drift",
        "schema": disguise.schema(),
        "agents": disguise.agents(design),
        "propositions": [{"id": "obstacle", "statement": "an obstacle blocks the lane"}],
        "ground_truth": {"obstacle": True},
        "error_model": _error_model(rng),
        "topology": {"mode": "full_broadcast"},
        "drift": drift,
        "rules": ["most-expert", "majority", "subgroup:d=2,self"],
        "steps": CROWD_STEPS,
        "trials": CROWD_TRIALS,
        "seed": seed,
    }


def _oracle(rng: random.Random, seed: int) -> dict:
    features = 3
    disguise = _Disguise(rng, ORACLE_AGENTS, features)
    return {
        "version": 1,
        "name": "oracle-20",
        "schema": disguise.schema(),
        "agents": disguise.agents(_design("oracle-20", ORACLE_AGENTS, features)),
        "propositions": [{"id": "obstacle", "statement": "an obstacle blocks the lane"}],
        "ground_truth": {"obstacle": True},
        "error_model": _error_model(rng),
        "topology": {"mode": "full_broadcast"},
        "rules": ["most-expert", "majority", "subgroup:d=1", "subgroup:d=2,self"],
        "steps": 1,
        "trials": 1,
        "seed": seed,
    }


def scenario_document(workload: str, seed: int, root: Path) -> dict:
    """The scenario document for one workload; `root` holds `scenarios/`."""
    scenario_seed = seed % 2**64
    rng = random.Random(f"{workload}:{seed}")
    if workload == "intersection":
        return _intersection(root, scenario_seed)
    if workload == "crowd-drift":
        return _crowd_drift(rng, scenario_seed)
    if workload == "oracle-20":
        return _oracle(rng, scenario_seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def command_of(workload: str) -> str:
    """The beliefsim subcommand a workload times."""
    return "oracle" if workload == "oracle-20" else "run"


def outcomes(workload: str, doc: dict) -> int:
    """Receiver outcomes one command produces.

    A run produces trials x steps x rules x propositions x agents; the
    oracle weighs 2^n outcome vectors x n receivers x rules.
    """
    agents = len(doc["agents"])
    rules = len(doc["rules"])
    if command_of(workload) == "oracle":
        return 2**agents * agents * rules
    return doc["trials"] * doc["steps"] * rules * len(doc["propositions"]) * agents


def write_scenario(doc: dict, path: Path) -> str:
    """Write the document as YAML; return the file's sha256 hex digest."""
    data = yaml.safe_dump(doc, sort_keys=False, default_flow_style=False).encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()
