"""Pinned sha256 digests of `run` outputs for every shipped scenario.

The digests were recorded before the simulator compiled voter sets per
(step, rule); any change to how beliefs are drawn, voted on or serialised
shows here as a changed digest. The mixed-inputs case covers what no
shipped scenario does (two propositions, piecewise-constant truth, a graph
topology, drift); its digests were recorded before the run loop rendered
trace lines from compact rows. The 200-agent cases check bytes at the scale
where voter sets are large, under full broadcast and a graph topology.
"""

import hashlib
import json
import random

import pytest

from beliefsim.cli import main

DATA_FILES = ("trace.jsonl", "metrics.json", "metrics.csv")
SEED = "7"
TRIALS = "200"

PINS = {
    "intersection": (
        (),
        {
            "trace.jsonl": "48427ef889ffff96890f71342db2ef1a96c85e7ee280032af09812634d60cd9d",
            "metrics.json": "584008e512df9e6e7c3e69c1d9406dd1e13110918f1d099ec104c69b9a5c32b9",
            "metrics.csv": "571365734e28d73cd97d140e43eff1241177aa4110f9c47fa5efd06070b83900",
        },
    ),
    "three_agent_expert": (
        (),
        {
            "trace.jsonl": "f0bd53688a0f8cd19271a6104b6e37162784f0ad3fb981abeae04eff0e3c66e7",
            "metrics.json": "7a53bfa209dd73f59e6011306f9ae50b6238e58b9aed35e54ad38568315b543d",
            "metrics.csv": "8f4974be324f712238dac3078d377bb66fe6d3b23aaef299bbd7bfc224df4d9f",
        },
    ),
    "four_agent_majority": (
        (),
        {
            "trace.jsonl": "07491bd08276fa9193c080a02418f558606ad322f8c473206383696c05ce7c68",
            "metrics.json": "f12be933781c72f120f028e9d9d2878372d3882b525c8c0b6a5c4a3fce982e90",
            "metrics.csv": "45d82a78e8928ec3daab81703e8ebcedee07c9e43e4399e514a9eb8b05435b07",
        },
    ),
    "drifting_expert": (
        (),
        {
            "trace.jsonl": "16773c7e89fcae94ec7a014803ab3a774ae7e33cacbb26716e6050a5cd6d363b",
            "metrics.json": "97c2e088cf06b61a1709366f38c6bbdb7cb05e4528a8e98647120567fa8bbc7b",
            "metrics.csv": "f264127b84fe8ccd19554ea1aa8902ba895b696c2e6a75c13123df3352895281",
        },
    ),
    # Sub-group rules beyond depth 1, with and without the receiver voting.
    "intersection-subgroups": (
        ("--rule", "subgroup:d=2,self", "--rule", "subgroup:d=3", "--rule", "majority"),
        {
            "trace.jsonl": "44bcc0d30b235e55a6c07d30bd53a4c81b79fe3a60b7583546d5101175e9332c",
            "metrics.json": "adee4363be537a2c19f4f2bbd4c34ad97419cad8a4fc575b9bc775600770f850",
            "metrics.csv": "da724c78b47d88015b2f76b9e79e039168fd0b07894ec05a4cf85dec57e0755e",
        },
    ),
}


def _digests(scenario_dir, case, out):
    flags, _ = PINS[case]
    scenario = scenario_dir / f"{case.split('-')[0]}.scn"
    argv = ["run", str(scenario), "--seed", SEED, "--trials", TRIALS, *flags]
    assert main([*argv, "--out-dir", str(out)]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in DATA_FILES}


@pytest.mark.parametrize("case", sorted(PINS))
def test_outputs_match_pinned_digests(case, scenario_dir, tmp_path, capsys):
    assert _digests(scenario_dir, case, tmp_path) == PINS[case][1]


MIXED_SCENARIO = """\
version: 1
name: mixed-inputs
schema:
  - {name: distance, direction: smaller_is_better, unit: m}
  - {name: resolution, direction: larger_is_better, unit: px}
agents:
  v1: [1.0, 9.0]
  v2: [2.0, 7.0]
  v3: [3.0, 8.0]
  v4: [4.0, 4.0]
  v5: [5.0, 6.0]
  v6: [6.0, 2.0]
propositions:
  - {id: pedestrian, statement: a pedestrian is crossing}
  - {id: cyclist, statement: a cyclist is in the lane}
ground_truth:
  pedestrian:
    - {step: 0, value: true}
    - {step: 2, value: false}
    - {step: 3, value: true}
  cyclist: false
error_model:
  kind: quality_mapped
  p_min: 0.1
  p_max: 0.4
topology:
  mode: graph
  adjacency:
    v1: [v2]
    v2: [v1, v3, v4]
    v3: [v1, v2, v5, v6]
    v4: [v1, v2, v3, v5]
    v5: [v4, v6]
drift:
  - {agent: v1, feature: distance, step: 1, delta: 4.5}
  - {agent: v6, feature: resolution, step: 2, value: 9.5}
  - {agent: v6, feature: distance, step: 2, value: 0.5}
rules:
  - most-expert
  - majority
  - subgroup:d=2,self
steps: 4
trials: 50
seed: 3
"""

MIXED_PINS = {
    "trace.jsonl": "f450533ec9ec38aa59e719f1321a9ddcb85085a428fdabaf1228030df13b43d0",
    "metrics.json": "d080b93e0be88abac3d6f2d537df2641abf9a46c5966719b27c1934cc254a8a8",
    "metrics.csv": "99a64345a247b0663c57f5b2964035d2c08f4bf3b1eae33dc462236a372d7f54",
}


def test_mixed_inputs_match_pinned_digests(tmp_path, capsys):
    scenario = tmp_path / "mixed.scn"
    scenario.write_text(MIXED_SCENARIO, encoding="utf-8")
    out = tmp_path / "out"
    argv = ["run", str(scenario), "--seed", SEED, "--trials", TRIALS]
    assert main([*argv, "--out-dir", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in DATA_FILES}
    assert digests == MIXED_PINS


def crowd_scenario(topology: str) -> str:
    """A 200-agent scenario as JSON, which the YAML loader reads.

    Three features on a 7-level grid keep dominance chains and ties common;
    two agents drift at step 1 and two at step 2. The graph gives each agent
    but the first 0-39 random sources, so the first hears no one. The
    digests were recorded before voters were compiled from the lattice's
    dominator masks, while every voter set still came from set operations.
    """
    rng = random.Random("crowd-pin")
    ids = [f"c{i:03d}" for i in range(200)]
    doc = {
        "version": 1,
        "name": f"crowd-{topology}",
        "schema": [
            {"name": "range", "direction": "larger_is_better", "unit": "m"},
            {"name": "latency", "direction": "smaller_is_better", "unit": "ms"},
            {"name": "resolution", "direction": "larger_is_better", "unit": "px"},
        ],
        "agents": {a: [float(rng.randrange(7)) for _ in range(3)] for a in ids},
        "propositions": [{"id": "obstacle", "statement": "an obstacle blocks the lane"}],
        "ground_truth": {"obstacle": True},
        "error_model": {"kind": "quality_mapped", "p_min": 0.05, "p_max": 0.4},
        "topology": {"mode": "full_broadcast"},
        "drift": [
            {"agent": a, "feature": rng.choice(["range", "latency", "resolution"]),
             "step": step, "value": float(rng.randrange(7))}
            for step in (1, 2)
            for a in rng.sample(ids, 2)
        ],
        "rules": ["most-expert", "majority", "subgroup:d=2,self", "subgroup:d=3"],
        "steps": 3,
        "trials": 2,
        "seed": 3,
    }
    if topology == "graph":
        doc["topology"] = {
            "mode": "graph",
            "adjacency": {
                a: sorted(rng.sample([b for b in ids if b != a], rng.randrange(40)))
                for a in ids[1:]
            },
        }
    return json.dumps(doc)


CROWD_PINS = {
    "full_broadcast": {
        "trace.jsonl": "ae7e724afe984b9257417266ff8e9dafe0c2e773404e596dac6ccb6d1296b31b",
        "metrics.json": "69bdb792e59a1385d2a5b7d96f942c77a52dbe88e579e7e7633d25f829c581b9",
        "metrics.csv": "a5ed0b2f8e164c60f4b24f4329f36c1c14e9824cfc163236fd2ff1f7995e310e",
    },
    "graph": {
        "trace.jsonl": "55a9e1e3a48e01ec01264be67fc8c0f063341f85a5054bc5be03ad9568498475",
        "metrics.json": "50e6c0e6c4cea1149ed289cb75ea94fbd8446692279c8f61f54d2fd635092bcb",
        "metrics.csv": "6a3a9920bf3b5fb98ca736052730bb718b27571f14f0b07b8080f6278a4c2e9b",
    },
}


@pytest.mark.parametrize("topology", sorted(CROWD_PINS))
def test_200_agents_match_pinned_digests(topology, tmp_path, capsys):
    scenario = tmp_path / "crowd.scn"
    scenario.write_text(crowd_scenario(topology), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out-dir", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in DATA_FILES}
    assert digests == CROWD_PINS[topology]
