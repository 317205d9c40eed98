"""Pinned sha256 digests of `run` outputs for every shipped scenario.

The digests were recorded before the simulator compiled voter sets per
(step, rule); any change to how beliefs are drawn, voted on or serialised
shows here as a changed digest.
"""

import hashlib

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


def _digests(scenario_dir, case, out, extra=()):
    flags, _ = PINS[case]
    scenario = scenario_dir / f"{case.split('-')[0]}.scn"
    argv = ["run", str(scenario), "--seed", SEED, "--trials", TRIALS, *flags, *extra]
    assert main([*argv, "--out-dir", str(out)]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in DATA_FILES}


@pytest.mark.parametrize("case", sorted(PINS))
def test_outputs_match_pinned_digests(case, scenario_dir, tmp_path, capsys):
    assert _digests(scenario_dir, case, tmp_path) == PINS[case][1]


def test_jobs_two_matches_pinned_digests(scenario_dir, tmp_path, capsys):
    case = "intersection"
    assert _digests(scenario_dir, case, tmp_path, ("--jobs", "2")) == PINS[case][1]
