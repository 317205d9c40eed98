import copy
import random
from pathlib import Path

import pytest
import yaml

from beliefsim import (
    DriftEvent,
    ValidationError,
    build_intersection_scenario,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
)
from beliefsim import scenario_io

from support import random_population, simple_scenario

SCENARIO_FILES = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.scn"))


@pytest.fixture
def intersection_doc(scenario_dir):
    return yaml.safe_load((scenario_dir / "intersection.scn").read_text())


def test_shipped_file_matches_programmatic_builder(scenario_dir):
    assert load_scenario(scenario_dir / "intersection.scn") == build_intersection_scenario()


def test_all_shipped_scenarios_load(scenario_dir):
    for path in sorted(scenario_dir.glob("*.scn")):
        load_scenario(path)


def test_roundtrip_through_dict(intersection_doc):
    scenario = parse_scenario(intersection_doc)
    assert parse_scenario(scenario_to_dict(scenario)) == scenario


def test_roundtrip_with_graph_topology_and_drift():
    doc = {
        "version": 1,
        "name": "graphy",
        "schema": [{"name": "d", "direction": "smaller_is_better"}],
        "agents": {"a": [1.0], "b": [2.0]},
        "propositions": [{"id": "p"}],
        "ground_truth": {"p": [{"step": 0, "value": True}, {"step": 2, "value": False}]},
        "error_model": {"kind": "per_agent_fixed", "probabilities": {"a": 0.1, "b": 0.2}},
        "topology": {"mode": "graph", "adjacency": {"a": ["b"], "b": []}},
        "drift": [{"agent": "b", "feature": "d", "step": 1, "delta": -0.5}],
        "rules": ["majority", "subgroup:d=2,self"],
        "steps": 3,
        "trials": 10,
        "seed": 3,
    }
    scenario = parse_scenario(doc)
    assert parse_scenario(scenario_to_dict(scenario)) == scenario


class TestRejections:
    def check(self, doc, fragment):
        with pytest.raises(ValidationError) as err:
            parse_scenario(doc)
        assert fragment in str(err.value)

    def test_unknown_top_level_key(self, intersection_doc):
        doc = copy.deepcopy(intersection_doc)
        doc["unexpected"] = 1
        self.check(doc, "unexpected")

    def test_missing_version(self, intersection_doc):
        doc = copy.deepcopy(intersection_doc)
        del doc["version"]
        self.check(doc, "version")

    def test_wrong_version(self, intersection_doc):
        doc = copy.deepcopy(intersection_doc)
        doc["version"] = 2
        self.check(doc, "version")

    def test_malformed_drift_entry_names_key_path(self, intersection_doc):
        doc = copy.deepcopy(intersection_doc)
        doc["drift"] = [{"agent": "s1", "feature": "distance", "step": 0, "detla": 1.0}]
        self.check(doc, "drift[0].detla")

    def test_drift_without_delta_or_value(self, intersection_doc):
        doc = copy.deepcopy(intersection_doc)
        doc["drift"] = [{"agent": "s1", "feature": "distance", "step": 0}]
        self.check(doc, "drift[0]")

    def test_drift_step_out_of_range(self, intersection_doc):
        doc = copy.deepcopy(intersection_doc)
        doc["drift"] = [{"agent": "s1", "feature": "distance", "step": 99, "delta": 1.0}]
        self.check(doc, "drift[0]")

    def test_drift_unknown_agent(self, intersection_doc):
        doc = copy.deepcopy(intersection_doc)
        doc["drift"] = [{"agent": "sX", "feature": "distance", "step": 0, "delta": 1.0}]
        self.check(doc, "drift[0]")

    def test_agent_with_wrong_arity(self, intersection_doc):
        doc = copy.deepcopy(intersection_doc)
        doc["agents"]["s1"] = [1.0]
        self.check(doc, "agents.s1")

    def test_agent_value_not_number(self, intersection_doc):
        doc = copy.deepcopy(intersection_doc)
        doc["agents"]["s1"] = [1.0, "fast"]
        self.check(doc, "agents.s1[1]")

    def test_bad_agent_identifier(self, intersection_doc):
        doc = copy.deepcopy(intersection_doc)
        doc["agents"]["bad id!"] = [1.0, 1.0]
        self.check(doc, "identifier")

    def test_agent_identifier_with_trailing_newline(self, intersection_doc):
        doc = copy.deepcopy(intersection_doc)
        doc["agents"]["s9\n"] = [1.0, 1.0]
        self.check(doc, "agents key: expected an identifier")

    def test_bad_direction(self, intersection_doc):
        doc = copy.deepcopy(intersection_doc)
        doc["schema"][0]["direction"] = "bigger"
        self.check(doc, "schema[0].direction")

    def test_bad_rule_string(self, intersection_doc):
        doc = copy.deepcopy(intersection_doc)
        doc["rules"] = ["most-expert", "subgroup:d=0"]
        self.check(doc, "rules[1]")

    def test_duplicate_rules(self, intersection_doc):
        doc = copy.deepcopy(intersection_doc)
        doc["rules"] = ["majority", "majority"]
        self.check(doc, "duplicate rules")

    def test_probability_out_of_range(self, intersection_doc):
        doc = copy.deepcopy(intersection_doc)
        doc["error_model"] = {"kind": "per_agent_fixed", "probabilities": {"s1": 1.2}}
        self.check(doc, "probabilities")

    def test_fixed_model_must_cover_all_agents(self, intersection_doc):
        doc = copy.deepcopy(intersection_doc)
        doc["error_model"] = {"kind": "per_agent_fixed", "probabilities": {"s1": 0.1}}
        with pytest.raises(Exception) as err:
            parse_scenario(doc)
        assert "missing from error model" in str(err.value)

    def test_quality_mapped_rejects_probabilities_key(self, intersection_doc):
        doc = copy.deepcopy(intersection_doc)
        doc["error_model"]["probabilities"] = {"s1": 0.1}
        self.check(doc, "error_model.probabilities")

    def test_topology_unknown_agent(self, intersection_doc):
        doc = copy.deepcopy(intersection_doc)
        doc["topology"] = {"mode": "graph", "adjacency": {"s1": ["ghost"]}}
        self.check(doc, "ghost")

    def test_truth_entry_beyond_steps(self, intersection_doc):
        doc = copy.deepcopy(intersection_doc)
        doc["ground_truth"]["pedestrian"] = [
            {"step": 0, "value": True},
            {"step": 99, "value": False},
        ]
        self.check(doc, "step 99")

    def test_missing_truth_for_proposition(self, intersection_doc):
        doc = copy.deepcopy(intersection_doc)
        doc["ground_truth"] = {}
        self.check(doc, "pedestrian")

    def test_steps_must_be_positive(self, intersection_doc):
        doc = copy.deepcopy(intersection_doc)
        doc["steps"] = 0
        self.check(doc, "steps")

    def test_seed_must_fit_64_bits(self, intersection_doc):
        doc = copy.deepcopy(intersection_doc)
        doc["seed"] = 2**64
        self.check(doc, "seed")

    def test_seed_must_be_non_negative(self, intersection_doc):
        doc = copy.deepcopy(intersection_doc)
        doc["seed"] = -1
        self.check(doc, "seed")

    def test_truth_value_must_be_boolean(self, intersection_doc):
        doc = copy.deepcopy(intersection_doc)
        doc["ground_truth"]["pedestrian"] = "yes"
        self.check(doc, "ground_truth")


FIXED = {"kind": "per_agent_fixed", "probabilities": {"s1": 0.1, "s2": 0.2, "s3": 0.2, "s4": 0.3}}
DRIFT = {"agent": "s1", "feature": "distance", "step": 0}


# case: (top-level keys replaced in the intersection document, key path the message starts with)
@pytest.mark.parametrize(
    "changes, path",
    [
        ({"error_model": {**FIXED, "p_min": 0.1}}, "error_model.p_min"),
        ({"error_model": {"kind": "per_agent_fixed"}}, "error_model"),
        ({"error_model": {"kind": "quality_mapped", "p_min": 0.05}}, "error_model"),
        (
            {"error_model": {"kind": "quality_mapped", "p_min": "x", "p_max": 0.35}},
            "error_model.p_min: expected a number",
        ),
        ({"topology": {"mode": "full_broadcast", "adjacency": {}}}, "topology.adjacency"),
        ({"drift": [{**DRIFT, "delta": 1.0, "value": 2.0}]}, "drift[0]"),
        ({"drift": [{**DRIFT, "step": -1, "delta": 1.0}]}, "drift[0]"),
        ({"ground_truth": {"pedestrian": [{"step": -1, "value": True}]}}, "ground_truth.pedestrian"),
        ({"ground_truth": {"pedestrian": []}}, "ground_truth.pedestrian"),
        ({"ground_truth": {"pedestrian": True, "ghost": False}}, "ground_truth.ghost"),
        (
            {"error_model": {**FIXED, "probabilities": {**FIXED["probabilities"], "zz": 0.9}}},
            "error_model.probabilities.zz",
        ),
        (
            {"topology": {"mode": "graph", "adjacency": {"ghost": ["s1"]}}},
            "topology.adjacency.ghost: unknown agent",
        ),
        (
            {"topology": {"mode": "graph", "adjacency": {"s1": ["zz", "ghost"]}}},
            "topology.adjacency.s1: unknown source 'ghost'",
        ),
        (
            {"drift": [{**DRIFT, "delta": 1.0}, {**DRIFT, "agent": "s2", "delta": float("inf")}]},
            "drift[1]",
        ),
    ],
    ids=[
        "fixed-with-p_min", "fixed-without-probabilities", "quality-without-p_max",
        "quality-p_min-not-a-number",
        "broadcast-with-adjacency", "drift-delta-and-value", "drift-step-negative",
        "truth-from-negative-step", "truth-empty-list", "truth-undeclared", "probability-unknown-agent",
        "topology-unknown-receiver", "topology-unknown-source", "drift-non-finite",
    ],
)
def test_rejection_names_key_path(intersection_doc, changes, path):
    with pytest.raises(ValidationError) as err:
        parse_scenario({**intersection_doc, **changes})
    assert str(err.value).startswith(path), str(err.value)


def test_first_missing_key_in_sorted_order():
    # the same document gives the same message under every hash seed
    with pytest.raises(ValidationError, match=r"^missing required key 'agents'$"):
        parse_scenario({"version": 1})


def test_not_yaml_file(tmp_path):
    path = tmp_path / "broken.scn"
    path.write_text("version: [unclosed")
    with pytest.raises(ValidationError) as err:
        load_scenario(path)
    assert "not valid YAML" in str(err.value)


def _crowd_document() -> str:
    """A 200-agent scenario with fractional drift on every later step, as YAML text."""
    rng = random.Random(200)
    schema, agents = random_population(rng, 200, 3)
    ids = [agent_id for agent_id, _ in agents]
    drift = [
        DriftEvent(rng.choice(ids), f"f{rng.randrange(3)}", step, delta=rng.uniform(-2.0, 2.0))
        for step in (1, 2, 3)
        for _ in range(2)
    ]
    scenario = simple_scenario(
        schema, agents, {a: rng.uniform(0.0, 0.5) for a in ids}, steps=4, drift=drift
    )
    return yaml.safe_dump(scenario_to_dict(scenario), sort_keys=False)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
@pytest.mark.parametrize(
    "text",
    [path.read_text() for path in SCENARIO_FILES] + [_crowd_document()],
    ids=[path.name for path in SCENARIO_FILES] + ["crowd-200-drift"],
)
def test_libyaml_and_python_loaders_agree(text):
    # The loader parses with libyaml when PyYAML has it, else in pure Python.
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


@pytest.mark.parametrize("pure_python", [False, True], ids=["libyaml", "python"])
@pytest.mark.parametrize(
    "edit, key, line",
    [
        (lambda text: text.replace("  s4: [4.0, 4.0]\n", "  s4: [4.0, 4.0]\n  s1: [5.0, 5.0]\n"),
         "s1", 14),
        (lambda text: text + "ground_truth:\n  pedestrian: false\n", "ground_truth", 32),
    ],
    ids=["agent", "ground-truth"],
)
def test_key_given_twice_is_rejected(
    tmp_path, monkeypatch, scenario_dir, pure_python, edit, key, line
):
    if pure_python:
        loader = type("Loader", (scenario_io._UniqueKeys, yaml.SafeLoader), {})
        monkeypatch.setattr(scenario_io, "_Loader", loader)
    elif not issubclass(scenario_io._Loader, getattr(yaml, "CSafeLoader", ())):
        pytest.skip("PyYAML built without libyaml")
    path = tmp_path / "twice.scn"
    path.write_text(edit((scenario_dir / "intersection.scn").read_text()))
    with pytest.raises(ValidationError) as err:
        load_scenario(path)
    assert str(err.value).startswith(
        f"twice.scn: not valid YAML: found duplicate key {key!r}\n  in "
    )
    assert f", line {line}, column " in str(err.value)


def test_merged_keys_may_be_overridden():
    text = "base: &b {x: 1, y: 2}\nderived:\n  <<: *b\n  y: 3\n"
    assert yaml.load(text, Loader=scenario_io._Loader) == {
        "base": {"x": 1, "y": 2},
        "derived": {"x": 1, "y": 3},
    }


def test_default_name_comes_from_filename(tmp_path, intersection_doc):
    doc = copy.deepcopy(intersection_doc)
    del doc["name"]
    path = tmp_path / "my_case.scn"
    path.write_text(yaml.safe_dump(doc))
    assert load_scenario(path).name == "my_case"
