import copy

import pytest
import yaml

from beliefsim import (
    ValidationError,
    build_intersection_scenario,
    load_scenario,
    parse_scenario,
    scenario_to_dict,
)


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


def test_not_yaml_file(tmp_path):
    path = tmp_path / "broken.scn"
    path.write_text("version: [unclosed")
    with pytest.raises(ValidationError) as err:
        load_scenario(path)
    assert "not valid YAML" in str(err.value)


def test_default_name_comes_from_filename(tmp_path, intersection_doc):
    doc = copy.deepcopy(intersection_doc)
    del doc["name"]
    path = tmp_path / "my_case.scn"
    path.write_text(yaml.safe_dump(doc))
    assert load_scenario(path).name == "my_case"
