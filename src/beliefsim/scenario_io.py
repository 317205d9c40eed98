"""Scenario files: YAML documents validated strictly before execution.

Unknown keys are rejected and every error message carries the offending
key path, so a typo in a drift entry reads like
``drift[2].detla: unknown key``. The `version` field is required and must
currently be 1.

See README.md for the full file schema; `scenario_to_dict` /
`save_scenario` write documents this loader accepts, which keeps the
shipped example files and the programmatic builders in lockstep.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping

import yaml

from .beliefs import IDENTIFIER, ErrorModel, GroundTruthSchedule, Proposition, Topology, TopologyMode
from .errors import ValidationError
from .features import Direction, Feature, FeatureSchema, FeatureVector
from .rules import parse_rule
from .simulator import DriftEvent, Scenario, validate_scenario

FORMAT_VERSION = 1
_MERGE = "tag:yaml.org,2002:merge"  # a '<<' key: the merged keys may be overridden


class _UniqueKeys:
    """Loader mixin: a key given twice in one mapping is an error, not a silent overwrite."""

    def construct_mapping(self, node, deep=False):
        explicit = [key_node for key_node, _ in node.value if key_node.tag != _MERGE]
        mapping = super().construct_mapping(node, deep)  # merges '<<', rejects unhashable keys
        seen = set()
        for key_node in explicit:
            key = self.construct_object(key_node)  # built above, so this looks it up
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    problem=f"found duplicate key {key!r}", problem_mark=key_node.start_mark
                )
            seen.add(key)
        return mapping


class _Loader(_UniqueKeys, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader on libyaml's parser when PyYAML has it, refusing duplicate keys."""


def _fail(path: str, message: str) -> ValidationError:
    return ValidationError(f"{path}: {message}" if path else message)


@contextmanager
def _at(path: str) -> Iterator[None]:
    """A constructor's ValidationError, raised again with the key path of its input."""
    try:
        yield
    except ValidationError as exc:
        raise _fail(path, str(exc)) from None


def _check_keys(mapping: Mapping[str, Any], path: str, allowed: set[str], required: set[str]) -> None:
    if not isinstance(mapping, dict):
        raise _fail(path, f"expected a mapping, got {type(mapping).__name__}")
    for key in mapping:
        if key not in allowed:
            raise _fail(f"{path}.{key}" if path else str(key), "unknown key")
    for key in sorted(required):  # a set's order changes with the hash seed
        if key not in mapping:
            raise _fail(path, f"missing required key {key!r}")


def _as_identifier(value: Any, path: str) -> str:
    if not isinstance(value, str) or not IDENTIFIER.fullmatch(value):
        raise _fail(path, f"expected an identifier (letters, digits, ._-), got {value!r}")
    return value


def _as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, f"expected a number, got {value!r}")
    return float(value)


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(path, f"expected an integer, got {value!r}")
    return value


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise _fail(path, f"expected true or false, got {value!r}")
    return value


def _parse_schema(data: Any) -> FeatureSchema:
    if not isinstance(data, list) or not data:
        raise _fail("schema", "expected a non-empty list of features")
    features = []
    for i, entry in enumerate(data):
        path = f"schema[{i}]"
        _check_keys(entry, path, {"name", "direction", "unit"}, {"name", "direction"})
        name = _as_identifier(entry["name"], f"{path}.name")
        direction_text = entry["direction"]
        try:
            direction = Direction(direction_text)
        except ValueError:
            raise _fail(
                f"{path}.direction",
                f"expected smaller_is_better or larger_is_better, got {direction_text!r}",
            ) from None
        unit = entry.get("unit", "")
        if not isinstance(unit, str):
            raise _fail(f"{path}.unit", f"expected a string, got {unit!r}")
        features.append(Feature(name, direction, unit))
    return FeatureSchema(tuple(features))


def _parse_agents(data: Any, schema: FeatureSchema) -> tuple[tuple[str, FeatureVector], ...]:
    if not isinstance(data, dict) or not data:
        raise _fail("agents", "expected a non-empty mapping of agent id to value list")
    agents = []
    for agent_id, values in data.items():
        path = f"agents.{agent_id}"
        _as_identifier(agent_id, "agents key")
        if not isinstance(values, list) or len(values) != schema.dimension:
            raise _fail(path, f"expected {schema.dimension} feature values")
        vec = tuple(_as_number(v, f"{path}[{i}]") for i, v in enumerate(values))
        with _at(path):
            agents.append((agent_id, FeatureVector(vec)))
    return tuple(agents)


def _parse_propositions(data: Any) -> tuple[Proposition, ...]:
    if not isinstance(data, list) or not data:
        raise _fail("propositions", "expected a non-empty list")
    props = []
    for i, entry in enumerate(data):
        path = f"propositions[{i}]"
        _check_keys(entry, path, {"id", "statement"}, {"id"})
        prop_id = _as_identifier(entry["id"], f"{path}.id")
        statement = entry.get("statement", "")
        if not isinstance(statement, str):
            raise _fail(f"{path}.statement", f"expected a string, got {statement!r}")
        props.append(Proposition(prop_id, statement))
    return tuple(props)


def _parse_ground_truth(data: Any) -> dict[str, GroundTruthSchedule]:
    if not isinstance(data, dict):
        raise _fail("ground_truth", "expected a mapping of proposition id to schedule")
    schedules = {}
    for prop_id, value in data.items():
        path = f"ground_truth.{prop_id}"
        if isinstance(value, bool):
            schedules[prop_id] = GroundTruthSchedule.constant(prop_id, value)
            continue
        if not isinstance(value, list):
            raise _fail(path, "expected a boolean or a non-empty list of {step, value}")
        entries = []
        for i, item in enumerate(value):
            entry_path = f"{path}[{i}]"
            _check_keys(item, entry_path, {"step", "value"}, {"step", "value"})
            entries.append(
                (
                    _as_int(item["step"], f"{entry_path}.step"),
                    _as_bool(item["value"], f"{entry_path}.value"),
                )
            )
        with _at(path):
            schedules[prop_id] = GroundTruthSchedule(prop_id, tuple(entries))
    return schedules


def _parse_error_model(data: Any) -> ErrorModel:
    _check_keys(data, "error_model", {"kind", "probabilities", "p_min", "p_max"}, {"kind"})
    kind = data["kind"]
    if kind == "per_agent_fixed":
        keys = {"kind", "probabilities"}
        _check_keys(data, "error_model", keys, keys)
        probs = data["probabilities"]
        if not isinstance(probs, dict):
            raise _fail("error_model.probabilities", "expected a mapping")
        parsed = {
            agent: _as_number(p, f"error_model.probabilities.{agent}")
            for agent, p in probs.items()
        }
        with _at("error_model.probabilities"):
            return ErrorModel.fixed(parsed)
    if kind == "quality_mapped":
        keys = {"kind", "p_min", "p_max"}
        _check_keys(data, "error_model", keys, keys)
        p_min = _as_number(data["p_min"], "error_model.p_min")
        p_max = _as_number(data["p_max"], "error_model.p_max")
        with _at("error_model"):
            return ErrorModel.quality_mapped(p_min, p_max)
    raise _fail("error_model.kind", f"expected per_agent_fixed or quality_mapped, got {kind!r}")


def _parse_topology(data: Any) -> Topology:
    if data is None:
        return Topology.full_broadcast()
    _check_keys(data, "topology", {"mode", "adjacency"}, {"mode"})
    mode = data["mode"]
    if mode == "full_broadcast":
        _check_keys(data, "topology", {"mode"}, {"mode"})
        return Topology.full_broadcast()
    if mode == "graph":
        adjacency = data.get("adjacency", {})
        if not isinstance(adjacency, dict):
            raise _fail("topology.adjacency", "expected a mapping of receiver to source list")
        parsed = {}
        for receiver, sources in adjacency.items():
            path = f"topology.adjacency.{receiver}"
            if not isinstance(sources, list):
                raise _fail(path, "expected a list of agent ids")
            parsed[receiver] = [_as_identifier(s, f"{path}[{i}]") for i, s in enumerate(sources)]
        return Topology.graph(parsed)
    raise _fail("topology.mode", f"expected full_broadcast or graph, got {mode!r}")


def _parse_drift(data: Any) -> tuple[DriftEvent, ...]:
    if data is None:
        return ()
    if not isinstance(data, list):
        raise _fail("drift", "expected a list of drift entries")
    events = []
    for i, entry in enumerate(data):
        path = f"drift[{i}]"
        _check_keys(entry, path, {"agent", "feature", "step", "delta", "value"}, {"agent", "feature", "step"})
        agent = _as_identifier(entry["agent"], f"{path}.agent")
        feature = _as_identifier(entry["feature"], f"{path}.feature")
        step = _as_int(entry["step"], f"{path}.step")
        delta = _as_number(entry["delta"], f"{path}.delta") if "delta" in entry else None
        value = _as_number(entry["value"], f"{path}.value") if "value" in entry else None
        with _at(path):
            events.append(DriftEvent(agent, feature, step, delta=delta, value=value))
    return tuple(events)


_TOP_KEYS = {
    "version",
    "name",
    "schema",
    "agents",
    "propositions",
    "ground_truth",
    "error_model",
    "topology",
    "drift",
    "rules",
    "steps",
    "trials",
    "seed",
}
_TOP_REQUIRED = _TOP_KEYS - {"name", "topology", "drift"}


def parse_scenario(data: Any) -> Scenario:
    """Validate a parsed document and build a Scenario; raises ValidationError."""
    scenario = _parse(data, "scenario")
    validate_scenario(scenario)
    return scenario


def _parse(data: Any, default_name: str) -> Scenario:
    """parse_scenario's Scenario, before the cross-field checks of validate_scenario."""
    _check_keys(data, "", _TOP_KEYS, _TOP_REQUIRED)
    version = _as_int(data["version"], "version")
    if version != FORMAT_VERSION:
        raise _fail("version", f"unsupported version {version}, expected {FORMAT_VERSION}")
    name = data.get("name", default_name)
    if not isinstance(name, str) or not name:
        raise _fail("name", f"expected a non-empty string, got {name!r}")

    schema = _parse_schema(data["schema"])
    agents = _parse_agents(data["agents"], schema)
    rules_data = data["rules"]
    if not isinstance(rules_data, list) or not rules_data:
        raise _fail("rules", "expected a non-empty list of rule names")
    rules = []
    for i, text in enumerate(rules_data):
        if not isinstance(text, str):
            raise _fail(f"rules[{i}]", f"expected a string, got {text!r}")
        with _at(f"rules[{i}]"):
            rules.append(parse_rule(text))

    return Scenario(
        schema=schema,
        agents=agents,
        propositions=_parse_propositions(data["propositions"]),
        ground_truth=_parse_ground_truth(data["ground_truth"]),
        error_model=_parse_error_model(data["error_model"]),
        topology=_parse_topology(data.get("topology")),
        rules=tuple(rules),
        steps=data["steps"],  # validate_scenario checks these three
        trials=data["trials"],
        seed=data["seed"],
        drift=_parse_drift(data.get("drift")),
        name=name,
    )


def load_scenario(path: str | Path) -> Scenario:
    scenario = read_scenario(path)
    validate_scenario(scenario)
    return scenario


def read_scenario(path: str | Path) -> Scenario:
    """load_scenario without validate_scenario, for callers that validate after overrides."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path.name}: not valid UTF-8 at byte {exc.start}") from None
    try:
        data = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ValidationError(f"{path.name}: not valid YAML: {exc}") from None
    if data is None:  # an empty or comment-only file, or a bare null
        raise ValidationError(f"{path.name}: empty document, expected a scenario mapping")
    return _parse(data, default_name=path.stem)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Inverse of parse_scenario, producing a document the loader accepts."""
    doc: dict[str, Any] = {
        "version": FORMAT_VERSION,
        "name": scenario.name,
        "schema": [
            {"name": f.name, "direction": f.direction.value, "unit": f.unit}
            for f in scenario.schema.features
        ],
        "agents": {agent_id: list(vec.values) for agent_id, vec in scenario.agents},
        "propositions": [
            {"id": p.id, "statement": p.statement} for p in scenario.propositions
        ],
        "ground_truth": {},
        "error_model": {},
        "topology": {"mode": scenario.topology.mode.value},
        "rules": [rule.name for rule in scenario.rules],
        "steps": scenario.steps,
        "trials": scenario.trials,
        "seed": scenario.seed,
    }
    for prop in scenario.propositions:
        schedule = scenario.ground_truth[prop.id]
        if len(schedule.entries) == 1:
            doc["ground_truth"][prop.id] = schedule.entries[0][1]
        else:
            doc["ground_truth"][prop.id] = [
                {"step": step, "value": value} for step, value in schedule.entries
            ]
    model = scenario.error_model
    if model.probabilities is not None:
        doc["error_model"] = {
            "kind": "per_agent_fixed",
            "probabilities": dict(sorted(model.probabilities.items())),
        }
    else:
        doc["error_model"] = {
            "kind": "quality_mapped",
            "p_min": model.p_min,
            "p_max": model.p_max,
        }
    if scenario.topology.mode is TopologyMode.GRAPH:
        doc["topology"]["adjacency"] = {
            receiver: sorted(sources)
            for receiver, sources in sorted(scenario.topology.adjacency.items())
        }
    if scenario.drift:
        doc["drift"] = []
        for event in scenario.drift:
            entry: dict[str, Any] = {
                "agent": event.agent,
                "feature": event.feature,
                "step": event.step,
            }
            if event.delta is not None:
                entry["delta"] = event.delta
            else:
                entry["value"] = event.value
            doc["drift"].append(entry)
    return doc


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    text = yaml.safe_dump(scenario_to_dict(scenario), sort_keys=False, default_flow_style=False)
    Path(path).write_text(text, encoding="utf-8")
