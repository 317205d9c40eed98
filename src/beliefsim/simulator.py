"""Seeded Monte-Carlo experiments over drifting agent populations.

A scenario fixes the feature schema, initial population, drift program,
propositions with their truth schedules, error model, topology, rules
under test, and (steps, trials, seed). Each trial replays the same drift
program; randomness enters only through observation streams keyed by
(seed, trial, agent, step, proposition), so trials are independent and
the whole run is reproducible bit-for-bit, with any number of worker
threads.

Rules are compiled once per (step, rule): each receiver's voters depend
only on the step's lattice, the topology and the receiver, so they are
read once from :func:`apply_rule` and every trial votes over them.

Trace records are flat: one per (trial, step, rule), with per-proposition
maps inside. Metrics are a pure function of the trace plus the scenario's
truth schedules; recomputing them from a persisted trace reproduces the
run's numbers exactly.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

from .beliefs import (
    Belief,
    BeliefProfile,
    ErrorModel,
    GroundTruthSchedule,
    Proposition,
    RandomStream,
    Topology,
    observe,
)
from .errors import ValidationError
from .features import Direction, Feature, FeatureSchema, FeatureVector
from .lattice import DominanceLattice, build
from .rules import MAJORITY, MOST_EXPERT, Rule, RuleKind, _vote, apply_rule

_Z95 = 1.96


@dataclass(frozen=True)
class DriftEvent:
    """One scheduled change to one agent's feature, applied at step start."""

    agent: str
    feature: str
    step: int
    delta: float | None = None
    value: float | None = None

    def __post_init__(self) -> None:
        if (self.delta is None) == (self.value is None):
            raise ValidationError("drift event needs exactly one of delta or value")
        if self.step < 0:
            raise ValidationError("drift step must be non-negative")


@dataclass(frozen=True)
class Scenario:
    schema: FeatureSchema
    agents: tuple[tuple[str, FeatureVector], ...]
    propositions: tuple[Proposition, ...]
    ground_truth: Mapping[str, GroundTruthSchedule]
    error_model: ErrorModel
    topology: Topology
    rules: tuple[Rule, ...]
    steps: int
    trials: int
    seed: int
    drift: tuple[DriftEvent, ...] = ()
    name: str = "scenario"


def validate_scenario(scenario: Scenario) -> list[DominanceLattice]:
    """Check cross-field consistency; raises ValidationError before any trial runs.

    Returns the per-step lattices it builds, so callers do not rebuild them.
    """
    if not 0 <= scenario.seed < 2**64:
        raise ValidationError(f"seed: must be in [0, 2**64), got {scenario.seed}")
    if scenario.steps < 1:
        raise ValidationError("steps must be >= 1")
    if scenario.trials < 1:
        raise ValidationError("trials must be >= 1")
    if not scenario.agents:
        raise ValidationError("scenario needs at least one agent")
    if not scenario.propositions:
        raise ValidationError("scenario needs at least one proposition")
    prop_ids = [p.id for p in scenario.propositions]
    if len(set(prop_ids)) != len(prop_ids):
        raise ValidationError(f"duplicate proposition ids: {prop_ids}")
    for prop in scenario.propositions:
        schedule = scenario.ground_truth.get(prop.id)
        if schedule is None:
            raise ValidationError(f"no ground truth schedule for proposition {prop.id!r}")
        if schedule.proposition != prop.id:
            raise ValidationError(f"ground truth schedule mislabeled for {prop.id!r}")
        for step, _ in schedule.entries:
            if step >= scenario.steps:
                raise ValidationError(
                    f"ground truth for {prop.id!r} has entry at step {step}, "
                    f"but scenario runs {scenario.steps} steps"
                )
    rule_names = [rule.name for rule in scenario.rules]
    if not rule_names:
        raise ValidationError("scenario needs at least one rule")
    if len(set(rule_names)) != len(rule_names):
        raise ValidationError(f"duplicate rules: {rule_names}")

    agent_ids = {agent_id for agent_id, _ in scenario.agents}
    scenario.topology.validate_against(agent_ids)
    feature_names = set(scenario.schema.names)
    for i, event in enumerate(scenario.drift):
        where = f"drift[{i}]"
        if event.agent not in agent_ids:
            raise ValidationError(f"{where}: unknown agent {event.agent!r}")
        if event.feature not in feature_names:
            raise ValidationError(f"{where}: unknown feature {event.feature!r}")
        if event.step >= scenario.steps:
            raise ValidationError(
                f"{where}: step {event.step} out of range for {scenario.steps}-step scenario"
            )
    # Builds every per-step lattice: catches duplicate ids, dimension
    # mismatches, error-model gaps, and non-finite drifted values now.
    lattices = lattices_by_step(scenario)
    for lattice in lattices:
        for agent_id in lattice.real_ids:
            scenario.error_model.probability_for(agent_id, lattice)
    return lattices


def lattices_by_step(scenario: Scenario) -> list[DominanceLattice]:
    """Lattice at each step after applying the drift program so far.

    Drift is trial-independent, so this sequence is shared by all trials.
    A step with drift events rebuilds the lattice once, after all of them.
    """
    lattice = build(scenario.schema, scenario.agents)
    vectors = dict(scenario.agents)
    result: list[DominanceLattice] = []
    events_by_step: dict[int, list[DriftEvent]] = {}
    for event in scenario.drift:
        events_by_step.setdefault(event.step, []).append(event)
    for step in range(scenario.steps):
        changed: dict[str, list[float]] = {}
        for event in events_by_step.get(step, ()):
            values = changed.setdefault(event.agent, list(vectors[event.agent].values))
            idx = scenario.schema.index_of(event.feature)
            if event.value is not None:
                values[idx] = event.value
            else:
                values[idx] = values[idx] + (event.delta or 0.0)
        for agent_id, values in changed.items():
            try:
                vectors[agent_id] = FeatureVector(tuple(values))
            except ValidationError as exc:
                raise ValidationError(
                    f"drift drives agent {agent_id!r} non-finite at step {step}: {exc}"
                ) from exc
        if changed:
            lattice = build(scenario.schema, tuple(vectors.items()))
        result.append(lattice)
    return result


@dataclass(frozen=True)
class TraceRecord:
    """One rule's outcomes for one (trial, step), all propositions nested."""

    trial: int
    step: int
    rule: str
    lattice_digest: str
    raw: Mapping[str, Mapping[str, bool]]
    propagated: Mapping[str, Mapping[str, bool]]
    contributors: Mapping[str, Mapping[str, tuple[str, ...]]]
    tie_broken: Mapping[str, Mapping[str, bool]]

    def to_dict(self) -> dict:
        return {
            "trial": self.trial,
            "step": self.step,
            "rule": self.rule,
            "lattice_digest": self.lattice_digest,
            "raw": {p: dict(m) for p, m in self.raw.items()},
            "propagated": {p: dict(m) for p, m in self.propagated.items()},
            "contributors": {
                p: {a: list(c) for a, c in m.items()} for p, m in self.contributors.items()
            },
            "tie_broken": {p: dict(m) for p, m in self.tie_broken.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceRecord":
        return cls(
            trial=data["trial"],
            step=data["step"],
            rule=data["rule"],
            lattice_digest=data["lattice_digest"],
            raw=data["raw"],
            propagated=data["propagated"],
            contributors={
                p: {a: tuple(c) for a, c in m.items()}
                for p, m in data["contributors"].items()
            },
            tie_broken=data["tie_broken"],
        )


@dataclass(frozen=True)
class Trace:
    records: tuple[TraceRecord, ...]


def trace_to_jsonl(trace: Trace) -> str:
    lines = [json.dumps(r.to_dict(), separators=(",", ":")) for r in trace.records]
    return "\n".join(lines) + ("\n" if lines else "")


def trace_from_jsonl(text: str) -> Trace:
    records = tuple(
        TraceRecord.from_dict(json.loads(line)) for line in text.splitlines() if line.strip()
    )
    return Trace(records)


@dataclass(frozen=True)
class RuleMetrics:
    rule: str
    accuracy: float
    ci_low: float
    ci_high: float
    tie_rate: float
    outcomes: int


@dataclass(frozen=True)
class Metrics:
    rules: Mapping[str, RuleMetrics]
    agent_accuracy: Mapping[str, float]
    contradiction_rates: Mapping[str, float]
    trials: int
    steps: int

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "steps": self.steps,
            "rules": {
                name: {
                    "accuracy": rm.accuracy,
                    "ci_low": rm.ci_low,
                    "ci_high": rm.ci_high,
                    "tie_rate": rm.tie_rate,
                    "outcomes": rm.outcomes,
                }
                for name, rm in self.rules.items()
            },
            "agent_accuracy": dict(sorted(self.agent_accuracy.items())),
            "contradiction_rates": dict(self.contradiction_rates),
        }

    def to_csv(self) -> str:
        lines = ["rule,accuracy,ci_low,ci_high,tie_rate,trials,steps"]
        for name, rm in self.rules.items():
            lines.append(
                f"{name},{rm.accuracy!r},{rm.ci_low!r},{rm.ci_high!r},"
                f"{rm.tie_rate!r},{self.trials},{self.steps}"
            )
        return "\n".join(lines) + "\n"


def _binomial_halfwidth(p: float, n: int) -> float:
    return _Z95 * math.sqrt(p * (1.0 - p) / n) if n else 0.0


def compile_voters(
    rule: Rule, lattice: DominanceLattice, topology: Topology, step: int
) -> dict[str, tuple[str, ...]]:
    """Each receiver's sorted voters under `rule` at `step`, in lattice order.

    Voters never depend on beliefs, so they are read from apply_rule's
    contributors over a placeholder profile.
    """
    placeholder = BeliefProfile(step, "", {a: Belief(a, "", False) for a in lattice.real_ids})
    result = apply_rule(rule, lattice, placeholder, topology)
    return {a: tuple(sorted(result.contributors[a])) for a in lattice.real_ids}


def _compile(scenario: Scenario, lattices: Sequence[DominanceLattice]) -> list[tuple]:
    """Per step: the lattice, its digest and each rule's (name, voters)."""
    return [
        (
            lattice,
            lattice.digest(),
            [(r.name, compile_voters(r, lattice, scenario.topology, step)) for r in scenario.rules],
        )
        for step, lattice in enumerate(lattices)
    ]


def _run_trial(scenario: Scenario, trial: int, plans: Sequence[tuple]) -> list[TraceRecord]:
    records: list[TraceRecord] = []
    for step, (lattice, digest, rules) in enumerate(plans):
        raw: dict[str, dict[str, bool]] = {}
        for prop in scenario.propositions:
            schedule = scenario.ground_truth[prop.id]
            observed = raw[prop.id] = {}
            for agent_id in lattice.real_ids:
                stream = RandomStream(scenario.seed, trial, agent_id, step, prop.id)
                belief = observe(agent_id, schedule, scenario.error_model, stream, step, lattice)
                observed[agent_id] = belief.value
        for rule_name, voters in rules:
            propagated: dict[str, dict[str, bool]] = {}
            ties: dict[str, dict[str, bool]] = {}
            for prop_id, values in raw.items():
                prop_out = propagated[prop_id] = {}
                prop_ties = ties[prop_id] = {}
                for receiver, receiver_voters in voters.items():
                    prop_out[receiver], prop_ties[receiver] = _vote(
                        receiver_voters, values.__getitem__, values[receiver]
                    )
            contributors = dict.fromkeys(raw, voters)
            records.append(
                TraceRecord(trial, step, rule_name, digest, raw, propagated, contributors, ties)
            )
    return records


def run(scenario: Scenario, jobs: int = 1) -> tuple[Trace, Metrics]:
    """Execute every trial and aggregate metrics.

    Trials are independent; with jobs > 1 they run on a thread pool and
    results are merged in trial order, so output is identical for any
    worker count.
    """
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    plans = _compile(scenario, validate_scenario(scenario))

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_trial = list(
                pool.map(lambda t: _run_trial(scenario, t, plans), range(scenario.trials))
            )
    else:
        per_trial = [_run_trial(scenario, t, plans) for t in range(scenario.trials)]
    records = tuple(record for trial_records in per_trial for record in trial_records)
    trace = Trace(records)
    return trace, compute_metrics(trace, scenario)


def compute_metrics(trace: Trace, scenario: Scenario) -> Metrics:
    """Aggregate reliability statistics from a complete trace.

    Pure function of (trace, scenario): re-running it on a persisted trace
    reproduces the original metrics exactly.
    """
    rule_names = [rule.name for rule in scenario.rules]
    expected = {
        (trial, step, name)
        for trial in range(scenario.trials)
        for step in range(scenario.steps)
        for name in rule_names
    }
    seen = {(r.trial, r.step, r.rule) for r in trace.records}
    if seen != expected or len(trace.records) != len(expected):
        raise ValidationError(
            f"incomplete trace: expected {len(expected)} records "
            f"({scenario.trials} trials x {scenario.steps} steps x {len(rule_names)} rules), "
            f"got {len(trace.records)}"
        )

    truth_at = {
        prop.id: [scenario.ground_truth[prop.id].value_at(s) for s in range(scenario.steps)]
        for prop in scenario.propositions
    }

    correct: dict[str, int] = {name: 0 for name in rule_names}
    ties: dict[str, int] = {name: 0 for name in rule_names}
    outcomes: dict[str, int] = {name: 0 for name in rule_names}
    agent_correct: dict[str, int] = {}
    agent_total: dict[str, int] = {}
    pair_diff: dict[tuple[str, str], int] = {}
    pair_total: dict[tuple[str, str], int] = {}
    # propagated values per (trial, step, prop) across rules, for pair rates
    by_point: dict[tuple[int, int], dict[str, Mapping[str, Mapping[str, bool]]]] = {}

    for record in trace.records:
        by_point.setdefault((record.trial, record.step), {})[record.rule] = record.propagated
        unknown = (record.raw.keys() | record.propagated.keys()) - truth_at.keys()
        if unknown:
            raise ValidationError(
                f"trace record (trial {record.trial}, step {record.step}, rule {record.rule!r}) "
                f"names proposition {min(unknown)!r}, which the scenario lacks"
            )
        for prop_id, prop_raw in record.raw.items():
            truth = truth_at[prop_id][record.step]
            for agent_id, value in prop_raw.items():
                if record.rule == rule_names[0]:  # raw beliefs repeat per rule; count once
                    agent_total[agent_id] = agent_total.get(agent_id, 0) + 1
                    if value == truth:
                        agent_correct[agent_id] = agent_correct.get(agent_id, 0) + 1
        for prop_id, prop_out in record.propagated.items():
            truth = truth_at[prop_id][record.step]
            for agent_id, value in prop_out.items():
                outcomes[record.rule] += 1
                if value == truth:
                    correct[record.rule] += 1
                if record.tie_broken[prop_id][agent_id]:
                    ties[record.rule] += 1

    for point_results in by_point.values():
        for i, left in enumerate(rule_names):
            for right in rule_names[i + 1 :]:
                for prop_id in point_results[left]:
                    for agent_id, left_value in point_results[left][prop_id].items():
                        key = (left, right)
                        pair_total[key] = pair_total.get(key, 0) + 1
                        if left_value != point_results[right][prop_id][agent_id]:
                            pair_diff[key] = pair_diff.get(key, 0) + 1

    rule_metrics = {}
    for name in rule_names:
        n = outcomes[name]
        acc = correct[name] / n
        hw = _binomial_halfwidth(acc, n)
        rule_metrics[name] = RuleMetrics(
            rule=name,
            accuracy=acc,
            ci_low=max(0.0, acc - hw),
            ci_high=min(1.0, acc + hw),
            tie_rate=ties[name] / n,
            outcomes=n,
        )
    agent_accuracy = {a: agent_correct.get(a, 0) / agent_total[a] for a in agent_total}
    contradiction_rates = {
        f"{left}|{right}": pair_diff.get((left, right), 0) / pair_total[(left, right)]
        for i, left in enumerate(rule_names)
        for right in rule_names[i + 1 :]
    }
    return Metrics(rule_metrics, agent_accuracy, contradiction_rates, scenario.trials, scenario.steps)


def build_intersection_scenario() -> Scenario:
    """Default example: four vehicles watching a crossing pedestrian.

    Quality features are distance and perception angle (smaller is better
    for both). s1 is best in both features, s4 worst in both, s2 and s3
    trade one feature for the other so neither dominates.
    """
    schema = FeatureSchema(
        (
            Feature("distance", Direction.SMALLER_IS_BETTER, "m"),
            Feature("perception_angle", Direction.SMALLER_IS_BETTER, "deg"),
        )
    )
    agents = (
        ("s1", FeatureVector((1.0, 1.0))),
        ("s2", FeatureVector((3.0, 2.0))),
        ("s3", FeatureVector((2.0, 3.0))),
        ("s4", FeatureVector((4.0, 4.0))),
    )
    proposition = Proposition("pedestrian", "a pedestrian has been detected")
    return Scenario(
        schema=schema,
        agents=agents,
        propositions=(proposition,),
        ground_truth={"pedestrian": GroundTruthSchedule.constant("pedestrian", True)},
        error_model=ErrorModel.quality_mapped(0.05, 0.35),
        topology=Topology.full_broadcast(),
        rules=(MOST_EXPERT, MAJORITY, Rule(RuleKind.SUBGROUP_EXPERT, depth=1)),
        steps=3,
        trials=2000,
        seed=42,
        name="smart-intersection",
    )
