"""Seeded Monte-Carlo experiments over drifting agent populations.

A scenario fixes the feature schema, initial population, drift program,
propositions with their truth schedules, error model, topology, rules
under test, and (steps, trials, seed). Each trial replays the same drift
program; randomness enters only through observation streams keyed by
(seed, trial, agent, step, proposition), so trials are independent and
the whole run is reproducible bit-for-bit.

A run goes in four parts:

- **Plan.** Before the first trial, the run is compiled once into a vote
  plan: the agents once, in lattice order (drift moves qualities, never
  agents), and per step each agent's error probability and stream key
  tails, each proposition's truth mask, the lattice digest, and each
  rule's voters: :func:`apply_rule`'s contributors over one placeholder
  profile per step, as voters depend only on the lattice, the topology and
  the receiver. Receivers are grouped by voter set, one ``(voters,
  receivers)`` int mask pair per set (bit i is agent i), sharing its
  sorted tuple. The oracle uses these groups too. It holds no trace text.
  Validation builds the lattices once per command, after the CLI's flag
  overrides.
- **Rows.** A trial encodes its stream key head once. Per step and
  proposition, :func:`~beliefsim.beliefs.flip_mask` draws every agent's
  flip, one ``RandomStream.uniform`` call each; XORed with the truth
  mask, that is the raw row. The trial keeps only these raw beliefs, one
  int mask per proposition and step.
  Each step's memo maps a whole raw row to every rule's propagated and
  tie-broken masks, and the trials fill it: a new row costs one popcount
  and one ``rules._majority`` call per group and proposition.
- **Tally.** :func:`run` counts each step's raw rows and tallies them, by
  popcounts, with their memoised outcomes. :func:`compute_metrics`
  validates its scenario, turns a trace's records into the same masks and
  feeds the same tally of integer counts, so both give byte-equal metrics.
- **Lazy records.** The trace that :func:`run` returns keeps the rows
  and reads outcomes from the memo. Its ``records`` build a TraceRecord
  only when indexed or iterated, and :func:`trace_to_jsonl` renders its
  lines straight from the rows, byte for byte what ``TraceRecord.to_dict``
  plus ``json.dumps`` give. The renderer owns the line format and renders
  each (step, raw row)'s lines once, after ``{"trial":N`` (see
  ``_RunRecords.jsonl``). :func:`trace_blocks` cuts the trace into ranges
  of whole trials, about TRACE_BLOCK_BYTES of text each, so ``beliefsim run``
  writes ``trace.jsonl`` block by block and never holds the whole text;
  the whole trace is one range.

Trace records are flat: one per (trial, step, rule), with per-proposition
maps inside. Metrics are a pure function of the trace plus the scenario's
truth schedules; recomputing them from a persisted trace reproduces the
run's numbers exactly.
"""

from __future__ import annotations

import copy
import json
import math
from collections import Counter
from collections.abc import Hashable, Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from itertools import product
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .beliefs import (
    IDENTIFIER,
    Belief,
    BeliefProfile,
    ErrorModel,
    GroundTruthSchedule,
    Proposition,
    Topology,
    flip_mask,
    observe,  # not called here; bench/tracer.py looks up simulator.observe
    stream_head,
    stream_tail,
)
from .errors import ConfigurationError, ValidationError
from .features import Direction, Feature, FeatureSchema, FeatureVector
from .lattice import _JSON_BOOL, DominanceLattice, build
from .rules import MAJORITY, MOST_EXPERT, Rule, RuleKind, _majority, apply_rule

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
    for name, low in (("seed", 0), ("steps", 1), ("trials", 1)):
        value = getattr(scenario, name)
        if type(value) is not int or value < low:  # a bool or float seed keys draws by its text
            raise ValidationError(f"{name}: expected an integer >= {low}, got {value!r}")
    if scenario.seed >= 2**64:
        raise ValidationError(f"seed: must be below 2**64, got {scenario.seed}")
    if not scenario.agents:
        raise ValidationError("scenario needs at least one agent")
    if not scenario.propositions:
        raise ValidationError("scenario needs at least one proposition")
    prop_ids = [p.id for p in scenario.propositions]
    if len(set(prop_ids)) != len(prop_ids):
        raise ValidationError(f"duplicate proposition ids: {prop_ids}")
    for id_ in [agent_id for agent_id, _ in scenario.agents] + prop_ids:
        if not isinstance(id_, str) or not IDENTIFIER.fullmatch(id_):
            raise ValidationError(f"ids must be letters, digits and ._-, got {id_!r}")
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
    stray = sorted(set(scenario.ground_truth) - set(prop_ids), key=str)  # YAML keys may be ints
    if stray:
        raise ValidationError(f"ground_truth.{stray[0]}: not a declared proposition")
    rule_names = [rule.name for rule in scenario.rules]
    if not rule_names:
        raise ValidationError("scenario needs at least one rule")
    if len(set(rule_names)) != len(rule_names):
        raise ValidationError(f"duplicate rules: {rule_names}")

    agent_ids = {agent_id for agent_id, _ in scenario.agents}
    fixed = scenario.error_model.probabilities
    stray = sorted(set(fixed or ()) - agent_ids, key=str)
    if stray:
        raise ValidationError(f"error_model.probabilities.{stray[0]}: not an agent of the scenario")
    missing = sorted(agent_ids - set(fixed)) if fixed is not None else []
    if missing:
        raise ConfigurationError(
            f"error_model.probabilities: agent {missing[0]!r} missing from error model"
        )
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
    # mismatches and non-finite drifted values now.
    return lattices_by_step(scenario)


def lattices_by_step(scenario: Scenario) -> list[DominanceLattice]:
    """Lattice at each step after applying the drift program so far.

    Drift is trial-independent, so this sequence is shared by all trials.
    A step with drift events rebuilds the lattice once, after all of them.
    """
    lattice = build(scenario.schema, scenario.agents)
    vectors = dict(scenario.agents)
    result: list[DominanceLattice] = []
    events_by_step: dict[int, list[tuple[int, DriftEvent]]] = {}
    for i, event in enumerate(scenario.drift):
        events_by_step.setdefault(event.step, []).append((i, event))
    for step in range(scenario.steps):
        changed: dict[str, tuple[int, list[float]]] = {}  # agent -> (its first event, values)
        for i, event in events_by_step.get(step, ()):
            _, values = changed.setdefault(event.agent, (i, list(vectors[event.agent].values)))
            idx = scenario.schema.index_of(event.feature)
            if event.value is not None:
                values[idx] = event.value
            else:
                values[idx] = values[idx] + (event.delta or 0.0)
        for agent_id, (first, values) in changed.items():
            try:
                vectors[agent_id] = FeatureVector(tuple(values))
            except ValidationError as exc:
                raise ValidationError(
                    f"drift[{first}]: drift drives agent {agent_id!r} non-finite at step {step}: {exc}"
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
    """A run's records in (trial, step, rule) order.

    `records` is a read-only sequence: a tuple for a trace built from
    records (for example by :func:`trace_from_jsonl`), or the lazy view
    that :func:`run` returns, which builds a TraceRecord only when one is
    indexed or iterated.
    """

    records: Sequence[TraceRecord]


def _bools(mask: int, n: int) -> Iterator[bool]:
    """Bits 0..n-1 of `mask` as bools, bit 0 first."""
    return map("1".__eq__, f"{mask:0{n}b}"[::-1])


def _template(keys: Sequence[str]) -> str:
    """A '%'-template of a JSON object with these keys, one '%s' per value."""
    return "{" + ",".join(json.dumps(k).replace("%", "%%") + ":%s" for k in keys) + "}"


class _RulePlan(NamedTuple):
    """One rule at one step: its voters."""

    name: str
    # (voters, receivers) per distinct voter set, as masks: bit i is the plan's agent i
    groups: tuple[tuple[int, int], ...]
    contributors: Mapping[str, tuple[str, ...]]  # each receiver's voters by id, in agent order


class _StepPlan(NamedTuple):
    """One step of the vote plan; only `outcomes` changes after it is compiled."""

    digest: str
    error_p: tuple[float, ...]  # per agent
    truth: tuple[int, ...]  # per proposition: every agent's bit if true, else 0
    tails: tuple[tuple[bytes, ...], ...]  # per proposition, each agent's stream_tail
    rules: tuple[_RulePlan, ...]
    # Raw masks -> each rule's (propagated, tie_broken) masks, filled by the
    # trials. Votes depend on nothing else, and small groups repeat raw rows.
    outcomes: dict[tuple[int, ...], tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]


class _Plan(NamedTuple):
    """Everything a run's trials share: compiled once, before the first trial."""

    seed: int
    propositions: tuple[str, ...]
    agents: tuple[str, ...]  # in lattice order, which every step shares
    steps: tuple[_StepPlan, ...]


class _RunRecords(Sequence):
    """The records of a range of a run's trials, kept as raw rows and built on demand.

    A trial's row holds, per step, one raw mask per proposition, bit i set
    when the plan's agent i believes it. The outcomes of every raw row are
    in its step's memo, which holds exactly the run's distinct raw rows.
    `uses` counts the trials that have each (step, raw row); :meth:`jsonl`
    keeps a row's rendered tails while more trials need them. The views that
    :meth:`blocks` returns share the run's rows, these counts and that text.
    """

    def __init__(
        self, plan: _Plan, rows: Sequence[Sequence[tuple[int, ...]]], uses: Counter
    ) -> None:
        self._plan = plan
        self._rows = rows  # per trial of the whole run
        self._trials = range(len(rows))  # the trials of this view
        self._uses = uses  # (step, raw) -> the run's rows of it
        self._tails: dict = {}  # (step, raw) of more than one trial -> each rule's line tail
        self._fixed: list = []  # per step: each rule's fixed text
        self._props_template = _template(plan.propositions)
        self._agents_template = _template(plan.agents)
        self._rules = len(plan.steps[0].rules)
        self._per_trial = len(plan.steps) * self._rules

    def __len__(self) -> int:
        return len(self._trials) * self._per_trial

    def __getitem__(self, index):
        try:
            position = range(len(self))[index]
        except IndexError:
            raise IndexError(f"trace record index {index} out of range") from None
        if isinstance(position, range):
            return tuple(map(self.__getitem__, position))
        at, rest = divmod(position, self._per_trial)
        trial = self._trials[at]
        step, rule = divmod(rest, self._rules)
        step_plan = self._plan.steps[step]
        raw = self._rows[trial][step]
        propagated, ties = step_plan.outcomes[raw][rule]
        rule_plan = step_plan.rules[rule]
        props, agents = self._plan.propositions, self._plan.agents

        def maps(rows):
            return {p: dict(zip(agents, _bools(mask, len(agents)))) for p, mask in zip(props, rows)}

        return TraceRecord(
            trial, step, rule_plan.name, step_plan.digest, maps(raw), maps(propagated),
            {p: dict(rule_plan.contributors) for p in props}, maps(ties),
        )

    def blocks(self) -> Iterator["_RunRecords"]:
        """Views of as many whole trials as TRACE_BLOCK_BYTES of text hold, and at least one."""
        if not self._fixed:
            self._fixed.extend(self._fixed_texts())
        line_maps = 3 * len(self._plan.propositions) * len(self._agents_template)
        trial_bytes = sum(len(h) + len(c) + line_maps for fixed in self._fixed for h, c in fixed)
        size = max(1, TRACE_BLOCK_BYTES // trial_bytes)
        for start in range(0, len(self._trials), size):
            block = copy.copy(self)
            block._trials = self._trials[start : start + size]
            yield block

    def _fixed_texts(self) -> Iterator[list[tuple[str, str]]]:
        """Per step: each rule's (head, contributors) text.

        The record head and the whole ``contributors`` map are fixed for a
        (step, rule); each distinct voter set is rendered as a JSON list once,
        from each agent's id quoted once, as ``json.dumps`` quotes a str.
        """
        plan = self._plan
        quoted = dict(zip(plan.agents, map(encode_basestring_ascii, plan.agents)))
        for step, step_plan in enumerate(plan.steps):
            fixed = []  # per rule: (',"step":...,"raw":', ',"contributors":{...}')
            for rule in step_plan.rules:
                voters = rule.contributors.values()
                as_text = {v: "[" + ",".join(map(quoted.__getitem__, v)) + "]" for v in set(voters)}
                by_receiver = self._agents_template % tuple(map(as_text.__getitem__, voters))
                fixed.append((
                    f',"step":{step},"rule":{json.dumps(rule.name)},'
                    f'"lattice_digest":{json.dumps(step_plan.digest)},"raw":',
                    ',"contributors":'
                    + self._props_template % ((by_receiver,) * len(plan.propositions)),
                ))
            yield fixed

    def _render(self, step: int, raw: tuple[int, ...]) -> tuple[str, ...]:
        """Each rule's line after ``{"trial":N`` for a raw row, which fixes its outcomes."""
        if not self._fixed:
            self._fixed.extend(self._fixed_texts())
        agents_template, n = self._agents_template, len(self._plan.agents)
        outcomes = self._plan.steps[step].outcomes[raw]

        def text(rows) -> str:
            """{proposition: {agent: bool}} as JSON, from one mask per proposition."""
            return self._props_template % tuple(
                agents_template % tuple(map(_JSON_BOOL.__getitem__, _bools(mask, n)))
                for mask in rows
            )

        raw_text = text(raw)
        return tuple(
            f'{head}{raw_text},"propagated":{text(propagated)}'
            f'{contributors},"tie_broken":{text(ties)}}}\n'
            for (head, contributors), (propagated, ties) in zip(self._fixed[step], outcomes)
        )

    def jsonl(self) -> str:
        """These records as trace.jsonl text, rendered from the rows.

        The bytes are what ``TraceRecord.to_dict`` plus ``json.dumps`` give.
        Each line is a trial's ``{"trial":N`` and a tail shared by every
        row equal to its own. Tails are kept only for rows that more than
        one trial has, and dropped when a rendering reaches the last trial,
        so up to then each (step, raw row) is rendered once, whichever
        blocks come first, and a row of one trial is never kept.
        """
        tails, uses = self._tails, self._uses
        parts = []
        for trial in self._trials:
            trial_text = '{"trial":' + str(trial)
            for key in enumerate(self._rows[trial]):  # (step, raw)
                lines = tails.get(key)
                if lines is None:
                    lines = self._render(*key)
                    if uses[key] > 1:
                        tails[key] = lines
                for tail in lines:
                    parts += (trial_text, tail)
        if self._trials[-1] == len(self._rows) - 1:
            # Last trial: the next rendering starts afresh. Freeing the fixed text before the
            # join cut crowd-drift's peak by 1.3 MB, 0.15 MB more than after it.
            self._fixed.clear()
            tails.clear()
        return "".join(parts)


# Bytes of text per block of trace_blocks, at most, unless one trial is larger: 26
# intersection trials a block; a crowd-drift trial (1.3 MB) is its own block.
TRACE_BLOCK_BYTES = 2**16


def trace_blocks(trace: Trace) -> Iterator[Trace]:
    """The trace as consecutive blocks whose ``trace_to_jsonl`` texts join to the whole.

    A trace from :func:`run` comes in blocks of whole trials, numbered as in
    the run (see ``_RunRecords.blocks``); any other trace is one block.
    """
    if isinstance(trace.records, _RunRecords):
        yield from map(Trace, trace.records.blocks())
    else:
        yield trace


def trace_to_jsonl(trace: Trace) -> str:
    """One compact JSON object per record, one record per line.

    A trace from :func:`run`, or a block of one, is rendered straight from
    its rows; any other trace goes through TraceRecord.to_dict, the
    reference format.
    """
    if isinstance(trace.records, _RunRecords):
        return trace.records.jsonl()
    lines = [json.dumps(r.to_dict(), separators=(",", ":")) for r in trace.records]
    return "\n".join(lines) + ("\n" if lines else "")


def trace_from_jsonl(text: str) -> Trace:
    """Parse trace.jsonl text; a bad line raises ValidationError naming its 1-based number."""
    records = []
    for number, line in enumerate(text.split("\n"), start=1):  # as written: "\n" ends a record
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"trace line {number}: not valid JSON ({exc.msg})") from None
        if not isinstance(data, dict):
            raise ValidationError(f"trace line {number}: expected a JSON object")
        try:
            records.append(TraceRecord.from_dict(data))
        except KeyError as exc:
            raise ValidationError(f"trace line {number}: record lacks {exc.args[0]!r}") from None
        except (AttributeError, TypeError) as exc:
            raise ValidationError(f"trace line {number}: malformed record ({exc})") from None
    return Trace(tuple(records))


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
    return _Z95 * math.sqrt(p * (1.0 - p) / n)


def _tally(points: Counter, agents: Sequence[str], scenario: Scenario) -> Metrics:
    """Metrics from a histogram of (step, raw, outcomes) points.

    A point is one (trial, step): the raw beliefs, one mask per proposition
    whose bit i is ``agents[i]``, and per rule in scenario order its
    (propagated, tie_broken) masks. Popcounts count right beliefs (``mask``
    or ``full ^ mask``) and disagreements (``left ^ right``), once per
    distinct point, weighted. The counts are integers and the divisions
    happen last, so the metrics do not depend on the order of the points.
    """
    n = len(agents)
    full = (1 << n) - 1
    names = [rule.name for rule in scenario.rules]
    pairs = [(i, j) for i in range(len(names)) for j in range(i + 1, len(names))]
    truth_at = [
        tuple(scenario.ground_truth[p.id].value_at(step) for p in scenario.propositions)
        for step in range(scenario.steps)
    ]
    agent_correct = [0] * len(agents)
    correct = [0] * len(names)
    ties = [0] * len(names)
    pair_diff = [0] * len(pairs)
    for (step, raw, outcomes), weight in points.items():
        truth = truth_at[step]
        for mask, value in zip(raw, truth):
            right = mask if value else full ^ mask
            for i in range(n):
                if right >> i & 1:
                    agent_correct[i] += weight
        for r, (propagated, tie_broken) in enumerate(outcomes):
            for mask, value in zip(propagated, truth):
                correct[r] += weight * (mask if value else full ^ mask).bit_count()
            for mask in tie_broken:
                ties[r] += weight * mask.bit_count()
        for k, (i, j) in enumerate(pairs):
            for left, right in zip(outcomes[i][0], outcomes[j][0]):
                pair_diff[k] += weight * (left ^ right).bit_count()

    agent_total = points.total() * len(scenario.propositions)
    total = agent_total * n  # outcomes per rule, and per pair of rules
    rule_metrics = {}
    for r, name in enumerate(names):
        acc = correct[r] / total
        hw = _binomial_halfwidth(acc, total)
        rule_metrics[name] = RuleMetrics(
            rule=name,
            accuracy=acc,
            ci_low=max(0.0, acc - hw),
            ci_high=min(1.0, acc + hw),
            tie_rate=ties[r] / total,
            outcomes=total,
        )
    agent_accuracy = {a: c / agent_total for a, c in zip(agents, agent_correct)}
    contradiction_rates = {
        f"{names[i]}|{names[j]}": diff / total for (i, j), diff in zip(pairs, pair_diff)
    }
    return Metrics(rule_metrics, agent_accuracy, contradiction_rates, scenario.trials, scenario.steps)


def _compile(scenario: Scenario, lattices: Sequence[DominanceLattice]) -> _Plan:
    """The vote plan: agents, and per step error probabilities, truth, key tails, voters."""
    props = tuple(p.id for p in scenario.propositions)
    agents = lattices[0].real_ids  # drift moves qualities, never agents
    everyone = (1 << len(agents)) - 1
    beliefs = {a: Belief(a, "", False) for a in agents}
    steps = []
    for step, lattice in enumerate(lattices):
        # Voters never depend on beliefs: apply_rule's contributors over any profile give them.
        # One per step: the benchmark keys receiver evaluations by profile.step.
        placeholder = BeliefProfile(step, "", beliefs)
        rules = []
        for rule in scenario.rules:
            contributors = apply_rule(rule, lattice, placeholder, scenario.topology).contributors
            # Receivers often share a voter set (under full broadcast, every receiver
            # of majority or most-expert does): each distinct set is one group.
            receivers: dict[frozenset[str], int] = {}  # voter set -> its receivers' mask
            for i, a in enumerate(agents):
                receivers[contributors[a]] = receivers.get(contributors[a], 0) | (1 << i)
            ordered = {voters: tuple(sorted(voters)) for voters in receivers}  # shared per set
            groups = tuple((lattice.mask_of(v), mask) for v, mask in receivers.items())
            rules.append(_RulePlan(rule.name, groups, {a: ordered[contributors[a]] for a in agents}))
        steps.append(
            _StepPlan(
                lattice.digest(),
                tuple(scenario.error_model.probability_for(a, lattice) for a in agents),
                tuple(everyone if scenario.ground_truth[p].value_at(step) else 0 for p in props),
                tuple(tuple(stream_tail(a, step, p) for a in agents) for p in props),
                tuple(rules),
                {},
            )
        )
    return _Plan(scenario.seed, props, agents, tuple(steps))


def _vote_rows(step: _StepPlan, raw: tuple[int, ...]) -> tuple[tuple[tuple, tuple], ...]:
    """Each rule's (propagated, tie_broken) masks over a step's raw masks.

    Per group and proposition: one popcount of the voters' true beliefs,
    then one :func:`_majority` call, whose tie hands each of the group's
    receivers its own raw belief.
    """
    outcomes = []
    for rule in step.rules:
        rows = []
        for yes in raw:
            values = ties = 0
            for voters, receivers in rule.groups:
                value, tie = _majority((yes & voters).bit_count(), voters.bit_count(), yes & receivers)
                if tie:
                    values |= value
                    ties |= receivers
                elif value:
                    values |= receivers
            rows.append((values, ties))
        outcomes.append(tuple(zip(*rows)))  # (propagated, tie_broken)
    return tuple(outcomes)


def _run_trial(plan: _Plan, trial: int) -> tuple[tuple[int, ...], ...]:
    """Draw every belief of one trial; each step's memo gets the votes of a new raw row.

    A raw mask is the truth mask with the :func:`flip_mask` of the trial's
    head and the plan's tails XORed in.
    """
    head = stream_head(plan.seed, trial)
    rows = []
    for step_plan in plan.steps:
        raw = tuple(
            truth ^ flip_mask(head, tails, step_plan.error_p)
            for tails, truth in zip(step_plan.tails, step_plan.truth)
        )
        if raw not in step_plan.outcomes:
            step_plan.outcomes[raw] = _vote_rows(step_plan, raw)
        rows.append(raw)
    return tuple(rows)


def run(scenario: Scenario) -> tuple[Trace, Metrics]:
    """Execute every trial in order and aggregate metrics.

    Metrics come from the same tally of the trials' rows that
    :func:`compute_metrics` feeds from a trace's records. The rows are
    counted by (step, raw); the step's memo gives each point's outcomes.
    """
    plan = _compile(scenario, validate_scenario(scenario))
    rows = [_run_trial(plan, trial) for trial in range(scenario.trials)]
    seen = Counter((step, raw) for row in rows for step, raw in enumerate(row))
    points = Counter({(s, raw, plan.steps[s].outcomes[raw]): n for (s, raw), n in seen.items()})
    return Trace(_RunRecords(plan, rows, seen)), _tally(points, plan.agents, scenario)


def check_determinism(rule: Rule, scenario: Scenario, seed: int, repetitions: int) -> bool:
    """True iff repeated runs of the scenario under `rule` yield identical results."""
    if repetitions < 2:
        raise ValidationError("repetitions must be >= 2")
    pinned = replace(scenario, rules=(rule,), seed=seed)
    return len({trace_to_jsonl(run(pinned)[0]) for _ in range(repetitions)}) == 1


def _named(trial, step, rule) -> str:
    return f"(trial {trial!r}, step {step!r}, rule {rule!r})"


def _bool_rows(maps, field: str, props: Sequence[str], agents: Sequence[str]):
    """A record's `field` maps as one mask per proposition, bit i for `agents[i]`.

    Any other shape or value raises a ValidationError; the caller names the record.
    """
    if not isinstance(maps, Mapping) or not all(isinstance(m, Mapping) for m in maps.values()):
        raise ValidationError(f"has a malformed {field}: expected maps of agent to bool")
    unknown = maps.keys() - set(props)
    if unknown:
        raise ValidationError(f"names proposition {min(unknown)!r}, which the scenario lacks")
    try:
        rows = tuple(tuple(maps[p][a] for a in agents) for p in props)
    except KeyError as exc:
        raise ValidationError(f"has no {field} value for {exc.args[0]!r}") from None
    if any(len(maps[p]) != len(agents) for p in props):
        raise ValidationError(f"has {field} values for agents the scenario lacks")
    odd = [value for row in rows for value in row if type(value) is not bool]
    if odd:
        raise ValidationError(f"has {field} value {odd[0]!r}, not true or false")
    return tuple(sum(1 << i for i, value in enumerate(row) if value) for row in rows)


def compute_metrics(trace: Trace, scenario: Scenario) -> Metrics:
    """Aggregate reliability statistics from a complete trace.

    Pure function of (trace, scenario): re-running it on a persisted trace
    reproduces the original metrics exactly. It validates the scenario, then
    groups records by (trial, step), as masks in lattice order, for the tally
    that :func:`run` feeds. It keeps one slot per key seen, and looks for the
    first missing key only when the trace is incomplete.
    """
    agents = validate_scenario(scenario)[0].real_ids
    rule_names = [rule.name for rule in scenario.rules]
    trials, steps = range(scenario.trials), range(scenario.steps)
    props = [prop.id for prop in scenario.propositions]

    # One pass over the records, which a lazy trace builds as it goes. A list
    # or map key raises at once; a bad row only once the keys are all known.
    unexpected = bad_row = None
    by_point: dict = {}  # (trial, step) -> {rule name: its rows, or None if bad}
    for record in trace.records:
        trial, step, rule = key = (record.trial, record.step, record.rule)
        if not all(isinstance(part, Hashable) for part in key):
            raise ValidationError(f"trace record {_named(*key)} has a list or map as a key")
        ints = type(trial) is int and type(step) is int  # True == 1.0 == 1, so types count
        if not (ints and trial in trials and step in steps and rule in rule_names):
            unexpected = unexpected or key
            continue
        try:
            rows = tuple(
                _bool_rows(getattr(record, field), field, props, agents)
                for field in ("raw", "propagated", "tie_broken")
            )
        except ValidationError as exc:
            rows, bad_row = None, bad_row or ValidationError(f"trace record {_named(*key)} {exc}")
        by_point.setdefault((trial, step), {})[rule] = rows

    expected = len(trials) * len(steps) * len(rule_names)
    if len(trace.records) != expected or sum(map(len, by_point.values())) != expected:
        missing = next(
            (key for key in product(trials, steps, rule_names)
             if key[2] not in by_point.get(key[:2], ())),
            None,
        )
        raise ValidationError(
            f"incomplete trace: expected {expected} records "
            f"({scenario.trials} trials x {scenario.steps} steps x {len(rule_names)} rules), "
            f"got {len(trace.records)}"
            + (f"; first missing {_named(*missing)}" if missing else "")
            + (f"; first unexpected {_named(*unexpected)}" if unexpected else "")
        )
    if bad_row is not None:
        raise bad_row

    points: Counter = Counter()
    for (trial, step), slots in by_point.items():
        rows = [slots[name] for name in rule_names]
        # raw beliefs repeat per rule; count them once, from the first rule
        raw = rows[0][0]
        for name, rule_rows in zip(rule_names, rows):
            if rule_rows[0] != raw:
                raise ValidationError(
                    f"trace records {_named(trial, step, rule_names[0])} and "
                    f"{_named(trial, step, name)} disagree on raw"
                )
        points[step, raw, tuple(rule_rows[1:] for rule_rows in rows)] += 1
    return _tally(points, agents, scenario)


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
