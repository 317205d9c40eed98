"""Belief-propagation rules: most-expert, majority, and expert sub-groups.

Every rule works the same way underneath: it picks a set of voters (the
contributors) from the dominance lattice, the sharing topology and the
receiver, then takes a majority vote over the voters' beliefs. The voter
set never depends on beliefs, so the simulator compiles it once per
(step, rule) from :func:`apply_rule` and votes every trial over it with
the same :func:`_vote`.

Tie policy, shared by all rules: on an exact vote tie the receiver
retains its own prior belief and the outcome is flagged tie_broken.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Collection, Iterable, Mapping, NamedTuple, Sequence

from .beliefs import BeliefProfile, Topology, visible_profile
from .errors import UnknownAgentError, ValidationError
from .lattice import DominanceLattice


class RuleKind(Enum):
    MOST_EXPERT = "most-expert"
    MAJORITY = "majority"
    SUBGROUP_EXPERT = "subgroup"


@dataclass(frozen=True)
class Rule:
    """A named aggregation procedure; depth/include_self apply to sub-group rules."""

    kind: RuleKind
    depth: int = 1
    include_self: bool = False

    def __post_init__(self) -> None:
        if self.kind is RuleKind.SUBGROUP_EXPERT and self.depth < 1:
            raise ValidationError(f"subgroup rule depth must be >= 1, got {self.depth}")

    @property
    def name(self) -> str:
        if self.kind is RuleKind.SUBGROUP_EXPERT:
            suffix = ",self" if self.include_self else ""
            return f"subgroup:d={self.depth}{suffix}"
        return self.kind.value


MOST_EXPERT = Rule(RuleKind.MOST_EXPERT)
MAJORITY = Rule(RuleKind.MAJORITY)

_SUBGROUP_RE = re.compile(r"^subgroup:d=(\d+)(,self)?$")


def parse_rule(text: str) -> Rule:
    """Parse a rule name: most-expert | majority | subgroup:d=<n>[,self]."""
    if text == "most-expert":
        return MOST_EXPERT
    if text == "majority":
        return MAJORITY
    match = _SUBGROUP_RE.match(text)
    if match:
        return Rule(RuleKind.SUBGROUP_EXPERT, int(match.group(1)), bool(match.group(2)))
    raise ValidationError(
        f"unknown rule {text!r}; expected most-expert, majority, or subgroup:d=<n>[,self]"
    )


class ReceiverOutcome(NamedTuple):
    value: bool
    contributors: frozenset[str]
    tie_broken: bool


def _vote(voters: Collection[str], value_of: Callable[[str], bool], own: bool) -> tuple[bool, bool]:
    """(value, tie_broken) of the voters' majority; an exact tie falls back to `own`."""
    twice_ayes = 2 * sum(map(value_of, voters))
    if twice_ayes == len(voters):
        return own, True
    return twice_ayes > len(voters), False


def apply_most_expert(
    lattice: DominanceLattice,
    profile: BeliefProfile,
    topology: Topology,
    receiver: str,
) -> ReceiverOutcome:
    """Adopt the belief of the most expert visible agent.

    The "most expert" is the maximal frontier of the receiver's visible
    set (receiver included). The frontier votes by majority, so a
    singleton frontier propagates directly, overriding the receiver's own
    belief.
    """
    if receiver not in profile.beliefs:
        raise UnknownAgentError(f"unknown receiver {receiver!r}")
    visible = topology.visible(receiver, profile.agents)
    frontier = lattice.maximal_frontier(visible)
    value, tie = _vote(frontier, profile.value_of, profile.value_of(receiver))
    return ReceiverOutcome(value, frozenset(frontier), tie)


def apply_majority(profile_visible: BeliefProfile, receiver: str) -> ReceiverOutcome:
    """Adopt the belief held by strictly more than half of the visible agents.

    The receiver's own belief counts as one vote like any other.
    """
    if receiver not in profile_visible.beliefs:
        raise UnknownAgentError(f"unknown receiver {receiver!r}")
    voters = profile_visible.agents
    value, tie = _vote(voters, profile_visible.value_of, profile_visible.value_of(receiver))
    return ReceiverOutcome(value, voters, tie)


def expert_layers(
    lattice: DominanceLattice, experts: Iterable[str], depth: int
) -> list[set[str]]:
    """Successive maximal frontiers of an expert set, best layer first."""
    remaining = set(experts)
    layers: list[set[str]] = []
    while remaining and len(layers) < depth:
        layer = lattice.maximal_frontier(remaining)
        layers.append(layer)
        remaining -= layer
    return layers


def apply_subgroup_expert(
    lattice: DominanceLattice,
    profile: BeliefProfile,
    topology: Topology,
    receiver: str,
    depth: int,
    include_self: bool,
) -> ReceiverOutcome:
    """Majority vote over the first `depth` expert layers above the receiver.

    Layer 1 is the maximal frontier of the receiver's visible experts,
    layer 2 the frontier of the remainder, and so on. The receiver joins
    the vote iff include_self is set; with no visible experts the receiver
    is the only voter, so the result is its own belief.
    """
    if depth < 1:
        raise ValidationError(f"depth must be >= 1, got {depth}")
    if receiver not in profile.beliefs:
        raise UnknownAgentError(f"unknown receiver {receiver!r}")
    visible = topology.visible(receiver, profile.agents)
    experts = lattice.experts_of(receiver) & visible
    contributors: set[str] = set()
    for layer in expert_layers(lattice, experts, depth):
        contributors |= layer
    if include_self or not experts:
        contributors.add(receiver)
    value, tie = _vote(contributors, profile.value_of, profile.value_of(receiver))
    return ReceiverOutcome(value, frozenset(contributors), tie)


@dataclass(frozen=True)
class PropagationResult:
    """Per-receiver outcome of applying one rule to one belief profile."""

    rule: Rule
    proposition: str
    step: int
    propagated: Mapping[str, bool]
    contributors: Mapping[str, frozenset[str]]
    tie_broken: Mapping[str, bool]


def apply_rule(
    rule: Rule,
    lattice: DominanceLattice,
    profile: BeliefProfile,
    topology: Topology,
) -> PropagationResult:
    """Evaluate a rule for every agent in the lattice as receiver."""
    propagated: dict[str, bool] = {}
    contributors: dict[str, frozenset[str]] = {}
    ties: dict[str, bool] = {}
    for receiver in lattice.real_ids:
        if rule.kind is RuleKind.MOST_EXPERT:
            outcome = apply_most_expert(lattice, profile, topology, receiver)
        elif rule.kind is RuleKind.MAJORITY:
            outcome = apply_majority(visible_profile(profile, topology, receiver), receiver)
        else:
            outcome = apply_subgroup_expert(
                lattice, profile, topology, receiver, rule.depth, rule.include_self
            )
        propagated[receiver] = outcome.value
        contributors[receiver] = outcome.contributors
        ties[receiver] = outcome.tie_broken
    return PropagationResult(rule, profile.proposition, profile.step, propagated, contributors, ties)


@dataclass(frozen=True)
class ConsistencyReport:
    """Cross-rule contradictions per receiver; recorded, never resolved."""

    proposition: str
    step: int
    contradictions: Mapping[str, tuple[tuple[str, str], ...]]
    results: Mapping[str, PropagationResult] = field(repr=False, default_factory=dict)

    @property
    def has_contradictions(self) -> bool:
        return any(self.contradictions.values())

    @property
    def receivers_with_contradictions(self) -> set[str]:
        return {r for r, pairs in self.contradictions.items() if pairs}


def check_consistency(
    rules: Sequence[Rule],
    lattice: DominanceLattice,
    profile: BeliefProfile,
    topology: Topology,
) -> ConsistencyReport:
    """Apply every rule and flag receivers whose propagated beliefs disagree."""
    if len(rules) < 2:
        raise ValidationError("consistency check requires at least two rules")
    results = {rule.name: apply_rule(rule, lattice, profile, topology) for rule in rules}
    names = [rule.name for rule in rules]
    contradictions: dict[str, tuple[tuple[str, str], ...]] = {}
    for receiver in lattice.real_ids:
        pairs = []
        for i, left in enumerate(names):
            for right in names[i + 1 :]:
                if results[left].propagated[receiver] != results[right].propagated[receiver]:
                    pairs.append((left, right))
        contradictions[receiver] = tuple(pairs)
    return ConsistencyReport(profile.proposition, profile.step, contradictions, results)


def check_determinism(rule: Rule, scenario, seed: int, repetitions: int) -> bool:
    """True iff repeated runs of the scenario under `rule` yield identical results."""
    from dataclasses import replace

    from .simulator import run, trace_to_jsonl

    if repetitions < 2:
        raise ValidationError("repetitions must be >= 2")
    pinned = replace(scenario, rules=(rule,), seed=seed)
    reference: str | None = None
    for _ in range(repetitions):
        trace, _metrics = run(pinned)
        serialized = trace_to_jsonl(trace)
        if reference is None:
            reference = serialized
        elif serialized != reference:
            return False
    return True
