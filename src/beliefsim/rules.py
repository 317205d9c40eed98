"""Belief-propagation rules: most-expert, majority, and expert sub-groups.

Every rule works the same way underneath: it picks a set of voters (the
contributors) from the dominance lattice, the sharing topology and the
receiver, then takes a majority vote over the voters' beliefs. The voter
set never depends on beliefs, so the simulator compiles it once per
(step, rule) from :func:`apply_rule` into groups, a voters mask and the
mask of the receivers that share it, which trials and the oracle vote
over by popcount. Voters come from the lattice's masks and memos, as frozensets
the lattice shares: under full broadcast, most-expert computes one frontier per
step, majority counts one profile's ayes and sub-group takes its layers from the
lattice's global depth layers, not one of each per receiver.

Tie policy, shared by all rules and the simulator and stated once, in
:func:`_majority`: on an exact vote tie the receiver retains its own prior
belief and the outcome is flagged tie_broken.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Collection, Mapping, NamedTuple, Sequence

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
        if type(self.depth) is not int or type(self.include_self) is not bool:  # d=1.5 would not load
            raise ValidationError(
                f"{self.kind.value} rule needs an int depth and a bool include_self, "
                f"got {self.depth!r} and {self.include_self!r}"
            )
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

_SUBGROUP_RE = re.compile(r"subgroup:d=(0|[1-9][0-9]*)(,self)?")  # only what Rule.name prints


def parse_rule(text: str) -> Rule:
    """Parse a rule name: most-expert | majority | subgroup:d=<n>[,self]."""
    if text == "most-expert":
        return MOST_EXPERT
    if text == "majority":
        return MAJORITY
    match = _SUBGROUP_RE.fullmatch(text)
    if match:
        return Rule(RuleKind.SUBGROUP_EXPERT, int(match.group(1)), bool(match.group(2)))
    raise ValidationError(
        f"unknown rule {text!r}; expected most-expert, majority, or subgroup:d=<n>[,self]"
    )


class ReceiverOutcome(NamedTuple):
    value: bool
    contributors: frozenset[str]
    tie_broken: bool


def _majority(ayes: int, voters: int, own: bool | int) -> tuple[bool | int, bool]:
    """(value, tie_broken) of `ayes` true votes among `voters`; a tie falls back to `own`.

    `own` is a belief, or a mask of a group's own beliefs.
    """
    if 2 * ayes == voters:
        return own, True
    return 2 * ayes > voters, False


def _vote(voters: Collection[str], value_of: Callable[[str], bool], own: bool) -> tuple[bool, bool]:
    """(value, tie_broken) of the voters' majority, by :func:`_majority`.

    `value_of` may be a dict's ``__getitem__``: a voter without a belief
    raises the UnknownAgentError that ``BeliefProfile.value_of`` raises.
    """
    try:
        ayes = sum(map(value_of, voters))
    except KeyError as exc:
        raise UnknownAgentError(f"no belief for agent {exc.args[0]!r}") from None
    return _majority(ayes, len(voters), own)


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
    frontier = lattice.frontier_of(topology.visible(receiver, profile.agents))
    value, tie = _vote(frontier, profile.values.__getitem__, profile.value_of(receiver))
    return ReceiverOutcome(value, frontier, tie)


def apply_majority(profile_visible: BeliefProfile, receiver: str) -> ReceiverOutcome:
    """Adopt the belief held by strictly more than half of the visible agents.

    The receiver's own belief counts as one vote like any other.
    """
    if receiver not in profile_visible.beliefs:
        raise UnknownAgentError(f"unknown receiver {receiver!r}")
    voters = profile_visible.agents
    value, tie = _majority(profile_visible.ayes, len(voters), profile_visible.value_of(receiver))
    return ReceiverOutcome(value, voters, tie)


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

    Dominance is transitive, so every dominator of an expert is an expert
    too: when every expert is visible (always, under full broadcast), layer
    k is the receiver's experts at global depth k, read from
    ``lattice.depth_upto`` instead of peeled.
    """
    if type(depth) is not int:  # 1.5 never counts down to 0
        raise ValidationError(f"depth must be an integer, got {depth!r}")
    if depth < 1:
        raise ValidationError(f"depth must be >= 1, got {depth}")
    if receiver not in profile.beliefs:
        raise UnknownAgentError(f"unknown receiver {receiver!r}")
    at = lattice.position(receiver)
    # The visible experts, as a mask: mask_of leaves out ids the lattice lacks.
    remaining = lattice.dominators[at] & lattice.mask_of(topology.visible(receiver, profile.agents))
    voters = 1 << at if include_self or not remaining else 0
    if remaining == lattice.dominators[at]:  # every expert visible
        voters |= remaining & lattice.depth_upto(depth)
    else:
        while remaining and depth:  # peel off one frontier layer per level of depth
            layer = lattice.frontier(remaining)
            voters, remaining, depth = voters | layer, remaining ^ layer, depth - 1
    contributors = lattice.members(voters)
    value, tie = _vote(contributors, profile.values.__getitem__, profile.value_of(receiver))
    return ReceiverOutcome(value, contributors, tie)


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
