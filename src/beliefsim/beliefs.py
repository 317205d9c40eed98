"""Propositions, noisy observation, and the sharing topology.

Each agent forms one boolean belief per proposition per step by observing
ground truth through an error model: with probability p the observed value
is flipped. Randomness is counter-based - every draw is a keyed hash of
(seed, trial, agent, step, proposition, counter) - so observations for
distinct agents, steps, and trials are independent streams, and any one
draw can be replayed from its key alone.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping

from .errors import ConfigurationError, UnknownAgentError, ValidationError
from .lattice import DominanceLattice

# validate_scenario holds agent and proposition ids to this, so none holds _KEY_SEP.
IDENTIFIER = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]*")
_KEY_SEP = "\x1f"


@dataclass(frozen=True)
class Proposition:
    """A predicate about the environment, e.g. "an object has been detected"."""

    id: str
    statement: str = ""

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("proposition id must be non-empty")


@dataclass(frozen=True)
class Belief:
    """One agent's truth assignment to one proposition."""

    agent: str
    proposition: str
    value: bool


@dataclass(frozen=True)
class BeliefProfile:
    """All agents' beliefs for one proposition at one step."""

    step: int
    proposition: str
    beliefs: Mapping[str, Belief]

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValidationError("step must be non-negative")
        for agent_id, belief in self.beliefs.items():
            if belief.agent != agent_id or belief.proposition != self.proposition:
                raise ValidationError(
                    f"belief for {agent_id!r} does not match profile keys"
                )

    @cached_property
    def agents(self) -> frozenset[str]:
        return frozenset(self.beliefs)

    @cached_property
    def values(self) -> dict[str, bool]:
        """Each agent's belief value, by agent id."""
        return {agent_id: belief.value for agent_id, belief in self.beliefs.items()}

    @cached_property
    def ayes(self) -> int:  # how many agents believe the proposition
        return sum(self.values.values())

    def value_of(self, agent_id: str) -> bool:
        try:
            return self.beliefs[agent_id].value
        except KeyError:
            raise UnknownAgentError(f"no belief for agent {agent_id!r}") from None

    def restrict(self, agents: Iterable[str]) -> "BeliefProfile":
        keep = frozenset(agents)  # no copy of a frozenset
        if keep is self.agents or keep >= self.agents:
            return self
        return BeliefProfile(
            self.step,
            self.proposition,
            {a: b for a, b in self.beliefs.items() if a in keep},
        )


@dataclass(frozen=True)
class GroundTruthSchedule:
    """Per-step truth value of a proposition; piecewise-constant entries."""

    proposition: str
    entries: tuple[tuple[int, bool], ...]  # (from_step, value), ascending, first at 0

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValidationError("ground truth schedule must have at least one entry")
        if self.entries[0][0] != 0:
            raise ValidationError("ground truth schedule must start at step 0")
        steps = [s for s, _ in self.entries]
        if steps != sorted(set(steps)):
            raise ValidationError("ground truth entries must have strictly increasing steps")

    @classmethod
    def constant(cls, proposition: str, value: bool) -> "GroundTruthSchedule":
        return cls(proposition, ((0, value),))

    def value_at(self, step: int) -> bool:
        value = self.entries[0][1]
        for from_step, entry_value in self.entries:
            if from_step > step:
                break
            value = entry_value
        return value


class TopologyMode(Enum):
    FULL_BROADCAST = "full_broadcast"
    GRAPH = "graph"


@dataclass(frozen=True)
class Topology:
    """Who receives beliefs from whom; adjacency maps receiver -> sources."""

    mode: TopologyMode
    adjacency: Mapping[str, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def full_broadcast(cls) -> "Topology":
        return cls(TopologyMode.FULL_BROADCAST)

    @classmethod
    def graph(cls, adjacency: Mapping[str, Iterable[str]]) -> "Topology":
        return cls(
            TopologyMode.GRAPH,
            {receiver: frozenset(sources) for receiver, sources in adjacency.items()},
        )

    def validate_against(self, population: Iterable[str]) -> None:
        known = set(population)
        for receiver, sources in self.adjacency.items():
            if receiver not in known:
                raise ValidationError(f"topology.adjacency.{receiver}: unknown agent")
            unknown = sorted(sources - known, key=str)  # set order varies with the hash seed
            if unknown:
                raise ValidationError(f"topology.adjacency.{receiver}: unknown source {unknown[0]!r}")

    def visible(self, receiver: str, population: Iterable[str]) -> frozenset[str]:
        """Agents whose beliefs the receiver sees: in-neighbors plus itself."""
        if self.mode is TopologyMode.FULL_BROADCAST:
            population = frozenset(population)  # no copy of a frozenset, returned as is
            return population if receiver in population else population | {receiver}
        return self.adjacency.get(receiver, frozenset()) | {receiver}


class ErrorModelKind(Enum):
    PER_AGENT_FIXED = "per_agent_fixed"
    QUALITY_MAPPED = "quality_mapped"


@dataclass(frozen=True)
class ErrorModel:
    """Per-agent observation error probability.

    PER_AGENT_FIXED reads p from an explicit map. QUALITY_MAPPED
    interpolates between p_min and p_max over the agent's normalized
    dominance rank (count of agents dominating it divided by population
    size minus one), so better-placed agents err less and the mapping is
    unit-free.
    """

    kind: ErrorModelKind
    probabilities: Mapping[str, float] | None = None
    p_min: float = 0.0
    p_max: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is ErrorModelKind.PER_AGENT_FIXED:
            if self.probabilities is None:
                raise ValidationError("per-agent error model requires probabilities")
            for agent_id, p in self.probabilities.items():
                if not 0.0 <= p <= 1.0:
                    raise ValidationError(
                        f"error probability for {agent_id!r} must be in [0, 1], got {p}"
                    )
        else:
            if self.probabilities is not None:
                raise ValidationError("quality-mapped error model takes no probabilities")
            if not (0.0 <= self.p_min <= 1.0 and 0.0 <= self.p_max <= 1.0):
                raise ValidationError("p_min and p_max must be in [0, 1]")
            if self.p_min > self.p_max:
                raise ValidationError("p_min must not exceed p_max")

    @classmethod
    def fixed(cls, probabilities: Mapping[str, float]) -> "ErrorModel":
        return cls(ErrorModelKind.PER_AGENT_FIXED, probabilities=dict(probabilities))

    @classmethod
    def quality_mapped(cls, p_min: float, p_max: float) -> "ErrorModel":
        return cls(ErrorModelKind.QUALITY_MAPPED, p_min=p_min, p_max=p_max)

    def probability_for(self, agent_id: str, lattice: DominanceLattice | None = None) -> float:
        if self.kind is ErrorModelKind.PER_AGENT_FIXED:
            assert self.probabilities is not None
            try:
                return self.probabilities[agent_id]
            except KeyError:
                raise ConfigurationError(
                    f"agent {agent_id!r} missing from error model"
                ) from None
        if lattice is None:
            raise ConfigurationError("quality-mapped error model requires a lattice")
        rank_pool = max(1, len(lattice.real_ids) - 1)
        rank = lattice.expert_count(agent_id) / rank_pool
        return self.p_min + (self.p_max - self.p_min) * rank


def stream_head(seed: int, trial: int) -> bytes:
    """The key bytes that every stream of one (seed, trial) starts with."""
    return f"{seed}{_KEY_SEP}{trial}{_KEY_SEP}".encode()


def stream_tail(agent: str, step: int, proposition: str) -> bytes:
    """The key bytes after the head: one (agent, step, proposition), then the separator."""
    return f"{agent}{_KEY_SEP}{step}{_KEY_SEP}{proposition}{_KEY_SEP}".encode()


class RandomStream:
    """Deterministic uniform stream for one (seed, trial, agent, step, proposition).

    Draw i is blake2b(prefix || i) mapped to [0, 1), where the prefix is
    ``stream_head(seed, trial) + stream_tail(agent, step, proposition)``
    and ends in the separator; no state beyond the counter, identical on
    every platform. :meth:`keyed` takes a ready prefix, so a caller that
    draws many streams can build the key parts once.
    """

    __slots__ = ("_prefix", "_counter")

    def __init__(self, seed: int, trial: int, agent: str, step: int, proposition: str) -> None:
        self._prefix = stream_head(seed, trial) + stream_tail(agent, step, proposition)
        self._counter = 0

    @classmethod
    def keyed(cls, prefix: bytes) -> "RandomStream":
        """The stream keyed by `prefix`, ``stream_head(...) + stream_tail(...)``."""
        stream = cls.__new__(cls)
        stream._prefix = prefix
        stream._counter = 0
        return stream

    def uniform(self) -> float:
        digest = hashlib.blake2b(self._prefix + str(self._counter).encode(), digest_size=8).digest()
        self._counter += 1
        return int.from_bytes(digest, "big") / 2**64


def observe(
    agent_id: str,
    truth: GroundTruthSchedule,
    error_model: ErrorModel,
    stream: RandomStream,
    step: int,
    lattice: DominanceLattice | None = None,
) -> Belief:
    """Draw one noisy observation: truth flipped with the agent's error probability."""
    p = error_model.probability_for(agent_id, lattice)
    truth_value = truth.value_at(step)
    flipped = stream.uniform() < p
    return Belief(agent_id, truth.proposition, truth_value != flipped)


def visible_profile(profile: BeliefProfile, topology: Topology, receiver: str) -> BeliefProfile:
    """Restrict a profile to what the receiver sees: in-neighbors plus itself."""
    if receiver not in profile.beliefs:
        raise UnknownAgentError(f"unknown receiver {receiver!r}")
    return profile.restrict(topology.visible(receiver, profile.agents))
