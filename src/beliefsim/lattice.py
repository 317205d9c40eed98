"""Dominance lattice over a population of agents.

The population is partially ordered by strict Pareto dominance of quality
vectors and completed with two synthetic bound nodes: a virtual supremum
(``__top__``, componentwise best of all real agents) and a virtual infimum
(``__bottom__``, componentwise worst). Cover edges store the transitive
reduction; the full dominance relation is kept as one int bit mask of
dominators per agent, built by one sorted walk per feature, so expert
queries and frontiers are mask operations. Each instance memoises the mask
of a member set, the frontier of a mask, the ids of a mask, as one shared
frozenset, and the cumulative masks of the global depth layers, so receivers
that see the same agents share one frontier.

Instances are immutable; update/insert/remove return a fresh lattice that
is observationally equal to building from scratch on the new population.

Snapshot format (canonical JSON, byte-stable, also used for digests):

    {
      "format": "dominance-lattice/1",
      "schema": [{"name": ..., "direction": ..., "unit": ...}, ...],
      "nodes": [{"id": ..., "virtual": ..., "quality": [...]}, ...],
      "cover_edges": [[better_id, worse_id], ...]
    }

Node order is ``__bottom__``, ``__top__``, then real ids ascending; edges
are sorted lexicographically. An edge (u, v) between real nodes means u
strictly dominates v with no agent in between; edges touching the virtual
bounds are structural and may connect nodes of equal quality (a real agent
can tie the bound vector).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import groupby
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence

from .errors import UnknownAgentError, ValidationError
from .features import Direction, FeatureSchema, FeatureVector
from .features import compare  # not called here; bench/tracer.py looks up lattice.compare

BOTTOM_ID = "__bottom__"
TOP_ID = "__top__"
_RESERVED = {BOTTOM_ID, TOP_ID}

# json.dumps(indent=2) layout; no list is empty (a feature, a quality, two bounds, an edge).
_SNAPSHOT = '{\n  "format": "dominance-lattice/1",\n  "schema": [\n%s\n  ],\n'
_SNAPSHOT += '  "nodes": [\n%s\n  ],\n  "cover_edges": [\n%s\n  ]\n}'
_FEATURE = '    {\n      "name": %s,\n      "direction": %s,\n      "unit": %s\n    }'
_NODE = '    {\n      "id": %s,\n      "virtual": %s,\n      "quality": [\n        %s\n      ]\n    }'
_EDGE = "    [\n      %s,\n      %s\n    ]"
_JSON_BOOL = ("false", "true")


@dataclass(frozen=True)
class AgentNode:
    id: str
    quality: FeatureVector
    virtual: bool = False


def _iter_bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class DominanceLattice:
    """Partial order of agents under Pareto dominance, with virtual bounds.

    Construct via :func:`build`; do not mutate instances.
    """

    def __init__(
        self,
        schema: FeatureSchema,
        nodes: tuple[AgentNode, ...],
        cover_edges: tuple[tuple[str, str], ...],
        dominators: tuple[int, ...],
    ) -> None:
        self.schema = schema
        self.nodes = nodes
        self.cover_edges = cover_edges
        self._by_id = {node.id: node for node in nodes}
        self._snapshot_cache: str | None = None
        self.real_ids: tuple[str, ...] = tuple(node.id for node in nodes if not node.virtual)
        self._bit = {agent_id: 1 << i for i, agent_id in enumerate(self.real_ids)}
        self.dominators = dominators  # per real id: bit j set <=> real_ids[j] dominates it
        self._masks: dict[frozenset[str], int] = {}  # memos for the lattice's life: set -> mask,
        self._frontiers: dict[int, int] = {}  # mask -> the mask of its frontier,
        self._members: dict[int, frozenset[str]] = {}  # mask -> its ids, one frozenset for all callers,
        self._depths: list[int] = []  # k -> the mask of global depths 1..k, peeled on first use

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DominanceLattice):
            return NotImplemented
        return (
            self.schema == other.schema
            and self.nodes == other.nodes
            and self.cover_edges == other.cover_edges
        )

    def __hash__(self) -> int:
        return hash((self.schema, self.nodes, self.cover_edges))

    def __repr__(self) -> str:
        return f"DominanceLattice({len(self.real_ids)} agents, {len(self.cover_edges)} edges)"

    # -- plain accessors ----------------------------------------------------

    def node(self, agent_id: str) -> AgentNode:
        try:
            return self._by_id[agent_id]
        except KeyError:
            raise UnknownAgentError(f"unknown agent {agent_id!r}") from None

    def quality_of(self, agent_id: str) -> FeatureVector:
        return self.node(agent_id).quality

    def position(self, agent_id: str) -> int:
        """The agent's position in real_ids; unknown ids and virtual bounds raise."""
        node = self.node(agent_id)
        if node.virtual:
            raise UnknownAgentError(f"{agent_id!r} is a virtual bound, not an agent")
        return self._bit[agent_id].bit_length() - 1

    # -- order queries ------------------------------------------------------

    def experts_of(self, agent_id: str) -> set[str]:
        """Real agents whose quality strictly dominates this agent's."""
        return set(self.members(self.dominators[self.position(agent_id)]))

    def less_experts_of(self, agent_id: str) -> set[str]:
        """Real agents whose quality is strictly dominated by this agent's."""
        bit = 1 << self.position(agent_id)
        return {a for a, mask in zip(self.real_ids, self.dominators) if mask & bit}

    def expert_count(self, agent_id: str) -> int:
        """How many real agents strictly dominate this agent."""
        return self.dominators[self.position(agent_id)].bit_count()

    def mask_of(self, among: Iterable[str]) -> int:
        """Bits of the real agents in `among`; other ids are left out. Memoised per set."""
        members = frozenset(among)  # no copy of a frozenset, whose hash is kept
        if members not in self._masks:
            self._masks[members] = sum(self._bit.get(a, 0) for a in members)
        return self._masks[members]

    def frontier(self, mask: int) -> int:
        """The members of a non-empty mask that no other member dominates, as a mask."""
        if mask not in self._frontiers:
            if not mask:
                raise ValidationError("maximal_frontier requires a non-empty subset")
            frontier, rest = 0, mask
            while rest:  # each member, lowest bit first
                low = rest & -rest
                if not self.dominators[low.bit_length() - 1] & mask:
                    frontier |= low
                rest ^= low
            self._frontiers[mask] = frontier
        return self._frontiers[mask]

    def members(self, mask: int) -> frozenset[str]:
        """The ids of a mask, as one frozenset shared by every caller; mask_of maps it back."""
        if mask not in self._members:
            members = frozenset(self.real_ids[i] for i in _iter_bits(mask))
            self._members[mask] = members
            self._masks[members] = mask
        return self._members[mask]

    def depth_upto(self, depth: int) -> int:
        """The agents at global depths 1 to `depth` (>= 0), as a mask; past the last, everyone.

        Depth 1 is the population's frontier, depth k the frontier of what
        depths 1 to k-1 leave.
        """
        if not self._depths:
            upto, rest = [0], (1 << len(self.real_ids)) - 1
            while rest:
                layer = self.frontier(rest)
                upto.append(upto[-1] | layer)
                rest ^= layer
            self._depths = upto
        return self._depths[min(depth, len(self._depths) - 1)]

    def frontier_of(self, among: Iterable[str]) -> frozenset[str]:
        """The shared frontier of `among`; the smallest id that is no real agent raises."""
        members = frozenset(among)
        mask = self.mask_of(members)
        if mask.bit_count() != len(members):
            self.position(min(members - self._bit.keys()))  # raises for that id
        return self.members(self.frontier(mask))

    def maximal_frontier(self, among: Iterable[str]) -> set[str]:
        """Members of `among` not dominated by another member, as a set of the caller's own."""
        return set(self.frontier_of(among))

    # -- mutations (each returns a rebuilt lattice) --------------------------

    def _population(self) -> list[tuple[str, FeatureVector]]:
        return [(node.id, node.quality) for node in self.nodes if not node.virtual]

    def update_quality(self, agent_id: str, new_quality: FeatureVector) -> "DominanceLattice":
        self.position(agent_id)
        population = [
            (aid, new_quality if aid == agent_id else q) for aid, q in self._population()
        ]
        return build(self.schema, population)

    def insert(self, agent_id: str, quality: FeatureVector) -> "DominanceLattice":
        if agent_id in self._by_id:
            raise ValidationError(f"duplicate agent id {agent_id!r}")
        return build(self.schema, self._population() + [(agent_id, quality)])

    def remove(self, agent_id: str) -> "DominanceLattice":
        self.position(agent_id)
        population = [(aid, q) for aid, q in self._population() if aid != agent_id]
        return build(self.schema, population)

    # -- serialization --------------------------------------------------------

    def snapshot_text(self) -> str:
        """The snapshot document as ``json.dumps(doc, indent=2)`` writes it, by templates."""
        if self._snapshot_cache is None:
            text, number = encode_basestring_ascii, float.__repr__  # json.dumps's str and float
            schema = (
                _FEATURE % (text(f.name), text(f.direction.value), text(f.unit)) for f in self.schema.features
            )
            nodes = (
                _NODE % (text(n.id), _JSON_BOOL[n.virtual], ",\n        ".join(map(number, n.quality.values)))
                for n in self.nodes
            )
            edges = (_EDGE % (text(u), text(v)) for u, v in self.cover_edges)
            self._snapshot_cache = _SNAPSHOT % tuple(map(",\n".join, (schema, nodes, edges)))
        return self._snapshot_cache

    def digest(self) -> str:
        return hashlib.sha256(self.snapshot_text().encode("utf-8")).hexdigest()[:16]


def build(
    schema: FeatureSchema, agents: Sequence[tuple[str, FeatureVector]]
) -> DominanceLattice:
    """Build the lattice for a population of (agent id, quality) pairs.

    Construction is deterministic: node and edge ordering depend only on
    the set of agents, never on input order.
    """
    seen: set[str] = set()
    for agent_id, quality in agents:
        if not agent_id:
            raise ValidationError("agent id must be non-empty")
        if agent_id in _RESERVED:
            raise ValidationError(f"agent id {agent_id!r} is reserved for virtual bounds")
        if agent_id in seen:
            raise ValidationError(f"duplicate agent id {agent_id!r}")
        seen.add(agent_id)
        if len(quality) != schema.dimension:
            raise ValidationError(
                f"agent {agent_id!r}: expected {schema.dimension} feature values, got {len(quality)}"
            )

    ordered = sorted(agents, key=lambda item: item[0])
    ids = [agent_id for agent_id, _ in ordered]
    vecs = [quality for _, quality in ordered]
    n = len(ids)

    # One walk per feature, best value first, a group of equal values at a
    # time; `better` holds the agents strictly better than the group. Bit i
    # stands for ids[i]. An agent's dominators are at least as good in every
    # feature (`at_least`) and strictly better in one (`beaten_by`).
    at_least = [(1 << n) - 1] * n
    beaten_by = [0] * n
    best, worst = [], []  # each walk's first and last value: the bounds' qualities
    for k, feature in enumerate(schema.features):
        values = [vec.values[k] for vec in vecs]
        larger = feature.direction is Direction.LARGER_IS_BETTER
        order = sorted(range(n), key=values.__getitem__, reverse=larger)
        better = 0
        for _, group in groupby(order, key=values.__getitem__):
            group = list(group)
            tied = sum(1 << i for i in group)
            for i in group:
                at_least[i] &= better | tied
                beaten_by[i] |= better
            better |= tied
        if order:
            best.append(values[order[0]])
            worst.append(values[order[-1]])
    dominators = tuple(ge & gt for ge, gt in zip(at_least, beaten_by))

    # A dominator of i is a cover of i unless it dominates another dominator of i.
    cover_edges: list[tuple[str, str]] = []
    dominating = 0
    for i, mask in enumerate(dominators):
        indirect = 0
        for d in _iter_bits(mask):
            indirect |= dominators[d]
        cover_edges.extend((ids[d], ids[i]) for d in _iter_bits(mask & ~indirect))
        dominating |= mask
    cover_edges.extend((TOP_ID, ids[i]) for i in range(n) if not dominators[i])
    cover_edges.extend((ids[i], BOTTOM_ID) for i in range(n) if not dominating >> i & 1)
    if not n:
        best = worst = [0.0] * schema.dimension
        cover_edges.append((TOP_ID, BOTTOM_ID))

    nodes = (
        AgentNode(BOTTOM_ID, FeatureVector(tuple(worst)), virtual=True),
        AgentNode(TOP_ID, FeatureVector(tuple(best)), virtual=True),
    ) + tuple(AgentNode(agent_id, quality) for agent_id, quality in zip(ids, vecs))
    return DominanceLattice(schema, nodes, tuple(sorted(cover_edges)), dominators)
