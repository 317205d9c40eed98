"""Dominance lattice over a population of agents.

The population is partially ordered by strict Pareto dominance of quality
vectors and completed with two synthetic bound nodes: a virtual supremum
(``__top__``, componentwise best of all real agents) and a virtual infimum
(``__bottom__``, componentwise worst). Cover edges store the transitive
reduction; the full dominance relation is kept as per-agent dominator /
dominated sets, so expert queries are set lookups.

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
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import UnknownAgentError, ValidationError
from .features import Comparison, FeatureSchema, FeatureVector, compare, join, meet

BOTTOM_ID = "__bottom__"
TOP_ID = "__top__"
_RESERVED = {BOTTOM_ID, TOP_ID}


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
        dominators: Mapping[str, frozenset[str]],
        dominated: Mapping[str, frozenset[str]],
    ) -> None:
        self.schema = schema
        self.nodes = nodes
        self.cover_edges = cover_edges
        self._dominators = dict(dominators)
        self._dominated = dict(dominated)
        self._by_id = {node.id: node for node in nodes}
        self._snapshot_cache: str | None = None
        self.real_ids: tuple[str, ...] = tuple(node.id for node in nodes if not node.virtual)

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

    def _require_real(self, agent_id: str) -> None:
        node = self.node(agent_id)
        if node.virtual:
            raise UnknownAgentError(f"{agent_id!r} is a virtual bound, not an agent")

    # -- order queries ------------------------------------------------------

    def experts_of(self, agent_id: str) -> set[str]:
        """Real agents whose quality strictly dominates this agent's."""
        self._require_real(agent_id)
        return set(self._dominators[agent_id])

    def less_experts_of(self, agent_id: str) -> set[str]:
        """Real agents whose quality is strictly dominated by this agent's."""
        self._require_real(agent_id)
        return set(self._dominated[agent_id])

    def maximal_frontier(self, among: Iterable[str]) -> set[str]:
        """Members of `among` not dominated by any other member of `among`."""
        members = set(among)
        if not members:
            raise ValidationError("maximal_frontier requires a non-empty subset")
        for agent_id in members:
            self._require_real(agent_id)
        return {a for a in members if not (self._dominators[a] & members)}

    # -- mutations (each returns a rebuilt lattice) --------------------------

    def _population(self) -> list[tuple[str, FeatureVector]]:
        return [(node.id, node.quality) for node in self.nodes if not node.virtual]

    def update_quality(self, agent_id: str, new_quality: FeatureVector) -> "DominanceLattice":
        self._require_real(agent_id)
        population = [
            (aid, new_quality if aid == agent_id else q) for aid, q in self._population()
        ]
        return build(self.schema, population)

    def insert(self, agent_id: str, quality: FeatureVector) -> "DominanceLattice":
        if agent_id in self._by_id:
            raise ValidationError(f"duplicate agent id {agent_id!r}")
        return build(self.schema, self._population() + [(agent_id, quality)])

    def remove(self, agent_id: str) -> "DominanceLattice":
        self._require_real(agent_id)
        population = [(aid, q) for aid, q in self._population() if aid != agent_id]
        return build(self.schema, population)

    # -- serialization --------------------------------------------------------

    def snapshot_text(self) -> str:
        if self._snapshot_cache is None:
            doc = {
                "format": "dominance-lattice/1",
                "schema": [
                    {"name": f.name, "direction": f.direction.value, "unit": f.unit}
                    for f in self.schema.features
                ],
                "nodes": [
                    {"id": n.id, "virtual": n.virtual, "quality": list(n.quality.values)}
                    for n in self.nodes
                ],
                "cover_edges": [list(edge) for edge in self.cover_edges],
            }
            self._snapshot_cache = json.dumps(doc, indent=2)
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

    # Pairwise dominance as bitmasks; the relation is transitive by
    # construction, so these masks double as the reachability closure.
    dominated_mask = [0] * n  # bit j set in row i: i dominates j
    dominator_mask = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            outcome = compare(vecs[i], vecs[j], schema)
            if outcome is Comparison.DOMINATES:
                dominated_mask[i] |= 1 << j
                dominator_mask[j] |= 1 << i
            elif outcome is Comparison.DOMINATED_BY:
                dominated_mask[j] |= 1 << i
                dominator_mask[i] |= 1 << j

    # Transitive reduction: drop (i, j) when some dominated w of i also dominates j.
    cover_edges: list[tuple[str, str]] = []
    for i in range(n):
        below = dominated_mask[i]
        indirect = 0
        for w in _iter_bits(below):
            indirect |= dominated_mask[w]
        for j in _iter_bits(below & ~indirect):
            cover_edges.append((ids[i], ids[j]))

    # Virtual bounds: top joins all real qualities, bottom meets them.
    if n:
        top_quality = vecs[0]
        bottom_quality = vecs[0]
        for vec in vecs[1:]:
            top_quality = join(top_quality, vec, schema)
            bottom_quality = meet(bottom_quality, vec, schema)
        for i in range(n):
            if dominator_mask[i] == 0:
                cover_edges.append((TOP_ID, ids[i]))
            if dominated_mask[i] == 0:
                cover_edges.append((ids[i], BOTTOM_ID))
    else:
        zero = FeatureVector((0.0,) * schema.dimension)
        top_quality = bottom_quality = zero
        cover_edges.append((TOP_ID, BOTTOM_ID))

    nodes = (
        AgentNode(BOTTOM_ID, bottom_quality, virtual=True),
        AgentNode(TOP_ID, top_quality, virtual=True),
    ) + tuple(AgentNode(agent_id, quality) for agent_id, quality in zip(ids, vecs))

    dominators = {
        ids[i]: frozenset(ids[j] for j in _iter_bits(dominator_mask[i])) for i in range(n)
    }
    dominated = {
        ids[i]: frozenset(ids[j] for j in _iter_bits(dominated_mask[i])) for i in range(n)
    }
    return DominanceLattice(schema, nodes, tuple(sorted(cover_edges)), dominators, dominated)
