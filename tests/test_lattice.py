import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from beliefsim import (
    BOTTOM_ID,
    TOP_ID,
    Comparison,
    Direction,
    Feature,
    FeatureSchema,
    FeatureVector,
    UnknownAgentError,
    ValidationError,
    build,
    compare,
)

from support import brute_dominates, make_schema, random_population, reachable_real

S = Direction.SMALLER_IS_BETTER


@pytest.fixture
def intersection():
    schema = make_schema((S, S))
    agents = (
        ("s1", FeatureVector((1, 1))),
        ("s2", FeatureVector((3, 2))),
        ("s3", FeatureVector((2, 3))),
        ("s4", FeatureVector((4, 4))),
    )
    return schema, agents, build(schema, agents)


class TestIntersectionExample:
    def test_pairwise_relations(self, intersection):
        schema, agents, lattice = intersection
        q = dict(agents)
        for other in ("s2", "s3", "s4"):
            assert compare(q["s1"], q[other], schema) is Comparison.DOMINATES
        assert compare(q["s2"], q["s3"], schema) is Comparison.INCOMPARABLE
        for other in ("s1", "s2", "s3"):
            assert compare(q[other], q["s4"], schema) is Comparison.DOMINATES

    def test_expert_sets(self, intersection):
        _, _, lattice = intersection
        assert lattice.experts_of("s4") == {"s1", "s2", "s3"}
        assert lattice.experts_of("s1") == set()
        assert lattice.experts_of("s2") == {"s1"}

    def test_less_expert_sets(self, intersection):
        _, _, lattice = intersection
        assert lattice.less_experts_of("s1") == {"s2", "s3", "s4"}
        assert lattice.less_experts_of("s4") == set()
        for agent in lattice.real_ids:
            assert not (lattice.experts_of(agent) & lattice.less_experts_of(agent))

    def test_frontiers(self, intersection):
        _, _, lattice = intersection
        assert lattice.maximal_frontier({"s1", "s2", "s3", "s4"}) == {"s1"}
        assert lattice.maximal_frontier({"s2", "s3"}) == {"s2", "s3"}
        assert lattice.maximal_frontier({"s4"}) == {"s4"}
        # frontiers are memoised; changing a returned set must not reach the memo
        frontier = lattice.maximal_frontier({"s2", "s3", "s4"})
        frontier.add("s4")
        frontier.discard("s2")
        assert lattice.maximal_frontier({"s2", "s3", "s4"}) == {"s2", "s3"}
        assert lattice.maximal_frontier(["s4", "s3", "s2"]) == {"s2", "s3"}

    def test_virtual_bounds(self, intersection):
        _, _, lattice = intersection
        top = lattice.node(TOP_ID)
        bottom = lattice.node(BOTTOM_ID)
        assert top.virtual and bottom.virtual
        assert top.quality == FeatureVector((1, 1))
        assert bottom.quality == FeatureVector((4, 4))


class TestBuild:
    def test_single_agent_has_three_nodes_two_edges(self):
        schema = make_schema((S,))
        lattice = build(schema, (("only", FeatureVector((1,))),))
        assert len(lattice.nodes) == 3
        assert set(lattice.cover_edges) == {(TOP_ID, "only"), ("only", BOTTOM_ID)}

    def test_duplicate_id_rejected(self):
        schema = make_schema((S,))
        with pytest.raises(ValidationError):
            build(schema, (("a", FeatureVector((1,))), ("a", FeatureVector((2,)))))

    def test_dimension_mismatch_rejected(self):
        schema = make_schema((S, S))
        with pytest.raises(ValidationError):
            build(schema, (("a", FeatureVector((1,))),))

    def test_reserved_ids_rejected(self):
        schema = make_schema((S,))
        with pytest.raises(ValidationError):
            build(schema, ((TOP_ID, FeatureVector((1,))),))

    def test_input_order_irrelevant(self):
        rng = random.Random(5)
        schema, agents = random_population(rng, 12, 3)
        shuffled = list(agents)
        rng.shuffle(shuffled)
        assert build(schema, agents).snapshot_text() == build(schema, shuffled).snapshot_text()

    def test_reachability_matches_pairwise_oracle(self):
        rng = random.Random(11)
        for trial in range(40):
            schema, agents = random_population(rng, rng.randint(1, 60), rng.randint(1, 3))
            lattice = build(schema, agents)
            dominates = brute_dominates(schema, agents)
            assert reachable_real(lattice) == dominates
            for agent_id, _ in agents:
                assert lattice.less_experts_of(agent_id) == dominates[agent_id]
                assert lattice.experts_of(agent_id) == {
                    other for other, below in dominates.items() if agent_id in below
                }
                assert lattice.expert_count(agent_id) == len(lattice.experts_of(agent_id))

    def test_cover_edges_are_immediate(self):
        rng = random.Random(13)
        schema, agents = random_population(rng, 15, 2)
        lattice = build(schema, agents)
        dom = brute_dominates(schema, agents)
        real = set(lattice.real_ids)
        for u, v in lattice.cover_edges:
            if u in real and v in real:
                assert v in dom[u]
                assert not any(w in dom[u] and v in dom[w] for w in real)

    def test_bound_edges_touch_extremes_only(self):
        rng = random.Random(17)
        schema, agents = random_population(rng, 15, 2)
        lattice = build(schema, agents)
        dom = brute_dominates(schema, agents)
        maximal = {a for a in dom if not any(a in dom[b] for b in dom)}
        minimal = {a for a in dom if not dom[a]}
        assert {v for u, v in lattice.cover_edges if u == TOP_ID} == maximal
        assert {u for u, v in lattice.cover_edges if v == BOTTOM_ID} == minimal

    def test_empty_population_is_just_bounds(self):
        schema = make_schema((S, S))
        lattice = build(schema, ())
        assert lattice.real_ids == ()
        assert lattice.cover_edges == ((TOP_ID, BOTTOM_ID),)


class TestQueries:
    def test_unknown_agent(self, intersection):
        _, _, lattice = intersection
        with pytest.raises(UnknownAgentError):
            lattice.experts_of("nobody")
        with pytest.raises(UnknownAgentError):
            lattice.less_experts_of("nobody")
        with pytest.raises(UnknownAgentError, match="unknown agent 'nobody'"):
            lattice.maximal_frontier({"s1", "nobody"})

    def test_virtual_bounds_not_queryable(self, intersection):
        _, _, lattice = intersection
        with pytest.raises(UnknownAgentError):
            lattice.experts_of(TOP_ID)
        with pytest.raises(UnknownAgentError, match="virtual bound"):
            lattice.maximal_frontier({"s2", TOP_ID})

    def test_empty_frontier_subset_rejected(self, intersection):
        _, _, lattice = intersection
        with pytest.raises(ValidationError):
            lattice.maximal_frontier(set())

    def test_frontier_members_mutually_incomparable(self):
        rng = random.Random(23)
        for _ in range(20):
            schema, agents = random_population(rng, rng.randint(2, 15), 3)
            lattice = build(schema, agents)
            among = set(rng.sample(lattice.real_ids, rng.randint(1, len(agents))))
            frontier = lattice.maximal_frontier(among)
            assert frontier
            q = dict(agents)
            for a in frontier:
                for b in frontier:
                    if a != b:
                        assert compare(q[a], q[b], schema) in (
                            Comparison.INCOMPARABLE,
                            Comparison.EQUAL,
                        )


class TestMutations:
    def test_update_promotes_agent(self, intersection):
        _, _, lattice = intersection
        updated = lattice.update_quality("s4", FeatureVector((0.5, 0.5)))
        assert updated.experts_of("s4") == set()
        assert updated.less_experts_of("s4") == {"s1", "s2", "s3"}

    def test_update_to_identical_vector_is_noop(self, intersection):
        _, _, lattice = intersection
        assert lattice.update_quality("s2", FeatureVector((3, 2))) == lattice

    def test_update_equals_rebuild(self, intersection):
        schema, agents, lattice = intersection
        moved = lattice.update_quality("s3", FeatureVector((0, 9)))
        rebuilt = build(
            schema,
            tuple(
                (a, FeatureVector((0, 9)) if a == "s3" else q) for a, q in agents
            ),
        )
        assert moved == rebuilt
        assert moved.snapshot_text() == rebuilt.snapshot_text()

    def test_remove_s1_changes_frontier(self, intersection):
        _, _, lattice = intersection
        smaller = lattice.remove("s1")
        assert smaller.maximal_frontier(smaller.real_ids) == {"s2", "s3"}

    def test_insert_then_remove_restores(self, intersection):
        _, _, lattice = intersection
        roundtrip = lattice.insert("s5", FeatureVector((0, 0))).remove("s5")
        assert roundtrip == lattice
        assert roundtrip.snapshot_text() == lattice.snapshot_text()

    def test_insert_equal_vector_makes_peers(self, intersection):
        _, _, lattice = intersection
        widened = lattice.insert("s5", FeatureVector((4, 4)))
        assert "s5" not in widened.experts_of("s4")
        assert "s4" not in widened.experts_of("s5")

    def test_insert_existing_id_rejected(self, intersection):
        _, _, lattice = intersection
        with pytest.raises(ValidationError):
            lattice.insert("s1", FeatureVector((9, 9)))

    def test_remove_unknown_rejected(self, intersection):
        _, _, lattice = intersection
        with pytest.raises(UnknownAgentError):
            lattice.remove("nobody")

    def test_remove_to_empty_population(self):
        schema = make_schema((S,))
        lattice = build(schema, (("only", FeatureVector((1,))),))
        assert lattice.remove("only").real_ids == ()

    def test_random_mutation_stream_equals_rebuild(self):
        rng = random.Random(31)
        schema, agents = random_population(rng, 15, 3)
        population = dict(agents)
        lattice = build(schema, agents)
        next_id = len(agents)
        for _ in range(100):
            op = rng.choice(("update", "insert", "remove"))
            if op == "update" and population:
                agent = rng.choice(sorted(population))
                vec = FeatureVector(tuple(float(rng.randint(0, 6)) for _ in range(3)))
                population[agent] = vec
                lattice = lattice.update_quality(agent, vec)
            elif op == "insert":
                agent = f"n{next_id:03d}"
                next_id += 1
                vec = FeatureVector(tuple(float(rng.randint(0, 6)) for _ in range(3)))
                population[agent] = vec
                lattice = lattice.insert(agent, vec)
            elif population:
                agent = rng.choice(sorted(population))
                del population[agent]
                lattice = lattice.remove(agent)
            rebuilt = build(schema, tuple(sorted(population.items())))
            assert lattice == rebuilt
            assert lattice.snapshot_text() == rebuilt.snapshot_text()


class TestEquality:
    def test_moved_agent_with_the_same_edges_differs(self, intersection):
        _, _, lattice = intersection
        moved = lattice.update_quality("s4", FeatureVector((5, 5)))
        assert moved.cover_edges == lattice.cover_edges
        assert moved != lattice

    def test_added_agent_differs(self, intersection):
        _, _, lattice = intersection
        assert lattice.insert("s5", FeatureVector((5, 5))) != lattice

    def test_changed_schema_differs(self, intersection):
        _, agents, lattice = intersection
        relabeled = build(make_schema((S, S), unit="m"), agents)
        assert relabeled.nodes == lattice.nodes and relabeled.cover_edges == lattice.cover_edges
        assert relabeled != lattice


class TestSerialization:
    def test_snapshot_is_stable(self, intersection):
        schema, agents, lattice = intersection
        again = build(schema, agents)
        assert lattice.snapshot_text() == again.snapshot_text()
        assert lattice.digest() == again.digest()

    def test_snapshot_lists_nodes_then_edges(self, intersection):
        import json

        _, _, lattice = intersection
        doc = json.loads(lattice.snapshot_text())
        assert doc["format"] == "dominance-lattice/1"
        ids = [n["id"] for n in doc["nodes"]]
        assert ids == [BOTTOM_ID, TOP_ID, "s1", "s2", "s3", "s4"]
        assert doc["cover_edges"] == sorted(doc["cover_edges"])


def _reference_snapshot(lattice) -> str:
    """The snapshot as the json module's indent=2 encoder writes the document."""
    doc = {
        "format": "dominance-lattice/1",
        "schema": [
            {"name": f.name, "direction": f.direction.value, "unit": f.unit}
            for f in lattice.schema.features
        ],
        "nodes": [
            {"id": n.id, "virtual": n.virtual, "quality": list(n.quality.values)}
            for n in lattice.nodes
        ],
        "cover_edges": [list(edge) for edge in lattice.cover_edges],
    }
    return json.dumps(doc, indent=2)


# Escapes, control characters, non-ASCII and astral characters, or anything.
_awkward_text = st.text(st.sampled_from('a"\\\n\t\x00\x1f\x7fé€😀 /') | st.characters())
# Edge floats, integers (which FeatureVector turns into floats), or any finite float.
_values = (
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1e16, 1e-7])
    | st.integers(-(10**20), 10**20)
    | st.floats(allow_nan=False, allow_infinity=False)
)


@settings(max_examples=150, deadline=None)
@given(
    features=st.lists(
        st.tuples(_awkward_text.filter(bool), st.sampled_from(Direction), _awkward_text),
        min_size=1, max_size=3, unique_by=lambda f: f[0],
    ),
    data=st.data(),
)
def test_snapshot_text_equals_json_indent_2(features, data):
    schema = FeatureSchema(tuple(Feature(*f) for f in features))
    ids = data.draw(
        st.lists(
            _awkward_text.filter(lambda a: a and a not in (BOTTOM_ID, TOP_ID)),
            max_size=6, unique=True,
        )
    )
    agents = [
        (agent_id, FeatureVector(tuple(data.draw(_values) for _ in features))) for agent_id in ids
    ]
    lattice = build(schema, agents)
    assert lattice.snapshot_text() == _reference_snapshot(lattice)
