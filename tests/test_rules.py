import random

import pytest

from beliefsim import (
    Direction,
    FeatureVector,
    Rule,
    RuleKind,
    Topology,
    UnknownAgentError,
    ValidationError,
    apply_majority,
    apply_most_expert,
    apply_rule,
    apply_subgroup_expert,
    build,
    check_consistency,
    check_determinism,
    parse_rule,
    trace_to_jsonl,
)
from beliefsim.rules import MAJORITY, MOST_EXPERT, _majority, _vote

from support import make_profile, make_schema, random_population, simple_scenario

S = Direction.SMALLER_IS_BETTER
FULL = Topology.full_broadcast()


@pytest.fixture
def intersection():
    schema = make_schema((S, S))
    lattice = build(
        schema,
        (
            ("s1", FeatureVector((1, 1))),
            ("s2", FeatureVector((3, 2))),
            ("s3", FeatureVector((2, 3))),
            ("s4", FeatureVector((4, 4))),
        ),
    )
    return lattice


class TestParseRule:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("most-expert", Rule(RuleKind.MOST_EXPERT)),
            ("majority", Rule(RuleKind.MAJORITY)),
            ("subgroup:d=2", Rule(RuleKind.SUBGROUP_EXPERT, 2, False)),
            ("subgroup:d=3,self", Rule(RuleKind.SUBGROUP_EXPERT, 3, True)),
        ],
    )
    def test_roundtrip(self, text, expected):
        rule = parse_rule(text)
        assert rule == expected
        assert rule.name == text

    @pytest.mark.parametrize(
        "bad",
        [
            "expert", "subgroup", "subgroup:d=0", "subgroup:d=x", "",
            # spellings Rule.name never prints
            "subgroup:d=01", "subgroup:d=\u0663", "subgroup:d=1\n",
        ],
    )
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValidationError):
            parse_rule(bad)

    def test_depth_zero_keeps_the_depth_message(self):
        with pytest.raises(ValidationError, match="depth must be >= 1, got 0"):
            parse_rule("subgroup:d=0")

    @pytest.mark.parametrize(
        "rule",
        [Rule(RuleKind.MOST_EXPERT), Rule(RuleKind.MAJORITY)]
        + [Rule(RuleKind.SUBGROUP_EXPERT, d, s) for d in (1, 2, 10) for s in (False, True)],
        ids=lambda rule: rule.name,
    )
    def test_every_name_parses_back(self, rule):
        assert parse_rule(rule.name) == rule

    @pytest.mark.parametrize(
        "depth, include_self, got",
        [(1.5, False, "1.5 and False"), (True, False, "True and False"), (2.0, True, "2.0 and True"),
         (1, "yes", "1 and 'yes'"), (1, 1, "1 and 1")],
        ids=["float-depth", "bool-depth", "integral-float-depth", "string-self", "int-self"],
    )
    def test_only_an_int_depth_and_a_bool_self(self, depth, include_self, got):
        # Rule(SUBGROUP_EXPERT, 1.5) was named subgroup:d=1.5, which no scenario loads back
        with pytest.raises(ValidationError) as err:
            Rule(RuleKind.SUBGROUP_EXPERT, depth, include_self)
        assert str(err.value) == (
            f"subgroup rule needs an int depth and a bool include_self, got {got}"
        )


class TestMostExpert:
    def test_unique_expert_overrides_everyone(self, intersection):
        profile = make_profile({"s1": True, "s2": False, "s3": False, "s4": False})
        for receiver in intersection.real_ids:
            outcome = apply_most_expert(intersection, profile, FULL, receiver)
            assert outcome.value is True
            assert outcome.contributors == {"s1"}
            assert outcome.tie_broken is False

    def test_split_frontier_tie_keeps_own_belief(self, intersection):
        # without s1 the visible frontier is the incomparable pair {s2, s3}
        lattice = intersection.remove("s1")
        profile = make_profile({"s2": True, "s3": False, "s4": False})
        outcome = apply_most_expert(lattice, profile, FULL, "s4")
        assert outcome.value is False  # s4 keeps its own belief
        assert outcome.contributors == {"s2", "s3"}
        assert outcome.tie_broken is True

    def test_split_frontier_majority_wins_when_odd(self):
        schema = make_schema((S, S))
        lattice = build(
            schema,
            (
                ("a", FeatureVector((1, 4))),
                ("b", FeatureVector((2, 3))),
                ("c", FeatureVector((4, 1))),
                ("d", FeatureVector((5, 5))),
            ),
        )
        assert lattice.maximal_frontier(lattice.real_ids) == {"a", "b", "c"}
        profile = make_profile({"a": True, "b": True, "c": False, "d": False})
        outcome = apply_most_expert(lattice, profile, FULL, "d")
        assert outcome.value is True
        assert outcome.tie_broken is False

    def test_single_agent_returns_own(self):
        schema = make_schema((S,))
        lattice = build(schema, (("only", FeatureVector((1,))),))
        profile = make_profile({"only": False})
        outcome = apply_most_expert(lattice, profile, FULL, "only")
        assert outcome.value is False
        assert outcome.contributors == {"only"}


class TestMajority:
    def test_strict_majority(self):
        profile = make_profile({"a": True, "b": True, "c": False})
        assert apply_majority(profile, "c").value is True

    def test_tie_keeps_own(self):
        profile = make_profile({"a": True, "b": False})
        outcome = apply_majority(profile, "b")
        assert outcome.value is False
        assert outcome.tie_broken is True

    def test_five_agents_majority_beats_own_belief(self):
        values = {"a": True, "b": True, "c": True, "d": False, "e": False}
        profile = make_profile(values)
        for receiver in values:
            assert apply_majority(profile, receiver).value is True

    def test_contributors_are_all_visible(self):
        profile = make_profile({"a": True, "b": False, "c": True})
        assert apply_majority(profile, "a").contributors == {"a", "b", "c"}


class TestSubgroupExpert:
    def test_depth_one_uses_top_layer_only(self, intersection):
        profile = make_profile({"s1": True, "s2": False, "s3": False, "s4": False})
        outcome = apply_subgroup_expert(intersection, profile, FULL, "s4", 1, False)
        assert outcome.contributors == {"s1"}
        assert outcome.value is True

    def test_depth_two_adds_second_layer(self, intersection):
        profile = make_profile({"s1": True, "s2": False, "s3": False, "s4": True})
        outcome = apply_subgroup_expert(intersection, profile, FULL, "s4", 2, False)
        assert outcome.contributors == {"s1", "s2", "s3"}
        assert outcome.value is False  # 2-of-3 false among the expert layers

    def test_no_experts_returns_own(self, intersection):
        profile = make_profile({"s1": False, "s2": True, "s3": True, "s4": True})
        outcome = apply_subgroup_expert(intersection, profile, FULL, "s1", 3, False)
        assert outcome.value is False
        assert outcome.contributors == {"s1"}

    def test_include_self_joins_vote(self, intersection):
        profile = make_profile({"s1": True, "s2": False, "s3": False, "s4": False})
        outcome = apply_subgroup_expert(intersection, profile, FULL, "s4", 2, True)
        assert outcome.contributors == {"s1", "s2", "s3", "s4"}
        assert outcome.value is False  # 3-of-4 false

    def test_depth_must_be_positive(self, intersection):
        profile = make_profile({a: True for a in intersection.real_ids})
        with pytest.raises(ValidationError):
            apply_subgroup_expert(intersection, profile, FULL, "s4", 0, False)

    @pytest.mark.parametrize("depth", [1.5, True])
    def test_depth_must_be_an_integer(self, intersection, depth):
        # depth 1.5 never reaches 0, so every layer above s4 was peeled
        profile = make_profile({a: True for a in intersection.real_ids})
        with pytest.raises(ValidationError, match=f"^depth must be an integer, got {depth}$"):
            apply_subgroup_expert(intersection, profile, FULL, "s4", depth, False)

    def test_respects_topology(self, intersection):
        # s4 only hears from s2: expert layers are computed among {s2, s4}
        topology = Topology.graph({"s4": ["s2"]})
        profile = make_profile({"s1": True, "s2": False, "s3": True, "s4": True})
        outcome = apply_subgroup_expert(intersection, profile, topology, "s4", 5, False)
        assert outcome.contributors == {"s2"}
        assert outcome.value is False


class TestRuleProperties:
    def test_unanimity_preserved_by_all_rules(self):
        rng = random.Random(61)
        rules = [MOST_EXPERT, MAJORITY, Rule(RuleKind.SUBGROUP_EXPERT, 2, True)]
        for _ in range(50):
            schema, agents = random_population(rng, rng.randint(1, 10), 2)
            lattice = build(schema, agents)
            value = rng.random() < 0.5
            profile = make_profile({a: value for a in lattice.real_ids})
            for rule in rules:
                result = apply_rule(rule, lattice, profile, FULL)
                assert all(v is value for v in result.propagated.values())

    def test_majority_anonymous_under_relabeling(self):
        rng = random.Random(67)
        for _ in range(100):
            n = rng.randint(2, 9)
            agents = [f"a{i}" for i in range(n)]
            values = {a: rng.random() < 0.5 for a in agents}
            receiver = rng.choice(agents)
            baseline = apply_majority(make_profile(values), receiver)
            others = [a for a in agents if a != receiver]
            shuffled = others[:]
            rng.shuffle(shuffled)
            permuted = {dst: values[src] for dst, src in zip(others, shuffled)}
            permuted[receiver] = values[receiver]
            outcome = apply_majority(make_profile(permuted), receiver)
            assert outcome.value == baseline.value
            assert outcome.tie_broken == baseline.tie_broken

    def test_most_expert_ignores_non_frontier_beliefs(self):
        rng = random.Random(71)
        checked = 0
        while checked < 200:
            schema, agents = random_population(rng, rng.randint(3, 10), 2)
            lattice = build(schema, agents)
            receiver = rng.choice(lattice.real_ids)
            frontier = lattice.maximal_frontier(set(lattice.real_ids))
            outsiders = [a for a in lattice.real_ids if a not in frontier and a != receiver]
            if not outsiders:
                continue
            values = {a: rng.random() < 0.5 for a in lattice.real_ids}
            baseline = apply_most_expert(lattice, make_profile(values), FULL, receiver)
            flipped = dict(values)
            flip_agent = rng.choice(outsiders)
            flipped[flip_agent] = not flipped[flip_agent]
            outcome = apply_most_expert(lattice, make_profile(flipped), FULL, receiver)
            assert outcome.value == baseline.value
            assert outcome.contributors == baseline.contributors
            checked += 1

    def test_subgroup_depth_one_equals_most_expert_on_singleton_frontier(self):
        rng = random.Random(73)
        for _ in range(100):
            schema, agents = random_population(rng, rng.randint(2, 8), 2)
            # force a strict global dominator so the visible frontier is a singleton
            best = [min(v.values[i] for _, v in agents) - 1 for i in range(2)]
            best_vec = FeatureVector(tuple(float(b) for b in best))
            agents = (("zz_best", best_vec),) + tuple(agents)
            schema = make_schema((S, S))
            lattice = build(schema, agents)
            assert lattice.maximal_frontier(set(lattice.real_ids)) == {"zz_best"}
            values = {a: rng.random() < 0.5 for a in lattice.real_ids}
            profile = make_profile(values)
            for receiver in lattice.real_ids:
                expert = apply_most_expert(lattice, profile, FULL, receiver)
                subgroup = apply_subgroup_expert(lattice, profile, FULL, receiver, 1, False)
                assert expert.value == subgroup.value

    def test_subgroup_full_depth_with_self_equals_majority_over_experts(self):
        rng = random.Random(79)
        for _ in range(50):
            schema, agents = random_population(rng, rng.randint(2, 10), 2)
            lattice = build(schema, agents)
            values = {a: rng.random() < 0.5 for a in lattice.real_ids}
            profile = make_profile(values)
            depth = len(agents)  # no chain is longer than the population
            for receiver in lattice.real_ids:
                experts = lattice.experts_of(receiver)
                if not experts:
                    continue
                outcome = apply_subgroup_expert(lattice, profile, FULL, receiver, depth, True)
                assert outcome.contributors == experts | {receiver}
                restricted = profile.restrict(experts | {receiver})
                assert outcome.value == apply_majority(restricted, receiver).value


class TestOrderIndependence:
    def test_permuted_agent_input_order_gives_identical_trace(self):
        rng = random.Random(83)
        schema, agents = random_population(rng, 6, 2)
        probs = {a: 0.3 for a, _ in agents}
        base = simple_scenario(schema, agents, probs, trials=20, seed=9)
        shuffled = list(agents)
        rng.shuffle(shuffled)
        permuted = simple_scenario(schema, tuple(shuffled), probs, trials=20, seed=9)
        from beliefsim import run

        trace_a, _ = run(base)
        trace_b, _ = run(permuted)
        assert trace_to_jsonl(trace_a) == trace_to_jsonl(trace_b)


class TestCheckDeterminism:
    def test_fixed_seed_is_deterministic(self):
        schema = make_schema((S, S))
        agents = (("a", FeatureVector((1, 1))), ("b", FeatureVector((2, 2))))
        scenario = simple_scenario(schema, agents, {"a": 0.2, "b": 0.4}, trials=10)
        assert check_determinism(MAJORITY, scenario, seed=5, repetitions=5) is True

    def test_requires_two_repetitions(self):
        schema = make_schema((S,))
        scenario = simple_scenario(
            schema, (("a", FeatureVector((1,))),), {"a": 0.1}, trials=2
        )
        with pytest.raises(ValidationError):
            check_determinism(MAJORITY, scenario, seed=5, repetitions=1)


class TestCheckConsistency:
    def test_dissenting_expert_contradicts_majority_everywhere(self, intersection):
        profile = make_profile({"s1": False, "s2": True, "s3": True, "s4": True})
        report = check_consistency([MOST_EXPERT, MAJORITY], intersection, profile, FULL)
        assert report.has_contradictions
        assert report.receivers_with_contradictions == {"s1", "s2", "s3", "s4"}
        for pairs in report.contradictions.values():
            assert ("most-expert", "majority") in pairs

    def test_contradictions_name_each_unordered_pair_once_in_rule_order(self, intersection):
        # s1 dissents and outranks everyone: most-expert and subgroup:d=1 follow s1
        profile = make_profile({"s1": False, "s2": True, "s3": True, "s4": True})
        subgroup = Rule(RuleKind.SUBGROUP_EXPERT, 1)
        report = check_consistency([MOST_EXPERT, MAJORITY, subgroup], intersection, profile, FULL)
        pairs = (("most-expert", "majority"), ("majority", "subgroup:d=1"))
        assert report.contradictions == dict.fromkeys(intersection.real_ids, pairs)

    def test_unanimous_profile_never_contradicts(self, intersection):
        profile = make_profile({a: True for a in intersection.real_ids})
        report = check_consistency(
            [MOST_EXPERT, MAJORITY, Rule(RuleKind.SUBGROUP_EXPERT, 2, True)],
            intersection,
            profile,
            FULL,
        )
        assert not report.has_contradictions

    def test_identical_rules_never_contradict(self, intersection):
        profile = make_profile({"s1": False, "s2": True, "s3": False, "s4": True})
        report = check_consistency([MAJORITY, MAJORITY], intersection, profile, FULL)
        assert not report.has_contradictions

    def test_requires_two_rules(self, intersection):
        profile = make_profile({a: True for a in intersection.real_ids})
        with pytest.raises(ValidationError):
            check_consistency([MAJORITY], intersection, profile, FULL)


@pytest.mark.parametrize("own", [False, True])
def test_one_tie_rule(own):
    """_vote counts the true votes and leaves the decision, tie included, to _majority."""
    for voters in range(8):
        ids = [f"v{i}" for i in range(voters)]
        for ayes in range(voters + 1):
            values = {a: i < ayes for i, a in enumerate(ids)}
            expected = _majority(ayes, voters, own)
            assert _vote(ids, values.__getitem__, own) == expected
            assert expected[1] == (2 * ayes == voters)
            assert expected[0] == (own if 2 * ayes == voters else 2 * ayes > voters)


@pytest.mark.parametrize("vote", [
    lambda lattice, profile, topology: apply_most_expert(lattice, profile, topology, "s4"),
    lambda lattice, profile, topology: apply_subgroup_expert(lattice, profile, topology, "s4", 1, False),
])
def test_voter_without_belief_is_named(vote, intersection):
    """Votes read BeliefProfile.values; a voter missing from it fails as value_of does."""
    profile = make_profile({"s2": True, "s3": False, "s4": False})
    with pytest.raises(UnknownAgentError, match="no belief for agent 's1'"):
        vote(intersection, profile, Topology.graph({"s4": ["s1"]}))


# Behaviour on profiles that do not match the lattice, recorded before the
# rules computed voters with the lattice's masks. `extra` holds two agents the
# lattice lacks, `partial` only two of its four. Each entry maps a receiver to
# (value, contributors, tie_broken), or holds the error message.
EDGE_TOPOLOGIES = {
    "full": Topology.full_broadcast(),
    "graph": Topology.graph({"s4": ["x", "s2"], "s2": ["s1", "y"], "s3": ["y"]}),
}
EDGE_CASES = {
    ("full", "most-expert"): "unknown agent 'x'",
    ("full", "majority"): {r: (True, "s1 s2 s3 s4 x y", False) for r in ("s1", "s2", "s3", "s4")},
    ("full", "subgroup:d=1"): {r: (False, "s1", False) for r in ("s1", "s2", "s3", "s4")},
    ("full", "subgroup:d=2"): {
        "s1": (False, "s1", False), "s2": (False, "s1", False),
        "s3": (False, "s1", False), "s4": (True, "s1 s2 s3", False),
    },
    ("full", "subgroup:d=2,self"): {
        "s1": (False, "s1", False), "s2": (True, "s1 s2", True),
        "s3": (True, "s1 s3", True), "s4": (False, "s1 s2 s3 s4", True),
    },
    ("full", "subgroup:d=3"): {
        "s1": (False, "s1", False), "s2": (False, "s1", False),
        "s3": (False, "s1", False), "s4": (True, "s1 s2 s3", False),
    },
    ("graph", "most-expert"): "unknown agent 'y'",  # s2 is the first receiver to see one
    ("graph", "majority"): {
        "s1": (False, "s1", False), "s2": (True, "s1 s2 y", False),
        "s3": (True, "s3 y", False), "s4": (True, "s2 s4 x", False),
    },
    ("graph", "subgroup:d=1"): {
        "s1": (False, "s1", False), "s2": (False, "s1", False),
        "s3": (True, "s3", False), "s4": (True, "s2", False),
    },
    ("graph", "subgroup:d=2,self"): {
        "s1": (False, "s1", False), "s2": (True, "s1 s2", True),
        "s3": (True, "s3", False), "s4": (False, "s2 s4", True),
    },
    ("graph", "subgroup:d=3"): {
        "s1": (False, "s1", False), "s2": (False, "s1", False),
        "s3": (True, "s3", False), "s4": (True, "s2", False),
    },
}


@pytest.mark.parametrize("topology,rule", sorted(EDGE_CASES))
def test_profile_with_agents_the_lattice_lacks(topology, rule, intersection):
    profile = make_profile({"s1": False, "s2": True, "s3": True, "s4": False, "y": True, "x": True})
    expected = EDGE_CASES[topology, rule]
    if isinstance(expected, str):
        with pytest.raises(UnknownAgentError, match=f"^{expected}$"):
            apply_rule(parse_rule(rule), intersection, profile, EDGE_TOPOLOGIES[topology])
        return
    result = apply_rule(parse_rule(rule), intersection, profile, EDGE_TOPOLOGIES[topology])
    assert {
        r: (result.propagated[r], " ".join(sorted(result.contributors[r])), result.tie_broken[r])
        for r in intersection.real_ids
    } == expected


@pytest.mark.parametrize("topology", sorted(EDGE_TOPOLOGIES))
@pytest.mark.parametrize(
    "rule", ["most-expert", "majority", "subgroup:d=1", "subgroup:d=2,self", "subgroup:d=3"]
)
def test_partial_profile_names_first_missing_receiver(topology, rule, intersection):
    profile = make_profile({"s2": True, "s3": False})
    with pytest.raises(UnknownAgentError, match="^unknown receiver 's1'$"):
        apply_rule(parse_rule(rule), intersection, profile, EDGE_TOPOLOGIES[topology])
