"""The compiled vote plan against the per-profile rule path.

The simulator reads each receiver's voters once per (step, rule) and
votes every trial over them. That rests on one property: apply_rule's
contributors never depend on the belief profile. These tests check the
property, that a vote over the plan's voters reproduces apply_rule
exactly, and that the plan's voters and groups equal a brute-force
reference over plain sets.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from beliefsim import (
    DriftEvent,
    ErrorModel,
    GroundTruthSchedule,
    Proposition,
    Rule,
    RuleKind,
    Scenario,
    Topology,
    build,
    run,
)
from beliefsim.rules import MAJORITY, MOST_EXPERT, _vote, apply_rule
from beliefsim.simulator import _compile, lattices_by_step

from support import brute_dominates, brute_voters, make_profile, random_population, simple_scenario

RULES = [MOST_EXPERT, MAJORITY] + [
    Rule(RuleKind.SUBGROUP_EXPERT, depth, include_self)
    for depth in (1, 2, 3)
    for include_self in (False, True)
]


@st.composite
def rule_cases(draw):
    """A random lattice and topology, a rule, a step and two belief profiles."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    schema, agents = random_population(rng, n, draw(st.integers(1, 3)))
    lattice = build(schema, agents)
    ids = lattice.real_ids
    if draw(st.booleans()):
        topology = Topology.full_broadcast()
    else:
        topology = Topology.graph({a: draw(st.sets(st.sampled_from(ids))) for a in ids})
    step = draw(st.integers(0, 4))
    beliefs = st.lists(st.booleans(), min_size=n, max_size=n)
    profiles = [make_profile(dict(zip(ids, draw(beliefs))), step=step) for _ in range(2)]
    return lattice, topology, draw(st.sampled_from(RULES)), step, profiles


def compiled_rule(rule, lattice, topology, step):
    """`rule`'s plan at `step` of a one-rule scenario whose every step has `lattice`."""
    ids = lattice.real_ids
    scenario = simple_scenario(
        lattice.schema, [(a, lattice.quality_of(a)) for a in ids], dict.fromkeys(ids, 0.5),
        rules=[rule], steps=step + 1, topology=topology,
    )
    return _compile(scenario, [lattice] * (step + 1)).steps[step].rules[0]


@given(rule_cases())
def test_contributors_do_not_depend_on_beliefs(case):
    lattice, topology, rule, _, (first, second) = case
    assert (
        apply_rule(rule, lattice, first, topology).contributors
        == apply_rule(rule, lattice, second, topology).contributors
    )


@given(rule_cases())
def test_compiled_vote_equals_apply_rule(case):
    lattice, topology, rule, step, profiles = case
    voters = compiled_rule(rule, lattice, topology, step).contributors
    assert list(voters) == list(lattice.real_ids)
    for profile in profiles:
        result = apply_rule(rule, lattice, profile, topology)
        values = {a: profile.value_of(a) for a in lattice.real_ids}
        for receiver, receiver_voters in voters.items():
            assert receiver_voters == tuple(sorted(result.contributors[receiver]))
            assert _vote(receiver_voters, values.__getitem__, values[receiver]) == (
                result.propagated[receiver],
                result.tie_broken[receiver],
            )


@settings(max_examples=40, deadline=None)
@given(rule_cases(), st.randoms(use_true_random=False))
def test_compiled_voters_equal_brute_force_reference(case, rng):
    lattice, _, _, step, _ = case
    ids = lattice.real_ids
    bit = {a: 1 << i for i, a in enumerate(ids)}
    agents = [(a, lattice.quality_of(a)) for a in ids]
    graph = Topology.graph({a: rng.sample(ids, rng.randint(0, len(ids))) for a in ids})
    for topology in (Topology.full_broadcast(), graph):
        for rule in RULES:
            expected = brute_voters(rule, lattice.schema, agents, topology)
            plan = compiled_rule(rule, lattice, topology, step)
            assert plan.contributors == expected
            # the frontiers memoised by the first call give the same voters
            assert compiled_rule(rule, lattice, topology, step).contributors == expected
            # one group per distinct voter set; the groups' receivers partition the agents,
            # and each receiver's voters, as a mask, are its group's voters
            assert len({voters for voters, _ in plan.groups}) == len(plan.groups)
            covered = 0
            for voters, receivers in plan.groups:
                assert receivers and not receivers & covered
                covered |= receivers
                for a in ids:
                    if receivers & bit[a]:
                        assert voters == sum(map(bit.__getitem__, plan.contributors[a]))
            assert covered == (1 << len(ids)) - 1


SUBGROUP_RULES = [
    Rule(RuleKind.SUBGROUP_EXPERT, depth, include_self)
    for depth in (1, 2, 3, 5)
    for include_self in (False, True)
]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 3))
def test_subgroup_voters_from_depth_layers_equal_brute_force(seed, n, features):
    # A receiver that sees all its experts takes the lattice's global depth
    # layers; one with a hidden expert peels its own. In the graph, even
    # receivers see everyone and odd ones a random sample, so both paths run.
    rng = random.Random(seed)
    schema, agents = random_population(rng, n, features)
    lattice = build(schema, agents)
    ids = lattice.real_ids
    dominates = brute_dominates(schema, agents)
    rest, peeled = set(ids), [set()]  # peeled[k]: global depths 1..k, by brute frontiers
    while rest:
        layer = {a for a in rest if not any(a in dominates[u] for u in rest)}
        peeled.append(peeled[-1] | layer)
        rest -= layer
    for depth in range(len(peeled) + 2):
        assert lattice.members(lattice.depth_upto(depth)) == peeled[min(depth, len(peeled) - 1)]
    graph = Topology.graph({
        a: ids if i % 2 == 0 else rng.sample(ids, rng.randint(0, len(ids)))
        for i, a in enumerate(ids)
    })
    profile = make_profile(dict.fromkeys(ids, True))
    for topology in (Topology.full_broadcast(), graph):
        for rule in SUBGROUP_RULES:
            contributors = apply_rule(rule, lattice, profile, topology).contributors
            expected = brute_voters(rule, schema, agents, topology)
            assert {a: tuple(sorted(v)) for a, v in contributors.items()} == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_records_equal_apply_rule_on_their_raw_beliefs(seed):
    rng = random.Random(seed)
    schema, agents = random_population(rng, 7, 2)
    ids = [agent_id for agent_id, _ in agents]
    topology = Topology.graph({a: rng.sample(ids, 3) for a in ids})
    drift = [DriftEvent(rng.choice(ids), "f0", step, delta=2.0) for step in (1, 2, 2)]
    scenario = simple_scenario(
        schema, agents, {a: 0.3 for a in ids}, rules=RULES, steps=3, trials=5,
        seed=seed, topology=topology, drift=drift,
    )
    lattices = lattices_by_step(scenario)
    by_name = {rule.name: rule for rule in RULES}
    trace, _ = run(scenario)
    for record in trace.records:
        lattice = lattices[record.step]
        profile = make_profile(record.raw["p"], step=record.step)
        result = apply_rule(by_name[record.rule], lattice, profile, topology)
        assert record.lattice_digest == lattice.digest()
        assert record.propagated["p"] == result.propagated
        assert record.tie_broken["p"] == result.tie_broken
        assert record.contributors["p"] == {
            a: tuple(sorted(c)) for a, c in result.contributors.items()
        }


def test_run_records_past_64_agents_equal_apply_rule():
    """The kernel's voter masks are wider than 64 bits and must not lose agents."""
    rng = random.Random(70)
    schema, agents = random_population(rng, 70, 2)
    ids = [agent_id for agent_id, _ in agents]
    # a000 hears no one; the rest hear 1-5 sources, so many voter sets are even-sized
    adjacency = {a: rng.sample(ids, rng.randint(1, 5)) for a in ids[1:]}
    topology = Topology.graph({ids[0]: [], **adjacency})
    truth = {"p": ((0, True), (1, False)), "q": ((0, False), (2, True))}
    scenario = Scenario(
        schema=schema,
        agents=agents,
        propositions=tuple(Proposition(p) for p in truth),
        ground_truth={p: GroundTruthSchedule(p, entries) for p, entries in truth.items()},
        error_model=ErrorModel.fixed({a: rng.choice([0.2, 0.4, 0.5]) for a in ids}),
        topology=topology,
        rules=tuple(RULES),
        steps=3,
        trials=2,
        seed=70,
        drift=tuple(DriftEvent(rng.choice(ids), "f0", step, delta=2.0) for step in (1, 2, 2)),
    )
    lattices = lattices_by_step(scenario)
    by_name = {rule.name: rule for rule in RULES}
    trace, _ = run(scenario)
    ties = 0
    for record in trace.records:
        lattice = lattices[record.step]
        for prop in truth:
            profile = make_profile(record.raw[prop], proposition=prop, step=record.step)
            result = apply_rule(by_name[record.rule], lattice, profile, topology)
            assert record.propagated[prop] == result.propagated
            assert record.tie_broken[prop] == result.tie_broken
            assert record.contributors[prop] == {
                a: tuple(sorted(c)) for a, c in result.contributors.items()
            }
            ties += sum(result.tie_broken.values())
    assert len(trace.records) == 2 * 3 * len(RULES)
    assert ties > 0


def test_group_tie_leaves_each_receiver_its_own_belief():
    """A 2-2 split under full broadcast: one group of four ties on every trial."""
    schema, agents = random_population(random.Random(4), 4, 2)
    ids = [agent_id for agent_id, _ in agents]
    scenario = simple_scenario(
        schema, agents, dict(zip(ids, (0.0, 0.0, 1.0, 1.0))), rules=[MAJORITY], steps=2, trials=3
    )
    lattices = lattices_by_step(scenario)
    trace, metrics = run(scenario)
    assert len(trace.records) == 2 * 3
    for record in trace.records:
        raw = record.raw["p"]
        assert raw == dict(zip(ids, (True, True, False, False)))
        assert record.propagated["p"] == raw
        assert all(record.tie_broken["p"].values())
        lattice = lattices[record.step]
        result = apply_rule(MAJORITY, lattice, make_profile(raw), Topology.full_broadcast())
        assert record.propagated["p"] == result.propagated
        assert record.tie_broken["p"] == result.tie_broken
    assert metrics.rules["majority"].tie_rate == 1.0
    assert metrics.rules["majority"].accuracy == 0.5
