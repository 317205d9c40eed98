"""Compiled voter sets against the per-profile rule path.

The simulator reads each receiver's voters once per (step, rule) and
votes every trial over them. That rests on one property: apply_rule's
contributors never depend on the belief profile. These tests check the
property and that the compiled vote reproduces apply_rule exactly.
"""

import random

import pytest
from hypothesis import given, strategies as st

from beliefsim import DriftEvent, Rule, RuleKind, Topology, build, run
from beliefsim.rules import MAJORITY, MOST_EXPERT, _vote, apply_rule
from beliefsim.simulator import compile_voters, lattices_by_step

from support import make_profile, random_population, simple_scenario

RULES = [MOST_EXPERT, MAJORITY] + [
    Rule(RuleKind.SUBGROUP_EXPERT, depth, include_self)
    for depth in (1, 2, 3)
    for include_self in (False, True)
]


@st.composite
def rule_cases(draw):
    """A random lattice and topology, a rule, a step and two belief profiles."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 9))
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
    voters = compile_voters(rule, lattice, topology, step)
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
