import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

import beliefsim
from beliefsim import oracle
from beliefsim import (
    Direction,
    DriftEvent,
    FeatureVector,
    OracleDomainError,
    GroundTruthSchedule,
    Rule,
    RuleKind,
    Topology,
    exact_rule_accuracy,
    run,
    save_scenario,
)
from beliefsim.rules import MAJORITY, MOST_EXPERT
from beliefsim.oracle import MAX_ORACLE_AGENTS
from support import (
    make_schema,
    matrix_rule_accuracy,
    poisson_binomial_rule_accuracy,
    random_population,
    simple_scenario,
)

S = Direction.SMALLER_IS_BETTER


# -- independent reference enumerators (no engine code) ------------------------

def enum_unique_expert_accuracy(error_probs, expert):
    """Every receiver copies the unique top agent, so accuracy is 1 - p_expert."""
    return 1.0 - error_probs[expert]


def enum_majority_accuracy(error_probs):
    """Full-broadcast majority with ties resolved by each receiver's own belief."""
    agents = sorted(error_probs)
    total = 0.0
    for correct in itertools.product((True, False), repeat=len(agents)):
        weight = 1.0
        for agent, ok in zip(agents, correct):
            weight *= (1.0 - error_probs[agent]) if ok else error_probs[agent]
        right = sum(correct)
        wrong = len(agents) - right
        if right > wrong:
            share = 1.0
        elif wrong > right:
            share = 0.0
        else:
            share = right / len(agents)  # tie: exactly the correct receivers stay correct
        total += weight * share
    return total


def three_agent_scenario(trials=10_000, seed=7):
    schema = make_schema((S, S))
    agents = (
        ("a1", FeatureVector((1, 1))),
        ("a2", FeatureVector((2, 3))),
        ("a3", FeatureVector((3, 2))),
    )
    return simple_scenario(
        schema, agents, {"a1": 0.1, "a2": 0.4, "a3": 0.4}, trials=trials, seed=seed
    )


def four_agent_scenario(trials=10_000, seed=11):
    schema = make_schema((S, S))
    agents = (
        ("e1", FeatureVector((1, 1))),
        ("l1", FeatureVector((2, 2))),
        ("l2", FeatureVector((3, 3))),
        ("l3", FeatureVector((2, 3))),
    )
    return simple_scenario(
        schema,
        agents,
        {"e1": 0.3, "l1": 0.05, "l2": 0.05, "l3": 0.05},
        trials=trials,
        seed=seed,
    )


class TestExactValues:
    def test_three_agent_frozen_values(self):
        accuracies = exact_rule_accuracy(three_agent_scenario())
        assert math.isclose(accuracies["most-expert"], 0.90, abs_tol=1e-12)
        assert math.isclose(accuracies["majority"], 0.792, abs_tol=1e-12)

    def test_three_agent_matches_reference_enumerator(self):
        probs = {"a1": 0.1, "a2": 0.4, "a3": 0.4}
        accuracies = exact_rule_accuracy(three_agent_scenario())
        assert math.isclose(
            accuracies["most-expert"], enum_unique_expert_accuracy(probs, "a1"), abs_tol=1e-12
        )
        assert math.isclose(
            accuracies["majority"], enum_majority_accuracy(probs), abs_tol=1e-12
        )

    def test_four_agent_frozen_values(self):
        accuracies = exact_rule_accuracy(four_agent_scenario())
        assert math.isclose(accuracies["most-expert"], 0.70, abs_tol=1e-12)
        assert math.isclose(accuracies["majority"], 0.9749375, abs_tol=1e-12)

    def test_four_agent_matches_reference_enumerator(self):
        probs = {"e1": 0.3, "l1": 0.05, "l2": 0.05, "l3": 0.05}
        accuracies = exact_rule_accuracy(four_agent_scenario())
        assert math.isclose(
            accuracies["majority"], enum_majority_accuracy(probs), abs_tol=1e-12
        )

    def test_noiseless_is_exactly_one(self):
        schema, agents = random_population(__import__("random").Random(1), 5, 2)
        scenario = simple_scenario(schema, agents, {a: 0.0 for a, _ in agents})
        for accuracy in exact_rule_accuracy(scenario).values():
            assert accuracy == 1.0


class TestSimulationAgreement:
    def test_three_agent_within_three_sigma(self):
        scenario = three_agent_scenario()
        exact = exact_rule_accuracy(scenario)
        _, metrics = run(scenario)
        for name, target in exact.items():
            sigma = math.sqrt(target * (1 - target) / scenario.trials)
            assert abs(metrics.rules[name].accuracy - target) <= 3 * sigma

    def test_four_agent_within_three_sigma(self):
        scenario = four_agent_scenario()
        exact = exact_rule_accuracy(scenario)
        _, metrics = run(scenario)
        for name, target in exact.items():
            sigma = math.sqrt(target * (1 - target) / scenario.trials)
            assert abs(metrics.rules[name].accuracy - target) <= 3 * sigma

    def test_graph_topology_within_three_sigma(self):
        # star topology: only the hub hears everyone, leaves hear just the hub
        schema = make_schema((S, S))
        agents = (
            ("hub", FeatureVector((1, 1))),
            ("x", FeatureVector((2, 3))),
            ("y", FeatureVector((3, 2))),
        )
        topology = Topology.graph({"hub": ["x", "y"], "x": ["hub"], "y": ["hub"]})
        scenario = simple_scenario(
            schema,
            agents,
            {"hub": 0.2, "x": 0.3, "y": 0.25},
            topology=topology,
            trials=20_000,
            seed=13,
        )
        exact = exact_rule_accuracy(scenario)
        _, metrics = run(scenario)
        for name, target in exact.items():
            sigma = math.sqrt(target * (1 - target) / scenario.trials)
            assert abs(metrics.rules[name].accuracy - target) <= 3 * sigma


class TestDomainChecks:
    def test_rejects_more_than_twenty_agents(self):
        schema, agents = random_population(__import__("random").Random(2), 21, 2)
        scenario = simple_scenario(schema, agents, {a: 0.1 for a, _ in agents})
        with pytest.raises(OracleDomainError):
            exact_rule_accuracy(scenario)

    def test_rejects_changing_truth(self):
        scenario = three_agent_scenario()
        scenario = replace(
            scenario,
            steps=3,
            ground_truth={"p": GroundTruthSchedule("p", ((0, True), (2, False)))},
        )
        with pytest.raises(OracleDomainError):
            exact_rule_accuracy(scenario)

    def test_rejects_relation_changing_drift(self):
        scenario = three_agent_scenario()
        scenario = replace(
            scenario, steps=2, drift=(DriftEvent("a1", "f0", 1, value=9.0),)
        )
        with pytest.raises(OracleDomainError):
            exact_rule_accuracy(scenario)

    def test_relation_changing_drift_names_its_step(self):
        scenario = three_agent_scenario()
        drift = (DriftEvent("a1", "f0", 1, value=1.5), DriftEvent("a1", "f0", 2, value=9.0))
        scenario = replace(scenario, steps=3, drift=drift)
        with pytest.raises(OracleDomainError, match=r"^drift changes the dominance relation at step 2;"):
            exact_rule_accuracy(scenario)

    def test_accepts_relation_preserving_drift(self):
        scenario = three_agent_scenario()
        scenario = replace(
            scenario, steps=2, drift=(DriftEvent("a1", "f0", 1, value=1.5),)
        )
        accuracies = exact_rule_accuracy(scenario)
        assert math.isclose(accuracies["most-expert"], 0.90, abs_tol=1e-12)


# -- the enumeration kernel against the boolean-matrix reference --------------

ALL_RULES = (MOST_EXPERT, MAJORITY) + tuple(
    Rule(RuleKind.SUBGROUP_EXPERT, depth, include_self)
    for depth in (1, 2, 3)
    for include_self in (False, True)
)


@st.composite
def oracle_scenarios(draw):
    """A random in-domain scenario under every rule kind.

    Graph topologies always leave the first receiver hearing no one.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 12))
    schema, agents = random_population(rng, n, draw(st.integers(1, 3)))
    ids = [agent_id for agent_id, _ in agents]
    probability = st.one_of(
        st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0, allow_nan=False)
    )
    probabilities = {a: draw(probability) for a in ids}
    if draw(st.booleans()):
        topology = Topology.full_broadcast()
    else:
        adjacency = {a: draw(st.sets(st.sampled_from(ids))) for a in ids}
        adjacency[ids[0]] = set()
        topology = Topology.graph(adjacency)
    return simple_scenario(schema, agents, probabilities, rules=ALL_RULES, topology=topology)


@settings(max_examples=80, deadline=None)
@given(oracle_scenarios())
def test_enumeration_equals_matrix_reference_exactly(scenario):
    accuracies = exact_rule_accuracy(scenario)
    reference = matrix_rule_accuracy(scenario)
    assert list(accuracies) == list(reference)
    for name, value in reference.items():
        assert accuracies[name] == value, name


# Outcome k = hi * 2^(n//2) + lo, so agents 0..n//2-1 are the low half.
# Under a graph, a receiver's majority voters are its sources and itself.
SPLIT_GRAPHS = {
    # n = 1: the low half is empty; n = 2 and 3: it is one bit wide
    "one agent": (1, None),
    "two agents": (2, None),
    "three agents": (3, None),
    # voters {0, 2} one per half, even; {1} high, odd; {1, 2} high, even
    "three agents, split pairs": (3, {"a000": ["a002"], "a001": [], "a002": ["a001"]}),
    # voters {0, 1} all low, even; {1} low, odd; {2} high, odd; {2, 3} high, even
    "four agents, each half alone": (4, {"a000": ["a001"], "a001": [], "a002": [], "a003": ["a002"]}),
    # {2, 3, 4} all high, odd; {0, 1, 2, 3} both halves, even; {0, 1, 4} both, odd
    "five agents": (5, {"a000": ["a001", "a002", "a003"], "a001": ["a000", "a004"], "a002": [],
                        "a003": [], "a004": ["a002", "a003"]}),
}


@pytest.mark.parametrize("name", SPLIT_GRAPHS)
def test_split_halves_equal_matrix_reference_exactly(name):
    n, adjacency = SPLIT_GRAPHS[name]
    schema, agents = random_population(random.Random(n), n, 2)
    probabilities = {agent_id: 0.05 + 0.1 * i for i, (agent_id, _) in enumerate(agents)}
    topology = Topology.full_broadcast() if adjacency is None else Topology.graph(adjacency)
    scenario = simple_scenario(schema, agents, probabilities, rules=ALL_RULES, topology=topology)
    assert exact_rule_accuracy(scenario) == matrix_rule_accuracy(scenario)


# (agents, sources per receiver under a graph, or None for full broadcast).
# An odd source count gives each majority voter set an even size, so ties.
BLOCK_CASES = [(10, None), (11, 1), (12, 3), (13, None)]


@pytest.mark.parametrize("block_bits", [7, 8, 9])
@pytest.mark.parametrize("n, sources", BLOCK_CASES)
def test_blocks_equal_matrix_reference_exactly(monkeypatch, n, sources, block_bits):
    # Each scenario spans 2 to 64 blocks; the accuracy adds the block sums
    # pairwise, so it must equal one numpy sum over all 2^n outcomes.
    monkeypatch.setattr(oracle, "BLOCK_OUTCOMES", 2**block_bits)
    rng = random.Random(n)
    schema, agents = random_population(rng, n, 2)
    ids = [agent_id for agent_id, _ in agents]
    probabilities = {agent_id: rng.uniform(0.05, 0.45) for agent_id in ids}
    probabilities.update(zip(rng.sample(ids, 3), (0.0, 0.5, 1.0)))
    topology = Topology.full_broadcast()
    if sources is not None:
        topology = Topology.graph(
            {a: rng.sample([b for b in ids if b != a], sources) for a in ids}
        )
    scenario = simple_scenario(schema, agents, probabilities, rules=ALL_RULES, topology=topology)
    assert exact_rule_accuracy(scenario) == matrix_rule_accuracy(scenario)


@pytest.mark.parametrize("graph", [False, True])
def test_cap_sized_scenario_matches_poisson_binomial(graph):
    rng = random.Random(20)
    schema, agents = random_population(rng, MAX_ORACLE_AGENTS, 2)
    ids = [agent_id for agent_id, _ in agents]
    topology = Topology.full_broadcast()
    if graph:
        adjacency = {a: rng.sample(ids, rng.randint(0, 12)) for a in ids}
        adjacency[ids[0]] = []
        topology = Topology.graph(adjacency)
    probabilities = {a: rng.uniform(0.05, 0.45) for a in ids}
    scenario = simple_scenario(
        schema, agents, probabilities, rules=ALL_RULES, topology=topology
    )
    accuracies = exact_rule_accuracy(scenario)
    reference = poisson_binomial_rule_accuracy(scenario)
    assert list(accuracies) == list(reference)
    for name, value in reference.items():
        assert math.isclose(accuracies[name], value, rel_tol=0.0, abs_tol=1e-12), name


def test_printed_digits_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS reads its thread count once, at import, so each count needs
    # its own process. A BLAS dot of 2^20 terms splits the sum by thread.
    rng = random.Random(21)
    schema, agents = random_population(rng, MAX_ORACLE_AGENTS, 2)
    probabilities = {agent_id: rng.uniform(0.05, 0.45) for agent_id, _ in agents}
    path = tmp_path / "twenty.scn"
    save_scenario(simple_scenario(schema, agents, probabilities, rules=ALL_RULES), path)
    package_parent = str(Path(beliefsim.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_parent, os.environ.get("PYTHONPATH")]))
    printed = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run(
            [sys.executable, "-m", "beliefsim", "oracle", str(path)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert done.returncode == 0, done.stderr
        printed.append(done.stdout)
    assert printed[0] == printed[1]


def test_enumeration_frees_each_rules_arrays_before_the_next():
    # Outcomes are enumerated in blocks of oracle.BLOCK_OUTCOMES (2^16), so
    # no array has 2^n entries: the block's weights and one rule's count,
    # gather and shares, about 17 B per block outcome, beside every rule's
    # small per-group tables. 20 agents and 4 rules peak at 2.4 MiB. The
    # bound does not grow with n: a float64 array over all 2^20 outcomes
    # alone would pass it twice over.
    rng = random.Random(22)
    schema, agents = random_population(rng, MAX_ORACLE_AGENTS, 3)
    probabilities = {agent_id: rng.uniform(0.05, 0.45) for agent_id, _ in agents}
    rules = (MOST_EXPERT, MAJORITY, Rule(RuleKind.SUBGROUP_EXPERT, 1, False),
             Rule(RuleKind.SUBGROUP_EXPERT, 2, True))
    scenario = simple_scenario(schema, agents, probabilities, rules=rules)
    tracemalloc.start()
    try:
        exact_rule_accuracy(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
