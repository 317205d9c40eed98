"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import itertools
import json
import math
import random
from contextlib import contextmanager

from beliefsim import (
    Comparison,
    Direction,
    DriftEvent,
    FeatureVector,
    Rule,
    RuleKind,
    Topology,
    apply_majority,
    apply_most_expert,
    apply_rule,
    apply_subgroup_expert,
    build,
    build_intersection_scenario,
    check_consistency,
    compare,
    exact_rule_accuracy,
    join,
    lattices_by_step,
    meet,
    run,
)
from beliefsim.cli import main as cli_main
from beliefsim.rules import MAJORITY, MOST_EXPERT

from support import (
    brute_dominates,
    make_profile,
    make_schema,
    random_population,
    reachable_real,
    simple_scenario,
)

S = Direction.SMALLER_IS_BETTER
L = Direction.LARGER_IS_BETTER
FULL = Topology.full_broadcast()


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {title}")
        raise
    print(f"[criterion {number}] PASS - {title}")


def test_criterion_1_intersection_example_fidelity():
    with criterion(1, "intersection example: s2/s3 incomparable, expert sets exact"):
        scenario = build_intersection_scenario()
        lattice = build(scenario.schema, scenario.agents)
        q = dict(scenario.agents)
        assert compare(q["s2"], q["s3"], scenario.schema) is Comparison.INCOMPARABLE
        assert lattice.experts_of("s4") == {"s1", "s2", "s3"}
        assert lattice.experts_of("s1") == set()


def test_criterion_2_partial_order_property_suite():
    with criterion(2, "1000 random triples per direction mix: order laws, zero violations"):
        rng = random.Random(20240917)
        for directions in itertools.product((S, L), repeat=2):
            schema = make_schema(directions)
            for _ in range(1000):
                u, v, w = (
                    FeatureVector((float(rng.randint(-3, 3)), float(rng.randint(-3, 3))))
                    for _ in range(3)
                )
                # irreflexivity
                assert compare(u, u, schema) is Comparison.EQUAL
                # mirror symmetry
                assert compare(u, v, schema) is compare(v, u, schema).mirrored()
                # antisymmetry
                if compare(u, v, schema) is Comparison.DOMINATES:
                    assert compare(v, u, schema) is not Comparison.DOMINATES
                # transitivity
                if (
                    compare(u, v, schema) is Comparison.DOMINATES
                    and compare(v, w, schema) is Comparison.DOMINATES
                ):
                    assert compare(u, w, schema) is Comparison.DOMINATES
                # absorption
                assert join(u, meet(u, v, schema), schema) == u
                assert meet(u, join(u, v, schema), schema) == u


def test_criterion_3_lattice_oracle_equivalence():
    with criterion(3, "200 random lattices + 100 mutations equal the brute-force oracle"):
        rng = random.Random(31337)
        for _ in range(200):
            n = rng.randint(1, 100)
            d = rng.randint(1, 6)
            schema, agents = random_population(rng, n, d)
            lattice = build(schema, agents)
            oracle = brute_dominates(schema, agents)
            assert reachable_real(lattice) == oracle
            dominated_by = {a: set() for a in oracle}
            for u, below in oracle.items():
                for v in below:
                    dominated_by[v].add(u)
            for agent in lattice.real_ids:
                assert lattice.experts_of(agent) == dominated_by[agent]
                assert lattice.less_experts_of(agent) == oracle[agent]
            among = set(rng.sample(lattice.real_ids, rng.randint(1, n)))
            expected_frontier = {
                a for a in among if not any(a in oracle[b] for b in among if b != a)
            }
            assert lattice.maximal_frontier(among) == expected_frontier

        schema, agents = random_population(rng, 40, 3)
        population = dict(agents)
        lattice = build(schema, agents)
        fresh = 0
        for _ in range(100):
            op = rng.choice(("update", "insert", "remove"))
            if op == "update":
                agent = rng.choice(sorted(population))
                vec = FeatureVector(tuple(float(rng.randint(0, 6)) for _ in range(3)))
                population[agent] = vec
                lattice = lattice.update_quality(agent, vec)
            elif op == "insert":
                agent = f"x{fresh:03d}"
                fresh += 1
                vec = FeatureVector(tuple(float(rng.randint(0, 6)) for _ in range(3)))
                population[agent] = vec
                lattice = lattice.insert(agent, vec)
            else:
                agent = rng.choice(sorted(population))
                del population[agent]
                lattice = lattice.remove(agent)
            rebuilt = build(schema, tuple(sorted(population.items())))
            assert lattice == rebuilt
            assert lattice.snapshot_text() == rebuilt.snapshot_text()
            for agent in lattice.real_ids:
                assert lattice.experts_of(agent) == rebuilt.experts_of(agent)


def _three_agent_scenario():
    schema = make_schema((S, S))
    agents = (
        ("a1", FeatureVector((1, 1))),
        ("a2", FeatureVector((2, 3))),
        ("a3", FeatureVector((3, 2))),
    )
    return simple_scenario(
        schema, agents, {"a1": 0.1, "a2": 0.4, "a3": 0.4}, trials=10_000, seed=7
    )


def _four_agent_scenario():
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
        trials=10_000,
        seed=11,
    )


def test_criterion_4_rule_semantics_vs_exact_enumeration():
    with criterion(4, "enumerated accuracies exact; 10k-trial simulation within 3 sigma"):
        three = _three_agent_scenario()
        exact3 = exact_rule_accuracy(three)
        assert math.isclose(exact3["most-expert"], 0.90, abs_tol=1e-12)
        assert math.isclose(exact3["majority"], 0.792, abs_tol=1e-12)
        # trusting the unique expert beats a vote diluted by two noisy agents
        assert exact3["most-expert"] > exact3["majority"]
        _, metrics3 = run(three)
        for name, target in exact3.items():
            sigma = math.sqrt(target * (1 - target) / three.trials)
            assert abs(metrics3.rules[name].accuracy - target) <= 3 * sigma

        four = _four_agent_scenario()
        exact4 = exact_rule_accuracy(four)
        assert math.isclose(exact4["most-expert"], 0.70, abs_tol=1e-12)
        assert exact4["majority"] > 0.9
        # a shaky top expert is a single point of failure; the vote rescues it
        assert exact4["majority"] > exact4["most-expert"]
        _, metrics4 = run(four)
        for name, target in exact4.items():
            sigma = math.sqrt(target * (1 - target) / four.trials)
            assert abs(metrics4.rules[name].accuracy - target) <= 3 * sigma
        assert metrics3.rules["most-expert"].accuracy > metrics3.rules["majority"].accuracy
        assert metrics4.rules["majority"].accuracy > metrics4.rules["most-expert"].accuracy


def test_criterion_5_cli_determinism(scenario_dir, tmp_path):
    with criterion(5, "cmd_run outputs byte-identical across reruns"):
        src = str(scenario_dir / "intersection.scn")
        dirs = [tmp_path / name for name in ("a", "b")]
        assert cli_main(["run", src, "--trials", "200", "--out-dir", str(dirs[0])]) == 0
        assert cli_main(["run", src, "--trials", "200", "--out-dir", str(dirs[1])]) == 0
        for name in ("trace.jsonl", "metrics.json", "metrics.csv"):
            reference = (dirs[0] / name).read_bytes()
            assert (dirs[1] / name).read_bytes() == reference


def test_criterion_6_rule_invariants():
    with criterion(6, "unanimity, anonymity, frontier insensitivity, subgroup=most-expert"):
        rng = random.Random(424242)

        # unanimity for all three rules
        rules = [MOST_EXPERT, MAJORITY, Rule(RuleKind.SUBGROUP_EXPERT, 2, True)]
        for _ in range(50):
            schema, agents = random_population(rng, rng.randint(1, 10), 2)
            lattice = build(schema, agents)
            value = rng.random() < 0.5
            profile = make_profile({a: value for a in lattice.real_ids})
            for rule in rules:
                result = apply_rule(rule, lattice, profile, FULL)
                assert all(v is value for v in result.propagated.values())

        # majority anonymity under 100 random relabelings fixing the receiver
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
            assert apply_majority(make_profile(permuted), receiver).value == baseline.value

        # most-expert ignores flips of non-frontier, non-receiver beliefs: 500 cases
        checked = 0
        while checked < 500:
            schema, agents = random_population(rng, rng.randint(3, 10), 2)
            lattice = build(schema, agents)
            receiver = rng.choice(lattice.real_ids)
            frontier = lattice.maximal_frontier(set(lattice.real_ids))
            outsiders = [a for a in lattice.real_ids if a not in frontier and a != receiver]
            if not outsiders:
                continue
            values = {a: rng.random() < 0.5 for a in lattice.real_ids}
            baseline = apply_most_expert(lattice, make_profile(values), FULL, receiver)
            values[rng.choice(outsiders)] ^= True
            outcome = apply_most_expert(lattice, make_profile(values), FULL, receiver)
            assert outcome.value == baseline.value
            checked += 1

        # subgroup depth 1 equals most-expert on 100 singleton-frontier scenarios
        for _ in range(100):
            schema, agents = random_population(rng, rng.randint(2, 8), 2)
            best = FeatureVector(
                tuple(min(v.values[i] for _, v in agents) - 1.0 for i in range(2))
            )
            lattice = build(make_schema((S, S)), (("zz_top", best),) + tuple(agents))
            assert lattice.maximal_frontier(set(lattice.real_ids)) == {"zz_top"}
            profile = make_profile({a: rng.random() < 0.5 for a in lattice.real_ids})
            for receiver in lattice.real_ids:
                expert = apply_most_expert(lattice, profile, FULL, receiver)
                subgroup = apply_subgroup_expert(lattice, profile, FULL, receiver, 1, False)
                assert subgroup.value == expert.value


def test_criterion_7_dynamic_lattice_swaps_contributors_at_step_k():
    with criterion(7, "dominance swap at step k moves most-expert contributors at step k"):
        k, steps = 3, 6
        schema = make_schema((S, S))
        agents = (
            ("s1", FeatureVector((1, 1))),
            ("s2", FeatureVector((3, 2))),
            ("s3", FeatureVector((2, 3))),
            ("s4", FeatureVector((4, 4))),
        )
        drift = (
            DriftEvent("s1", "f0", k, value=4.0),
            DriftEvent("s1", "f1", k, value=3.0),
        )
        scenario = simple_scenario(
            schema,
            agents,
            {a: 0.0 for a, _ in agents},
            rules=(MOST_EXPERT,),
            steps=steps,
            trials=1,
            drift=drift,
        )
        lattices = lattices_by_step(scenario)
        values = {a: list(v.values) for a, v in agents}
        for step, lattice in enumerate(lattices):
            for event in drift:
                if event.step == step:
                    values[event.agent][schema.index_of(event.feature)] = event.value
            rebuilt = build(
                schema, tuple((a, FeatureVector(tuple(v))) for a, v in values.items())
            )
            assert lattice == rebuilt  # per-step rebuild oracle
            if step < k:
                assert "s1" in lattice.experts_of("s2")
                assert "s2" not in lattice.experts_of("s1")
            else:
                assert "s2" in lattice.experts_of("s1")  # dominance swapped
                assert "s1" not in lattice.experts_of("s2")

        trace, _ = run(scenario)
        for record in trace.records:
            for contributors in record.contributors["p"].values():
                if record.step < k:
                    assert contributors == ("s1",)
                else:
                    assert contributors == ("s2", "s3")


def test_criterion_8_consistency_reporting():
    with criterion(8, "dissenting expert flags every receiver; unanimity flags none"):
        scenario = build_intersection_scenario()
        lattice = build(scenario.schema, scenario.agents)
        dissent = make_profile({"s1": False, "s2": True, "s3": True, "s4": True})
        report = check_consistency([MOST_EXPERT, MAJORITY], lattice, dissent, FULL)
        assert report.receivers_with_contradictions == {"s1", "s2", "s3", "s4"}
        for pairs in report.contradictions.values():
            assert ("most-expert", "majority") in pairs

        unanimous = make_profile({a: True for a in lattice.real_ids})
        report = check_consistency([MOST_EXPERT, MAJORITY], lattice, unanimous, FULL)
        assert not report.has_contradictions
        assert report.receivers_with_contradictions == set()
