"""Shared builders and independent oracles for the test suite.

The brute-force functions here deliberately avoid the lattice's cached
relation: reachability is recomputed by walking cover edges and the
dominance matrix by direct pairwise comparison, so they can serve as
oracles for the lattice implementation.
"""

from __future__ import annotations

import math
import random

import numpy as np

from beliefsim import (
    Belief,
    BeliefProfile,
    Comparison,
    Direction,
    ErrorModel,
    Feature,
    FeatureSchema,
    FeatureVector,
    GroundTruthSchedule,
    Metrics,
    Proposition,
    Scenario,
    Topology,
    compare,
)
from beliefsim.beliefs import TopologyMode
from beliefsim.rules import MAJORITY, MOST_EXPERT, RuleKind
from beliefsim.simulator import RuleMetrics, validate_scenario


def make_schema(directions, unit=""):
    return FeatureSchema(
        tuple(
            Feature(f"f{i}", direction, unit)
            for i, direction in enumerate(directions)
        )
    )


def random_population(rng: random.Random, n: int, d: int, lo=0, hi=6):
    """Random agents on a small integer grid so dominance chains are common."""
    directions = tuple(
        rng.choice((Direction.SMALLER_IS_BETTER, Direction.LARGER_IS_BETTER))
        for _ in range(d)
    )
    schema = make_schema(directions)
    agents = tuple(
        (f"a{i:03d}", FeatureVector(tuple(float(rng.randint(lo, hi)) for _ in range(d))))
        for i in range(n)
    )
    return schema, agents


def brute_dominates(schema, agents):
    """Pairwise O(n^2) dominance matrix: id -> set of ids it dominates."""
    result = {agent_id: set() for agent_id, _ in agents}
    for u_id, u in agents:
        for v_id, v in agents:
            if u_id != v_id and compare(u, v, schema) is Comparison.DOMINATES:
                result[u_id].add(v_id)
    return result


def brute_voters(rule, schema, agents, topology):
    """Each receiver's sorted voters from the rule definitions, over plain sets.

    Dominance comes from brute_dominates; no lattice, mask or rule code is used.
    """
    dominates = brute_dominates(schema, agents)
    ids = sorted(dominates)
    experts = {a: {u for u in ids if a in dominates[u]} for a in ids}

    def frontier(group):
        return {a for a in group if not experts[a] & group}

    result = {}
    for receiver in ids:
        if topology.mode is TopologyMode.FULL_BROADCAST:
            visible = set(ids)
        else:
            visible = set(topology.adjacency.get(receiver, ())) | {receiver}
        if rule.kind is RuleKind.MOST_EXPERT:
            voters = frontier(visible)
        elif rule.kind is RuleKind.MAJORITY:
            voters = visible
        else:
            remaining = experts[receiver] & visible
            voters = {receiver} if rule.include_self or not remaining else set()
            for _ in range(rule.depth):
                if remaining:
                    layer = frontier(remaining)
                    voters |= layer
                    remaining -= layer
        result[receiver] = tuple(sorted(voters))
    return result


def step0_voters(rule, scenario, lattice):
    """brute_voters over the qualities of step 0, whose lattice is `lattice`."""
    agents = [(a, lattice.quality_of(a)) for a in lattice.real_ids]
    return brute_voters(rule, scenario.schema, agents, scenario.topology)


def reachable_real(lattice):
    """Reachability over cover edges restricted to real nodes, by DFS."""
    succ = {}
    real = set(lattice.real_ids)
    for u, v in lattice.cover_edges:
        if u in real and v in real:
            succ.setdefault(u, set()).add(v)
    result = {}
    for start in real:
        seen = set()
        stack = list(succ.get(start, ()))
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(succ.get(node, ()))
        result[start] = seen
    return result


def make_profile(values: dict[str, bool], proposition="p", step=0) -> BeliefProfile:
    return BeliefProfile(
        step,
        proposition,
        {a: Belief(a, proposition, v) for a, v in values.items()},
    )


def simple_scenario(
    schema,
    agents,
    probabilities,
    rules=(MOST_EXPERT, MAJORITY),
    steps=1,
    trials=100,
    seed=0,
    topology=None,
    truth=True,
    drift=(),
    name="test",
) -> Scenario:
    return Scenario(
        schema=schema,
        agents=tuple(agents),
        propositions=(Proposition("p", "test proposition"),),
        ground_truth={"p": GroundTruthSchedule.constant("p", truth)},
        error_model=ErrorModel.fixed(probabilities),
        topology=topology or Topology.full_broadcast(),
        rules=tuple(rules),
        steps=steps,
        trials=trials,
        seed=seed,
        drift=tuple(drift),
        name=name,
    )


def loop_metrics(trace, scenario) -> Metrics:
    """Metrics of a complete, well-formed trace by direct per-record loops.

    The record-by-record counting that compute_metrics did before it shared
    run()'s tally; kept as an independent reference for both.
    """
    names = [rule.name for rule in scenario.rules]
    truth_at = {
        p.id: [scenario.ground_truth[p.id].value_at(s) for s in range(scenario.steps)]
        for p in scenario.propositions
    }
    correct = dict.fromkeys(names, 0)
    ties = dict.fromkeys(names, 0)
    outcomes = dict.fromkeys(names, 0)
    agent_correct, agent_total = {}, {}
    by_point = {}
    for record in trace.records:
        by_point.setdefault((record.trial, record.step), {})[record.rule] = record.propagated
        if record.rule == names[0]:
            for prop_id, values in record.raw.items():
                for agent_id, value in values.items():
                    agent_total[agent_id] = agent_total.get(agent_id, 0) + 1
                    truth = truth_at[prop_id][record.step]
                    agent_correct[agent_id] = agent_correct.get(agent_id, 0) + (value == truth)
        for prop_id, values in record.propagated.items():
            for agent_id, value in values.items():
                outcomes[record.rule] += 1
                correct[record.rule] += value == truth_at[prop_id][record.step]
                ties[record.rule] += bool(record.tie_broken[prop_id][agent_id])
    pair_diff, pair_total = {}, {}
    for results in by_point.values():
        for i, left in enumerate(names):
            for right in names[i + 1 :]:
                key = f"{left}|{right}"
                for prop_id, values in results[left].items():
                    for agent_id, value in values.items():
                        pair_total[key] = pair_total.get(key, 0) + 1
                        diff = value != results[right][prop_id][agent_id]
                        pair_diff[key] = pair_diff.get(key, 0) + diff
    rules = {}
    for name in names:
        n = outcomes[name]
        acc = correct[name] / n
        half = 1.96 * math.sqrt(acc * (1.0 - acc) / n)
        rules[name] = RuleMetrics(
            name, acc, max(0.0, acc - half), min(1.0, acc + half), ties[name] / n, n
        )
    return Metrics(
        rules,
        {a: agent_correct[a] / agent_total[a] for a in agent_total},
        {key: pair_diff[key] / pair_total[key] for key in pair_total},
        scenario.trials,
        scenario.steps,
    )


def matrix_rule_accuracy(scenario: Scenario) -> dict[str, float]:
    """Exact rule accuracy by the boolean-matrix enumeration.

    The kernel exact_rule_accuracy used before it voted by popcount over
    bit-mask outcomes; kept as an independent reference for it. Voters come
    from brute_voters, so it shares no voter code with the oracle. Only for
    scenarios inside the oracle's domain (no domain checks here).
    """
    lattice = validate_scenario(scenario)[0]
    agents = lattice.real_ids
    n = len(agents)
    index = {agent_id: i for i, agent_id in enumerate(agents)}
    p = np.array(
        [scenario.error_model.probability_for(a, lattice) for a in agents], dtype=float
    )

    # correct[k, j]: in outcome k, does agent j observe the truth?
    outcomes = np.arange(2**n, dtype=np.int64)
    correct = np.empty((2**n, n), dtype=bool)
    weight = np.ones(2**n, dtype=float)
    for j in range(n):
        correct[:, j] = (outcomes >> j) & 1
        weight *= np.where(correct[:, j], 1.0 - p[j], p[j])

    accuracies: dict[str, float] = {}
    for rule in scenario.rules:
        voters = step0_voters(rule, scenario, lattice)
        receiver_correct = np.zeros((2**n, n), dtype=bool)
        for r, receiver in enumerate(agents):
            cols = [index[v] for v in voters[receiver]]
            votes = correct[:, cols].sum(axis=1)
            win = 2 * votes > len(cols)
            tie = 2 * votes == len(cols)
            receiver_correct[:, r] = win | (tie & correct[:, r])
        shares = receiver_correct.mean(axis=1)
        shares *= weight
        accuracies[rule.name] = float(shares.sum())
    return accuracies


def poisson_binomial_rule_accuracy(scenario: Scenario) -> dict[str, float]:
    """Exact rule accuracy per receiver from the distribution of correct votes.

    Pure Python and linear in the voters per receiver, so it reaches the
    oracle's 20-agent cap cheaply; voters come from brute_voters. A receiver
    is right when more than half of its m voters are right, or on an exact
    tie when its own observation is right; when it votes itself, the tie
    needs m/2 - 1 right among the others and its own observation right.
    """
    lattice = validate_scenario(scenario)[0]
    agents = lattice.real_ids
    p = {a: scenario.error_model.probability_for(a, lattice) for a in agents}

    def right_counts(voters):
        dist = [1.0]
        for v in voters:
            q = 1.0 - p[v]
            nxt = [0.0] * (len(dist) + 1)
            for k, mass in enumerate(dist):
                nxt[k] += mass * p[v]
                nxt[k + 1] += mass * q
            dist = nxt
        return dist

    accuracies: dict[str, float] = {}
    for rule in scenario.rules:
        voters = step0_voters(rule, scenario, lattice)
        total = 0.0
        for receiver in agents:
            m = len(voters[receiver])
            dist = right_counts(voters[receiver])
            share = sum(mass for k, mass in enumerate(dist) if 2 * k > m)
            if m % 2 == 0:
                own = 1.0 - p[receiver]
                if receiver in voters[receiver]:
                    others = right_counts([v for v in voters[receiver] if v != receiver])
                    share += own * others[m // 2 - 1]
                else:
                    share += own * dist[m // 2]
            total += share
        accuracies[rule.name] = total / len(agents)
    return accuracies
