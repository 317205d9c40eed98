"""Exact expected rule accuracy by enumeration of observation outcomes.

For scenarios with independent per-agent errors, a static dominance
relation, and constant ground truth, the collective accuracy of each rule
has a closed form: sum over all 2^n correct/incorrect outcome vectors of
the outcome probability times the fraction of receivers whose propagated
belief matches truth. This module computes that sum exactly, replacing
the Monte-Carlo sampling path entirely; it is the reference the simulator
is validated against.

All rules here are value-symmetric (they aggregate agreement, not the
truth value itself), so accuracy is independent of the truth value and of
which proposition is evaluated.
"""

from __future__ import annotations

import numpy as np

from .errors import OracleDomainError
from .lattice import DominanceLattice
from .simulator import Scenario, compile_voters, validate_scenario

MAX_ORACLE_AGENTS = 20


def check_oracle_domain(scenario: Scenario) -> list[DominanceLattice]:
    """Raise OracleDomainError unless the scenario has a closed form.

    Returns the per-step lattices (all sharing one dominance relation) so
    callers do not rebuild them.
    """
    lattices = validate_scenario(scenario)
    n = len(scenario.agents)
    if n > MAX_ORACLE_AGENTS:
        raise OracleDomainError(
            f"enumeration supports at most {MAX_ORACLE_AGENTS} agents, got {n}"
        )
    for prop in scenario.propositions:
        values = {value for _, value in scenario.ground_truth[prop.id].entries}
        if len(values) > 1:
            raise OracleDomainError(
                f"ground truth for {prop.id!r} changes over time; enumeration needs a constant"
            )
    relation0 = {a: lattices[0].experts_of(a) for a in lattices[0].real_ids}
    for step, lattice in enumerate(lattices[1:], start=1):
        relation = {a: lattice.experts_of(a) for a in lattice.real_ids}
        if relation != relation0:
            raise OracleDomainError(
                f"drift changes the dominance relation at step {step}; "
                "enumeration needs a static relation"
            )
    return lattices


def exact_rule_accuracy(scenario: Scenario) -> dict[str, float]:
    """Exact collective accuracy per rule, keyed by canonical rule name."""
    lattices = check_oracle_domain(scenario)
    lattice = lattices[0]
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
        voters = compile_voters(rule, lattice, scenario.topology, 0)
        receiver_correct = np.zeros((2**n, n), dtype=bool)
        for r, receiver in enumerate(agents):
            cols = [index[v] for v in voters[receiver]]
            votes = correct[:, cols].sum(axis=1)
            win = 2 * votes > len(cols)
            tie = 2 * votes == len(cols)
            receiver_correct[:, r] = win | (tie & correct[:, r])
        accuracies[rule.name] = float(weight @ (receiver_correct.mean(axis=1)))
    return accuracies
