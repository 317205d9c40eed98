"""Exact expected rule accuracy by enumeration of observation outcomes.

For scenarios with independent per-agent errors, a static dominance
relation, and constant ground truth, the collective accuracy of each rule
has a closed form: sum over all 2^n correct/incorrect outcome vectors of
the outcome probability times the fraction of receivers whose propagated
belief matches truth. This module computes that sum exactly; it is the
reference the Monte-Carlo simulator is validated against.

Outcome k is a bit mask: bit j is set when agent j observes the truth.
The weights are built by doubling: after agents 0..j-1 the first 2^j
entries hold their products, and agent j extends them to 2^(j+1) with
one multiplication each, in the same left-to-right order as a per-agent
product. The error probabilities and the groups come from the run's vote
plan (``simulator._compile``) of step 0, which holds no trace text: one
(voters, receivers) mask pair per distinct voter set, agent j at bit j,
so under full broadcast `majority` and `most-expert` are one group each.
A group's right votes in every outcome are one popcount of the outcome
masked by its voters. Each outcome's count of right receivers is an
exact small integer, divided by n into a float64 share and multiplied by
the outcome's weight; numpy's pairwise sum of those products is the
accuracy.
That sum uses no threads, so the printed digits do not depend on the BLAS
thread count. The enumeration keeps about 13 bytes per outcome (uint32
index, float64 weight, uint8 count), against about 100 for boolean
outcome-by-agent matrices; reused scratch, one float64 array of shares
included, adds 15 at peak.

All rules here are value-symmetric (they aggregate agreement, not the
truth value itself), so accuracy is independent of the truth value and of
which proposition is evaluated.
"""

from __future__ import annotations

import numpy as np

from .errors import OracleDomainError
from .lattice import DominanceLattice
from .simulator import Scenario, _compile, validate_scenario

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
    # over one set of agents, equal cover edges <=> equal dominance relation
    for step, lattice in enumerate(lattices[1:], start=1):
        if lattice.cover_edges != lattices[0].cover_edges:
            raise OracleDomainError(
                f"drift changes the dominance relation at step {step}; "
                "enumeration needs a static relation"
            )
    return lattices


def exact_rule_accuracy(scenario: Scenario) -> dict[str, float]:
    """Exact collective accuracy per rule, keyed by canonical rule name."""
    plan = _compile(scenario, check_oracle_domain(scenario)[:1]).steps[0]
    n = len(plan.error_p)

    # Outcome k: bit j set <=> agent j observes the truth. Its weight is the
    # product over j, in order j = 0..n-1, of 1 - p_j or p_j.
    outcomes = np.arange(2**n, dtype=np.uint32)
    weight = np.empty(2**n, dtype=float)
    weight[0] = 1.0
    for j, p in enumerate(plan.error_p):
        h = 1 << j
        np.multiply(weight[:h], 1.0 - p, out=weight[h : 2 * h])
        weight[:h] *= p

    masked = np.empty(2**n, dtype=np.uint32)
    votes = np.empty(2**n, dtype=np.uint8)
    right = np.empty(2**n, dtype=np.uint8)
    decided = np.empty(2**n, dtype=bool)
    shares = np.empty(2**n, dtype=float)
    accuracies: dict[str, float] = {}
    for rule in plan.rules:
        # count[k]: receivers right in outcome k; n <= MAX_ORACLE_AGENTS fits uint8
        count = np.zeros(2**n, dtype=np.uint8)
        for voters, receivers in rule.groups:
            half, odd = divmod(voters.bit_count(), 2)
            np.bitwise_and(outcomes, voters, out=masked)
            np.bitwise_count(masked, out=votes)
            np.greater(votes, half, out=decided)
            np.multiply(decided, np.uint8(receivers.bit_count()), out=right)
            count += right
            if not odd:
                # a tie leaves each receiver with its own observation
                np.equal(votes, half, out=decided)
                np.bitwise_and(outcomes, receivers, out=masked)
                np.bitwise_count(masked, out=right)
                np.multiply(right, decided, out=right)
                count += right
        np.divide(count, n, out=shares)
        shares *= weight
        accuracies[rule.name] = float(shares.sum())
    return accuracies
