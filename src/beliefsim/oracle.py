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
The enumeration is split in two halves of the bits: with L = n // 2,
outcome k = hi * 2^L + lo, and the count of right receivers is a
(2^(n-L), 2^L) uint8 grid whose row-major order is k's. A group's right
votes in outcome k are its right high-half voters plus its right low-half
voters, so per group a small table, indexed by (right high-half voters,
right high-half receivers) and one column per lo, holds the group's right
receivers; one gather by the popcounts of every hi adds its rows into the
grid. Each outcome's count is an exact small integer, divided by n into a
float64 share and multiplied by the outcome's weight, over the flat grid
in the order of k; numpy's pairwise sum of those products is the accuracy.
That sum uses no threads, so the printed digits do not depend on the BLAS
thread count. The enumeration keeps about 9 bytes per outcome (float64
weight, uint8 count), against about 100 for boolean outcome-by-agent
matrices. One rule's temporaries, a uint8 gather per group and then its
float64 shares, add at most about 8 and are freed before the next rule
runs: under tracemalloc, 20 agents and 4 rules peak at 17.2 MiB.

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
    weight = np.empty(2**n, dtype=float)
    weight[0] = 1.0
    for j, p in enumerate(plan.error_p):
        h = 1 << j
        np.multiply(weight[:h], 1.0 - p, out=weight[h : 2 * h])
        weight[:h] *= p

    return {rule.name: _accuracy(rule.groups, weight, n) for rule in plan.rules}


def _accuracy(groups, weight: np.ndarray, n: int) -> float:
    """One rule's accuracy; its 2^n temporaries die when it returns, before the next rule's."""
    # Outcome k = hi * 2^low + lo. count[hi, lo]: receivers right in outcome k;
    # n <= MAX_ORACLE_AGENTS fits uint8.
    low = n // 2
    his = np.arange(2 ** (n - low), dtype=np.uint32)
    los = np.arange(2**low, dtype=np.uint32)
    count = np.zeros((his.size, los.size), dtype=np.uint8)
    for voters, receivers in groups:
        high_voters, low_voters = divmod(voters, los.size)
        half, odd = divmod(voters.bit_count(), 2)
        # votes[a, lo]: right votes when a of the group's high-half voters are right
        votes = np.arange(high_voters.bit_count() + 1, dtype=np.uint8)[:, None]
        votes = votes + np.bitwise_count(los & low_voters)
        table = (votes > half) * np.uint8(receivers.bit_count())
        rows = np.bitwise_count(his & high_voters)
        if not odd:
            # A tie leaves each receiver with its own observation. Rows of the
            # table become (a, b) pairs, b the right high-half receivers; at
            # most 11 x 11 of them, so uint8 row indices suffice.
            high_receivers, low_receivers = divmod(receivers, los.size)
            right = np.arange(high_receivers.bit_count() + 1, dtype=np.uint8)[:, None]
            right = right + np.bitwise_count(los & low_receivers)
            table = (table[:, None] + (votes == half)[:, None] * right).reshape(-1, los.size)
            rows = rows * len(right) + np.bitwise_count(his & high_receivers)
        count += table[rows]
    shares = count.reshape(-1) / n
    shares *= weight
    return float(shares.sum())
