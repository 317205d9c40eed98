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
outcome k = hi * 2^L + lo. A group's right votes in outcome k are its
right high-half voters plus its right low-half voters, so per group a
small table, indexed by (right high-half voters, right high-half
receivers) and one column per lo, holds the group's right receivers, and
the popcounts of every hi index its rows. Both are built before any
outcome is visited.

Outcomes are visited in blocks of BLOCK_OUTCOMES consecutive k, a fixed
run of his, so no array has 2^n entries. A block's weights start from
the products over the agents whose bits vary inside it, built once by
doubling, and are multiplied by each remaining agent's factor in agent
order: the same left-to-right product as over all 2^n outcomes. Per rule
and block, one gather per group adds the table rows into a uint8 grid of
right receivers, an exact small integer per outcome; divided by n into a
float64 share and multiplied by the weight, the block's products are
summed by numpy's pairwise sum. 2^n and the block are powers of two and a
block holds at least numpy's 128-term pairwise leaf, so each block sum is
a subtree of numpy's pairwise sum over all 2^n products in the order of
k, and adding the block sums in adjacent pairs, level by level, gives
that sum's digits. The sums use no threads, so the printed digits do not
depend on the BLAS thread count. Per block outcome the enumeration keeps
a float64 weight and one rule's uint8 grid, gather and float64 shares:
under tracemalloc, 20 agents and 4 rules peak at 2.4 MiB.

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
# Outcomes per block of the enumeration: a power of two, at least numpy's
# 128-term pairwise-sum leaf, so each block's sum is a subtree of the sum
# over all 2^n outcomes, and at least 2^(n // 2), one row of the count grid.
BLOCK_OUTCOMES = 2**16


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
    # Outcome k = hi * 2^low + lo; a block is `rows` consecutive his.
    low = n // 2
    his = np.arange(2 ** (n - low), dtype=np.uint32)
    los = np.arange(2**low, dtype=np.uint32)
    rows = min(BLOCK_OUTCOMES >> low, his.size)
    inner = (rows * los.size).bit_length() - 1  # agents 0..inner-1 vary inside a block

    # Outcome k: bit j set <=> agent j observes the truth. Its weight is the
    # product over j, in order j = 0..n-1, of 1 - p_j or p_j. Every block
    # starts from the same products over the inner agents.
    inner_weight = np.empty(rows * los.size, dtype=float)
    inner_weight[0] = 1.0
    for j, p in enumerate(plan.error_p[:inner]):
        h = 1 << j
        np.multiply(inner_weight[:h], 1.0 - p, out=inner_weight[h : 2 * h])
        inner_weight[:h] *= p

    tables = [[_table(voters, receivers, his, los) for voters, receivers in rule.groups]
              for rule in plan.rules]
    sums = [[] for _ in plan.rules]
    for start in range(0, his.size, rows):
        weight = inner_weight
        for j, p in enumerate(plan.error_p[inner:], start=inner):
            weight = weight * (1.0 - p if (start * los.size) >> j & 1 else p)
        for rule_tables, rule_sums in zip(tables, sums):
            # count[hi - start, lo]: receivers right in outcome k;
            # n <= MAX_ORACLE_AGENTS fits uint8.
            count = np.zeros((rows, los.size), dtype=np.uint8)
            for table, index in rule_tables:
                count += table[index[start : start + rows]]
            shares = count.reshape(-1) / n
            shares *= weight
            rule_sums.append(float(shares.sum()))
    return {rule.name: _pairwise(rule_sums) for rule, rule_sums in zip(plan.rules, sums)}


def _table(
    voters: int, receivers: int, his: np.ndarray, los: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One group's right receivers: count[hi, lo] gains table[index[hi], lo]."""
    high_voters, low_voters = divmod(voters, los.size)
    half, odd = divmod(voters.bit_count(), 2)
    # votes[a, lo]: right votes when a of the group's high-half voters are right
    votes = np.arange(high_voters.bit_count() + 1, dtype=np.uint8)[:, None]
    votes = votes + np.bitwise_count(los & low_voters)
    table = (votes > half) * np.uint8(receivers.bit_count())
    index = np.bitwise_count(his & high_voters)
    if not odd:
        # A tie leaves each receiver with its own observation. Rows of the
        # table become (a, b) pairs, b the right high-half receivers; at
        # most 11 x 11 of them, so uint8 row indices suffice.
        high_receivers, low_receivers = divmod(receivers, los.size)
        right = np.arange(high_receivers.bit_count() + 1, dtype=np.uint8)[:, None]
        right = right + np.bitwise_count(los & low_receivers)
        table = (table[:, None] + (votes == half)[:, None] * right).reshape(-1, los.size)
        index = index * len(right) + np.bitwise_count(his & high_receivers)
    return table, index


def _pairwise(sums: list[float]) -> float:
    """Adjacent pairs, level by level: the top of numpy's pairwise sum over the blocks."""
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    return sums[0]
