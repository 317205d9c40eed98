"""Metamorphic relations between whole runs, and between oracle calls.

Draws are keyed by (seed, trial, agent, step, proposition), never by truth
values, qualities, the trial count or the rule list, so four relations
hold exactly and need no reference implementation:

- value symmetry: negating every truth schedule complements each raw and
  propagated belief and leaves everything else, metrics.json included,
  unchanged; the oracle's docstring relies on it;
- rule independence: any subset or reordering of the rules gives each
  kept rule the same metrics.json entry and the same exact accuracy;
- order-preserving feature maps: a strictly increasing affine map per
  feature keeps every dominance relation, so metrics.json, the exact
  accuracies and every trace record but its lattice digest are unchanged;
- trial prefix: the first k trials of a trace are the whole k-trial trace.

Each test but the last covers both `run` and `exact_rule_accuracy`.
"""

import json
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from beliefsim import (
    DriftEvent,
    FeatureVector,
    GroundTruthSchedule,
    exact_rule_accuracy,
    run,
    trace_to_jsonl,
)

from test_oracle import oracle_scenarios
from test_run_kernel import scenarios


def negated(scenario):
    return replace(
        scenario,
        ground_truth={
            prop: GroundTruthSchedule(prop, tuple((step, not value) for step, value in schedule.entries))
            for prop, schedule in scenario.ground_truth.items()
        },
    )


@st.composite
def feature_maps(draw, scenario):
    # Integer maps of the strategies' integer values are exact, so no two values merge.
    return [(draw(st.integers(1, 4)), draw(st.integers(-9, 9))) for _ in scenario.schema.names]


def mapped(scenario, maps):
    """`scenario` with x -> a * x + b on each feature's qualities and drift
    values, and delta -> a * delta on its drift deltas."""
    def point(values):
        return FeatureVector(tuple(a * x + b for (a, b), x in zip(maps, values)))

    def event(e):
        a, b = maps[scenario.schema.index_of(e.feature)]
        if e.delta is None:
            return replace(e, value=a * e.value + b)
        return replace(e, delta=a * e.delta)

    return replace(
        scenario,
        agents=tuple((agent_id, point(quality.values)) for agent_id, quality in scenario.agents),
        drift=tuple(event(e) for e in scenario.drift),
    )


def metrics_json(metrics) -> str:
    return json.dumps(metrics.to_dict(), indent=2) + "\n"


def complement(nested):
    return {prop: {agent: not value for agent, value in values.items()} for prop, values in nested.items()}


def kept_rules(data, rules):
    """A non-empty subset of `rules`, in a drawn order."""
    order = data.draw(st.permutations(rules))
    return tuple(order[: data.draw(st.integers(1, len(order)))])


def exact_digits(scenario):
    return {name: repr(value) for name, value in exact_rule_accuracy(scenario).items()}


@settings(max_examples=40, deadline=None)
@given(scenario=scenarios(), oracle_scenario=oracle_scenarios())
def test_negating_every_truth_schedule_complements_beliefs_only(scenario, oracle_scenario):
    trace, metrics = run(scenario)
    flipped_trace, flipped_metrics = run(negated(scenario))
    assert metrics_json(flipped_metrics) == metrics_json(metrics)
    assert len(flipped_trace.records) == len(trace.records)
    for record, flipped in zip(trace.records, flipped_trace.records):
        assert flipped.raw == complement(record.raw)
        assert flipped.propagated == complement(record.propagated)
        assert flipped == replace(record, raw=flipped.raw, propagated=flipped.propagated)

    assert exact_digits(negated(oracle_scenario)) == exact_digits(oracle_scenario)


@settings(max_examples=40, deadline=None)
@given(scenario=scenarios(), oracle_scenario=oracle_scenarios(), data=st.data())
def test_a_subset_or_reordering_of_rules_keeps_each_rules_results(scenario, oracle_scenario, data):
    metrics = run(scenario)[1].to_dict()
    rules = kept_rules(data, scenario.rules)
    kept = run(replace(scenario, rules=rules))[1].to_dict()
    assert list(kept["rules"]) == [rule.name for rule in rules]
    for name, entry in kept["rules"].items():
        assert json.dumps(entry) == json.dumps(metrics["rules"][name])
    assert kept["agent_accuracy"] == metrics["agent_accuracy"]
    pairs = {frozenset(key.split("|")): rate for key, rate in metrics["contradiction_rates"].items()}
    for key, rate in kept["contradiction_rates"].items():
        assert rate == pairs[frozenset(key.split("|"))], key

    exact = exact_digits(oracle_scenario)
    rules = kept_rules(data, oracle_scenario.rules)
    assert exact_digits(replace(oracle_scenario, rules=rules)) == {rule.name: exact[rule.name] for rule in rules}


@settings(max_examples=40, deadline=None)
@given(scenario=scenarios(), oracle_scenario=oracle_scenarios(), data=st.data())
def test_an_increasing_affine_map_per_feature_keeps_results(scenario, oracle_scenario, data):
    ids = [agent_id for agent_id, _ in scenario.agents]
    values = tuple(
        DriftEvent(
            data.draw(st.sampled_from(ids)),
            data.draw(st.sampled_from(scenario.schema.names)),
            data.draw(st.integers(0, scenario.steps - 1)),
            value=float(data.draw(st.integers(0, 6))),
        )
        for _ in range(data.draw(st.integers(0, 2)))
    )
    scenario = replace(scenario, drift=scenario.drift + values)
    trace, metrics = run(scenario)
    mapped_trace, mapped_metrics = run(mapped(scenario, data.draw(feature_maps(scenario))))
    assert metrics_json(mapped_metrics) == metrics_json(metrics)
    assert len(mapped_trace.records) == len(trace.records)
    for record, other in zip(trace.records, mapped_trace.records):
        assert other == replace(record, lattice_digest=other.lattice_digest)

    maps = data.draw(feature_maps(oracle_scenario))
    assert exact_digits(mapped(oracle_scenario, maps)) == exact_digits(oracle_scenario)


@settings(max_examples=40, deadline=None)
@given(scenario=scenarios(), data=st.data())
def test_the_first_k_trials_of_a_trace_are_the_k_trial_trace(scenario, data):
    k = data.draw(st.integers(1, scenario.trials))
    lines = trace_to_jsonl(run(scenario)[0]).splitlines(keepends=True)
    prefix = trace_to_jsonl(run(replace(scenario, trials=k))[0])
    assert "".join(lines[: k * scenario.steps * len(scenario.rules)]) == prefix
