"""The run loop's rows, tally and rendering against the record-based paths.

`run` keeps each trial as compact rows of bools, tallies metrics from them
and renders trace.jsonl from them without building TraceRecords. The
reference is the record path: TraceRecord.to_dict + json.dumps for the
text, and for the metrics compute_metrics over trace_from_jsonl and the
per-record loops of support.loop_metrics. These tests check that they
agree on random populations with several propositions, piecewise truth,
drift, graph topologies and every rule kind.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from beliefsim import (
    Direction,
    DriftEvent,
    ErrorModel,
    FeatureVector,
    GroundTruthSchedule,
    Proposition,
    RandomStream,
    Rule,
    RuleKind,
    Scenario,
    Topology,
    compute_metrics,
    run,
    trace_from_jsonl,
    trace_to_jsonl,
)
from beliefsim.rules import MAJORITY, MOST_EXPERT

from support import loop_metrics, make_schema, random_population, simple_scenario

RULES = [MOST_EXPERT, MAJORITY] + [
    Rule(RuleKind.SUBGROUP_EXPERT, depth, include_self)
    for depth in (1, 2)
    for include_self in (False, True)
]


@st.composite
def scenarios(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 7))
    d = draw(st.integers(1, 3))
    schema, agents = random_population(rng, n, d)
    ids = [agent_id for agent_id, _ in agents]
    steps = draw(st.integers(1, 3))
    props = [f"p{i}" for i in range(draw(st.integers(1, 2)))]
    truth = {}
    for prop in props:
        changes = sorted(draw(st.sets(st.integers(1, steps - 1)))) if steps > 1 else []
        values = draw(st.lists(st.booleans(), min_size=len(changes) + 1, max_size=len(changes) + 1))
        truth[prop] = GroundTruthSchedule(prop, tuple(zip([0, *changes], values)))
    drift = tuple(
        DriftEvent(
            draw(st.sampled_from(ids)),
            f"f{draw(st.integers(0, d - 1))}",
            draw(st.integers(0, steps - 1)),
            delta=float(draw(st.integers(-3, 3))),
        )
        for _ in range(draw(st.integers(0, 3)))
    )
    if draw(st.booleans()):
        topology = Topology.full_broadcast()
    else:
        topology = Topology.graph({a: draw(st.sets(st.sampled_from(ids))) for a in ids})
    if draw(st.booleans()):
        error_model = ErrorModel.quality_mapped(0.05, 0.45)
    else:
        error_model = ErrorModel.fixed({a: draw(st.sampled_from([0.0, 0.2, 0.5])) for a in ids})
    rules = draw(st.lists(st.sampled_from(RULES), min_size=1, max_size=3, unique=True))
    return Scenario(
        schema=schema,
        agents=agents,
        propositions=tuple(Proposition(p) for p in props),
        ground_truth=truth,
        error_model=error_model,
        topology=topology,
        rules=tuple(rules),
        steps=steps,
        trials=draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 2**64 - 1)),
        drift=drift,
    )


@settings(max_examples=60, deadline=None)
@given(scenario=scenarios())
def test_rows_render_tally_and_index_like_records(scenario):
    trace, metrics = run(scenario)
    text = trace_to_jsonl(trace)

    # text: straight from the rows, against to_dict + json.dumps per record
    reference_lines = [json.dumps(r.to_dict(), separators=(",", ":")) for r in trace.records]
    assert text.splitlines() == reference_lines
    assert text.endswith("\n")

    # metrics: tallied while running, against compute_metrics of the text
    reloaded = trace_from_jsonl(text)
    recomputed = compute_metrics(reloaded, scenario)
    assert json.dumps(metrics.to_dict(), indent=2) == json.dumps(recomputed.to_dict(), indent=2)
    assert metrics.to_csv() == recomputed.to_csv()
    assert metrics == recomputed == loop_metrics(reloaded, scenario)

    # lazy records: len, indexing, slicing and iteration
    lazy, parsed = trace.records, reloaded.records
    expected = scenario.trials * scenario.steps * len(scenario.rules)
    assert len(lazy) == len(parsed) == expected
    assert list(lazy) == list(parsed)
    for i in (0, expected // 2, expected - 1, -1, -expected):
        assert lazy[i] == parsed[i]
    assert lazy[1:expected:2] == parsed[1:expected:2]
    with pytest.raises(IndexError):
        lazy[expected]
    with pytest.raises(IndexError):
        lazy[-expected - 1]


def _quality_mapped_scenario():
    schema = make_schema((Direction.SMALLER_IS_BETTER,))
    agents = tuple((f"a{i}", FeatureVector((float(i),))) for i in range(5))
    return Scenario(
        schema=schema,
        agents=agents,
        propositions=(Proposition("p"), Proposition("q")),
        ground_truth={
            "p": GroundTruthSchedule.constant("p", True),
            "q": GroundTruthSchedule("q", ((0, False), (2, True))),
        },
        error_model=ErrorModel.quality_mapped(0.1, 0.4),
        topology=Topology.full_broadcast(),
        rules=(MOST_EXPERT, MAJORITY),
        steps=3,
        trials=7,
        seed=3,
        drift=(DriftEvent("a4", "f0", 1, value=-1.0), DriftEvent("a0", "f0", 2, delta=9.0)),
    )


def _certain_errors_scenario():
    # p = 0 and p = 1 decide the flip before the draw, but each is still a
    # draw: skipping it would change the traced count, and at p = 1 a digest
    # of 2**64 - 1024 or more maps to 1.0, which does not flip.
    schema = make_schema((Direction.SMALLER_IS_BETTER,))
    agents = [(f"a{i}", FeatureVector((float(i),))) for i in range(4)]
    return simple_scenario(
        schema,
        agents,
        {"a0": 0.0, "a1": 1.0, "a2": 0.0, "a3": 1.0},
        steps=3,
        trials=7,
        seed=3,
        topology=Topology.graph({"a0": {"a1"}, "a1": {"a2", "a3"}, "a3": {"a0"}}),
    )


@pytest.mark.parametrize(
    "make_scenario",
    [_quality_mapped_scenario, _certain_errors_scenario],
    ids=["quality-mapped", "certain-errors"],
)
def test_each_draw_calls_uniform_once(monkeypatch, make_scenario):
    # The benchmark's tracer counts draws by wrapping RandomStream.uniform on
    # the class, so every kernel draw must look uniform up there, once.
    calls = 0
    uniform = RandomStream.uniform

    def counting(stream):
        nonlocal calls
        calls += 1
        return uniform(stream)

    monkeypatch.setattr(RandomStream, "uniform", counting)
    scenario = make_scenario()
    run(scenario)
    agents, props = len(scenario.agents), len(scenario.propositions)
    assert calls == scenario.trials * scenario.steps * props * agents


def test_records_own_their_contributors_maps():
    # A record's contributors maps are its own: editing one changes neither the
    # rendered text, nor another record, nor the record's other proposition.
    scenario = _quality_mapped_scenario()
    trace, _ = run(scenario)
    text = trace_to_jsonl(trace)
    record = trace.records[0]
    voters = record.contributors["p"]["a0"]
    assert voters != ("a4",)
    record.contributors["p"]["a0"] = ("a4",)
    assert record.contributors["q"]["a0"] == voters
    same_step_and_rule = trace.records[scenario.steps * len(scenario.rules)]  # trial 1
    assert same_step_and_rule.contributors["p"]["a0"] == voters
    assert trace_to_jsonl(trace) == text


def test_a_raw_row_repeated_across_steps_renders_each_step():
    # a0 never errs and b0, b1 always do, so every (trial, step) has the same
    # raw row. Drift makes b0 the expert at step 1: the lattice and the
    # most-expert outcome change while the raw row does not.
    schema = make_schema((Direction.SMALLER_IS_BETTER,))
    agents = (("a0", FeatureVector((1.0,))), ("b0", FeatureVector((2.0,))), ("b1", FeatureVector((3.0,))))
    scenario = simple_scenario(
        schema,
        agents,
        {"a0": 0.0, "b0": 1.0, "b1": 1.0},
        rules=(MOST_EXPERT, MAJORITY),
        steps=2,
        trials=3,
        drift=(DriftEvent("b0", "f0", 1, value=0.0),),
    )
    trace, _ = run(scenario)
    records = list(trace.records)
    first, second = records[0], records[2]  # most-expert at steps 0 and 1 of trial 0
    assert (first.step, second.step) == (0, 1)
    assert first.raw == second.raw
    assert first.lattice_digest != second.lattice_digest
    assert first.propagated != second.propagated

    reference = "".join(json.dumps(r.to_dict(), separators=(",", ":")) + "\n" for r in records)
    assert trace_to_jsonl(trace) == reference
