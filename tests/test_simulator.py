import json
import random
import tracemalloc
from dataclasses import replace

import pytest

from beliefsim import (
    ConfigurationError,
    Direction,
    DriftEvent,
    ErrorModel,
    FeatureVector,
    GroundTruthSchedule,
    Proposition,
    Rule,
    RuleKind,
    Scenario,
    Topology,
    Trace,
    TraceRecord,
    ValidationError,
    build,
    build_intersection_scenario,
    compute_metrics,
    lattices_by_step,
    run,
    trace_from_jsonl,
    trace_to_jsonl,
    validate_scenario,
)
from beliefsim import simulator
from beliefsim.rules import MAJORITY, MOST_EXPERT
from beliefsim.scenario_io import parse_scenario, read_scenario
from beliefsim.simulator import trace_blocks

from support import make_schema, random_population, simple_scenario
from test_byte_pins import crowd_scenario

S = Direction.SMALLER_IS_BETTER
INCOMPLETE = "incomplete trace: expected 18 records (2 trials x 3 steps x 3 rules), got "


def _keyed(line: str, **fields) -> str:
    """A trace line with some of its key fields replaced."""
    return json.dumps({**json.loads(line), **fields})


def _bad_row(line: str) -> str:
    """A trace line whose first raw belief is not true or false."""
    record = json.loads(line)
    record["raw"]["pedestrian"]["s1"] = "yes"
    return json.dumps(record)


class TestRun:
    def test_noiseless_scenario_is_perfectly_accurate(self):
        schema, agents = random_population(random.Random(3), 5, 2)
        scenario = simple_scenario(
            schema,
            agents,
            {a: 0.0 for a, _ in agents},
            rules=(MOST_EXPERT, MAJORITY, Rule(RuleKind.SUBGROUP_EXPERT, 2, True)),
            steps=4,
            trials=25,
        )
        _, metrics = run(scenario)
        for rule_metrics in metrics.rules.values():
            assert rule_metrics.accuracy == 1.0
            assert rule_metrics.tie_rate == 0.0

    def test_reruns_are_byte_identical(self):
        scenario = build_intersection_scenario()
        scenario = replace(scenario, trials=50)
        trace_a, metrics_a = run(scenario)
        trace_b, metrics_b = run(scenario)
        assert trace_to_jsonl(trace_a) == trace_to_jsonl(trace_b)
        assert metrics_a == metrics_b

    def test_different_seeds_have_overlapping_cis(self):
        scenario = build_intersection_scenario()
        base = replace(scenario, trials=3000)
        other = replace(base, seed=4242)
        _, m_a = run(base)
        _, m_b = run(other)
        for name in m_a.rules:
            a, b = m_a.rules[name], m_b.rules[name]
            assert a.ci_low <= b.ci_high and b.ci_low <= a.ci_high

    def test_invalid_scenario_rejected_before_running(self):
        schema = make_schema((S,))
        scenario = simple_scenario(
            schema, (("a", FeatureVector((1,))),), {"a": 0.1}, steps=0
        )
        with pytest.raises(ValidationError):
            run(scenario)

    @pytest.mark.parametrize(
        "field, value", [("seed", 1.5), ("seed", True), ("trials", True), ("steps", 2.0)]
    )
    def test_non_integer_seed_steps_or_trials_rejected(self, field, value):
        # a float or bool seed would key every draw by its text ("1.5", "True")
        scenario = replace(replace(build_intersection_scenario(), trials=3), **{field: value})
        with pytest.raises(ValidationError, match=f"^{field}: expected an integer"):
            validate_scenario(scenario)

    def test_ground_truth_for_undeclared_proposition_rejected(self):
        base = build_intersection_scenario()
        extra = {key: GroundTruthSchedule.constant(key, False) for key in ("ghost", 7)}
        with pytest.raises(ValidationError, match=r"^ground_truth\.7: not a declared proposition$"):
            validate_scenario(replace(base, ground_truth={**base.ground_truth, **extra}))

    def test_ground_truth_entry_must_fall_before_the_last_step(self):
        base = replace(build_intersection_scenario(), steps=3)

        def flipped_at(step):
            schedule = GroundTruthSchedule("pedestrian", ((0, True), (step, False)))
            return replace(base, ground_truth={"pedestrian": schedule})

        validate_scenario(flipped_at(2))
        with pytest.raises(
            ValidationError,
            match=r"^ground truth for 'pedestrian' has entry at step 3, but scenario runs 3 steps$",
        ):
            validate_scenario(flipped_at(3))

    def test_probability_for_unknown_agent_rejected(self):
        probabilities = {"s1": 0.1, "s2": 0.2, "s3": 0.2, "s4": 0.3, "zz": 0.9, "yy": 0.5}
        scenario = replace(build_intersection_scenario(), error_model=ErrorModel.fixed(probabilities))
        with pytest.raises(
            ValidationError, match=r"^error_model\.probabilities\.yy: not an agent of the scenario$"
        ):
            validate_scenario(scenario)

    # "\x1f" joins RandomStream keys: agent "a\x1f0" at step 1 and proposition
    # "p" would draw what agent "a" at step 0 and proposition "1\x1fp" draw.
    @pytest.mark.parametrize(
        "agent, prop",
        [("a\x1f0", "p"), ("a", "1\x1fp"), ("a\n", "p")],
        ids=["separator-in-agent", "separator-in-proposition", "newline-in-agent"],
    )
    def test_ids_outside_the_identifier_rule_rejected(self, agent, prop):
        agents = ((agent, FeatureVector((1,))),)
        scenario = simple_scenario(make_schema((S,)), agents, {agent: 0.1})
        scenario = replace(
            scenario,
            propositions=(Proposition(prop),),
            ground_truth={prop: GroundTruthSchedule.constant(prop, True)},
        )
        with pytest.raises(ValidationError, match="ids must be letters, digits and ._-"):
            validate_scenario(scenario)

    def test_record_count_and_shape(self):
        scenario = build_intersection_scenario()
        scenario = replace(scenario, trials=5)
        trace, _ = run(scenario)
        assert len(trace.records) == 5 * scenario.steps * len(scenario.rules)
        record = trace.records[0]
        assert set(record.raw) == {"pedestrian"}
        assert set(record.raw["pedestrian"]) == {"s1", "s2", "s3", "s4"}

    def test_multiple_propositions_have_independent_streams(self):
        schema = make_schema((S,))
        agents = (("a", FeatureVector((1,))), ("b", FeatureVector((2,))))
        two_props = Scenario(
            schema=schema,
            agents=agents,
            propositions=(Proposition("p1"), Proposition("p2")),
            ground_truth={
                "p1": GroundTruthSchedule.constant("p1", True),
                "p2": GroundTruthSchedule.constant("p2", False),
            },
            error_model=ErrorModel.fixed({"a": 0.5, "b": 0.5}),
            topology=Topology.full_broadcast(),
            rules=(MAJORITY,),
            steps=1,
            trials=200,
            seed=5,
        )
        trace, metrics = run(two_props)
        raw_p1 = [r.raw["p1"]["a"] for r in trace.records]
        raw_p2 = [r.raw["p2"]["a"] for r in trace.records]
        assert raw_p1 != raw_p2  # distinct proposition streams
        assert metrics.rules["majority"].outcomes == 200 * 2 * 2  # trials x props x agents


class TestGroundTruthDynamics:
    def test_truth_flip_mid_run_tracks_schedule(self):
        schema = make_schema((S,))
        agents = (("a", FeatureVector((1,))),)
        scenario = Scenario(
            schema=schema,
            agents=agents,
            propositions=(Proposition("p"),),
            ground_truth={"p": GroundTruthSchedule("p", ((0, True), (2, False)))},
            error_model=ErrorModel.fixed({"a": 0.0}),
            topology=Topology.full_broadcast(),
            rules=(MAJORITY,),
            steps=4,
            trials=1,
            seed=0,
        )
        trace, metrics = run(scenario)
        observed = [r.raw["p"]["a"] for r in trace.records]
        assert observed == [True, True, False, False]
        assert metrics.rules["majority"].accuracy == 1.0


class TestDrift:
    def drift_scenario(self, k=3, steps=6):
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
        return simple_scenario(
            schema,
            agents,
            {a: 0.0 for a, _ in agents},
            rules=(MOST_EXPERT,),
            steps=steps,
            trials=1,
            drift=drift,
        )

    def test_lattice_matches_rebuild_at_every_step(self):
        scenario = self.drift_scenario()
        lattices = lattices_by_step(scenario)
        values = {a: list(v.values) for a, v in scenario.agents}
        for step, lattice in enumerate(lattices):
            for event in scenario.drift:
                if event.step == step:
                    idx = scenario.schema.index_of(event.feature)
                    values[event.agent][idx] = event.value
            rebuilt = build(
                scenario.schema,
                tuple((a, FeatureVector(tuple(v))) for a, v in values.items()),
            )
            assert lattice == rebuilt
            assert lattice.digest() == rebuilt.digest()

    def test_contributors_flip_exactly_at_drift_step(self):
        k = 3
        scenario = self.drift_scenario(k=k)
        trace, _ = run(scenario)
        for record in trace.records:
            contributors = record.contributors["p"]["s4"]
            if record.step < k:
                assert contributors == ("s1",)
            else:
                assert contributors == ("s2", "s3")

    def test_delta_drift_accumulates(self):
        schema = make_schema((S,))
        agents = (("a", FeatureVector((1.0,))), ("b", FeatureVector((5.0,))))
        drift = (
            DriftEvent("a", "f0", 1, delta=3.0),
            DriftEvent("a", "f0", 2, delta=3.0),
        )
        scenario = simple_scenario(
            schema, agents, {"a": 0.0, "b": 0.0}, steps=3, trials=1, drift=drift
        )
        lattices = lattices_by_step(scenario)
        assert lattices[0].quality_of("a") == FeatureVector((1.0,))
        assert lattices[1].quality_of("a") == FeatureVector((4.0,))
        assert lattices[2].quality_of("a") == FeatureVector((7.0,))

    def test_drift_to_non_finite_rejected(self):
        schema = make_schema((S,))
        agents = (("a", FeatureVector((1.0,))),)
        scenario = simple_scenario(
            schema,
            agents,
            {"a": 0.0},
            steps=2,
            trials=1,
            drift=(DriftEvent("a", "f0", 1, delta=float(10**308) * 10),),
        )
        with pytest.raises(ValidationError):
            run(scenario)

    def test_one_rebuild_per_drifting_step(self, monkeypatch):
        scenario = self.drift_scenario()  # two events on s1 at one step
        builds = []
        real_build = simulator.build
        monkeypatch.setattr(
            simulator, "build", lambda *args: builds.append(args) or real_build(*args)
        )
        lattices_by_step(scenario)
        assert len(builds) == 2

    def test_validation_reuses_lattices_only_for_equal_inputs(self):
        early, late = self.drift_scenario(k=2), self.drift_scenario(k=3)
        assert validate_scenario(early) == lattices_by_step(early)
        assert validate_scenario(late) == lattices_by_step(late)
        overridden = replace(late, seed=9, trials=7, rules=(MAJORITY,))
        assert validate_scenario(overridden) == lattices_by_step(late)

    def test_reused_lattices_still_check_the_error_model(self):
        scenario = self.drift_scenario()
        validate_scenario(scenario)
        with pytest.raises(ConfigurationError, match="'s2'"):
            validate_scenario(replace(scenario, error_model=ErrorModel.fixed({"s1": 0.0})))

    def test_non_finite_drift_names_first_agent_and_step(self):
        schema = make_schema((S,))
        agents = (("a", FeatureVector((1.0,))), ("b", FeatureVector((2.0,))))
        huge = float(10**308) * 10
        drift = (DriftEvent("b", "f0", 1, delta=huge), DriftEvent("a", "f0", 1, delta=huge))
        scenario = simple_scenario(
            schema, agents, {"a": 0.0, "b": 0.0}, steps=2, trials=1, drift=drift
        )
        with pytest.raises(ValidationError, match="drift drives agent 'b' non-finite at step 1"):
            run(scenario)

    def test_drift_event_needs_exactly_one_mode(self):
        with pytest.raises(ValidationError):
            DriftEvent("a", "f0", 0)
        with pytest.raises(ValidationError):
            DriftEvent("a", "f0", 0, delta=1.0, value=2.0)


class TestMetrics:
    def _tiny_trace(self, wrong_at=None):
        """1 trial x 2 steps x 1 rule over 4 agents: 8 receiver outcomes."""
        wrong_at = wrong_at or set()
        agents = ["a", "b", "c", "d"]
        records = []
        for step in range(2):
            propagated = {
                a: not (step, a) in wrong_at for a in agents
            }
            records.append(
                TraceRecord(
                    trial=0,
                    step=step,
                    rule="majority",
                    lattice_digest="x",
                    raw={"p": {a: True for a in agents}},
                    propagated={"p": propagated},
                    contributors={"p": {a: tuple(agents) for a in agents}},
                    tie_broken={"p": {a: False for a in agents}},
                )
            )
        return Trace(tuple(records))

    def _tiny_scenario(self):
        schema = make_schema((S,))
        agents = tuple((a, FeatureVector((float(i),))) for i, a in enumerate("abcd"))
        return simple_scenario(
            schema, agents, {a: 0.0 for a, _ in agents}, rules=(MAJORITY,), steps=2, trials=1
        )

    def test_all_correct_trace(self):
        metrics = compute_metrics(self._tiny_trace(), self._tiny_scenario())
        assert metrics.rules["majority"].accuracy == 1.0
        assert metrics.rules["majority"].tie_rate == 0.0

    def test_one_wrong_of_eight_is_0875(self):
        metrics = compute_metrics(
            self._tiny_trace(wrong_at={(1, "c")}), self._tiny_scenario()
        )
        assert metrics.rules["majority"].accuracy == 0.875

    def test_trial_reordering_is_inert(self):
        scenario = build_intersection_scenario()
        scenario = replace(scenario, trials=30)
        trace, metrics = run(scenario)
        reordered = Trace(tuple(reversed(trace.records)))
        assert compute_metrics(reordered, scenario) == metrics

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"trials": 0}, "trials: expected an integer >= 1, got 0"),
            ({"steps": 0}, "steps: expected an integer >= 1, got 0"),
            ({"rules": ()}, "scenario needs at least one rule"),
        ],
        ids=["no-trials", "no-steps", "no-rules"],
    )
    def test_invalid_scenario_rejected(self, change, message):
        # an empty trace matches a scenario with no outcomes; the scenario itself must fail
        scenario = replace(build_intersection_scenario(), **change)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            compute_metrics(Trace(()), scenario)

    def test_incomplete_trace_rejected(self):
        scenario = self._tiny_scenario()
        truncated = Trace(self._tiny_trace().records[:1])
        with pytest.raises(ValidationError):
            compute_metrics(truncated, scenario)

    @pytest.mark.parametrize(
        "change, unexpected",
        [
            ({"trial": "0"}, "trial '0', step 1, rule 'majority'"),
            ({"rule": "x"}, "trial 0, step 1, rule 'x'"),
        ],
        ids=["string-trial", "renamed-rule"],
    )
    def test_wrong_keys_with_right_count_are_named(self, change, unexpected):
        records = list(self._tiny_trace().records)
        records[1] = replace(records[1], **change)
        with pytest.raises(ValidationError) as err:
            compute_metrics(Trace(tuple(records)), self._tiny_scenario())
        assert str(err.value).endswith(
            "got 2; first missing (trial 0, step 1, rule 'majority'); "
            f"first unexpected ({unexpected})"
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("raw", [{"a": True}]),
            ("propagated", None),
            ("tie_broken", {"p": [False, False, False, False]}),
            ("propagated", {"p": dict.fromkeys("abcd", "yes")}),
            ("raw", {"p": dict.fromkeys("abcd", 1)}),
        ],
        ids=["list", "null", "per-proposition-list", "string-belief", "int-belief"],
    )
    def test_malformed_field_is_named(self, field, value):
        records = list(self._tiny_trace().records)
        records[1] = replace(records[1], **{field: value})
        named = rf"^trace record \(trial 0, step 1, rule 'majority'\) has .*{field}"
        with pytest.raises(ValidationError, match=named):
            compute_metrics(Trace(tuple(records)), self._tiny_scenario())

    @pytest.mark.parametrize("field", ["raw", "propagated"])
    def test_unknown_proposition_is_named(self, field):
        records = list(self._tiny_trace().records)
        records[1] = replace(records[1], **{field: {"ghost": getattr(records[1], field)["p"]}})
        with pytest.raises(ValidationError, match="'ghost'"):
            compute_metrics(Trace(tuple(records)), self._tiny_scenario())

    def test_record_with_missing_agent_is_named(self):
        records = list(self._tiny_trace().records)
        records[0] = replace(records[0], tie_broken={"p": {"a": False, "b": False}})
        with pytest.raises(ValidationError, match="no tie_broken value for 'c'"):
            compute_metrics(Trace(tuple(records)), self._tiny_scenario())

    def test_record_with_foreign_agent_is_rejected(self):
        records = list(self._tiny_trace().records)
        records[0] = replace(records[0], raw={"p": {**records[0].raw["p"], "z": True}})
        with pytest.raises(ValidationError, match="agents the scenario lacks"):
            compute_metrics(Trace(tuple(records)), self._tiny_scenario())

    def test_metrics_recomputed_from_persisted_trace_match(self):
        scenario = build_intersection_scenario()
        scenario = replace(scenario, trials=25)
        trace, metrics = run(scenario)
        reloaded = trace_from_jsonl(trace_to_jsonl(trace))
        assert compute_metrics(reloaded, scenario) == metrics

    def test_working_memory_is_one_slot_per_record(self, scenario_dir):
        # The parsed trace is the caller's; only what compute_metrics adds is measured.
        scenario = replace(read_scenario(scenario_dir / "intersection.scn"), trials=2000, seed=42)
        trace = trace_from_jsonl(trace_to_jsonl(run(scenario)[0]))
        tracemalloc.start()
        try:
            compute_metrics(trace, scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace.records) == 18_000
        assert peak < 18_000 * 400

    def test_raw_accuracy_of_noiseless_agent_is_one(self):
        schema = make_schema((S, S))
        agents = (
            ("good", FeatureVector((1, 1))),
            ("bad", FeatureVector((2, 2))),
            ("ugly", FeatureVector((3, 3))),
        )
        scenario = simple_scenario(
            schema,
            agents,
            {"good": 0.0, "bad": 0.5, "ugly": 1.0},
            rules=(MAJORITY,),
            trials=300,
        )
        trace, metrics = run(scenario)
        assert metrics.agent_accuracy["good"] == 1.0
        assert metrics.agent_accuracy["bad"] < 1.0
        assert metrics.agent_accuracy["ugly"] == 0.0
        # id order (bad, good, ugly) is not input order: both decoders must label bits alike
        reloaded = compute_metrics(trace_from_jsonl(trace_to_jsonl(trace)), scenario)
        assert reloaded.agent_accuracy == metrics.agent_accuracy

    def test_csv_shape(self):
        scenario = build_intersection_scenario()
        scenario = replace(scenario, trials=5)
        _, metrics = run(scenario)
        lines = metrics.to_csv().strip().splitlines()
        assert lines[0] == "rule,accuracy,ci_low,ci_high,tie_rate,trials,steps"
        assert len(lines) == 1 + len(scenario.rules)
        for line in lines[1:]:
            assert line.endswith(",5,3")

    def test_contradiction_rate_counts_pairs(self):
        scenario = build_intersection_scenario()
        scenario = replace(scenario, trials=40)
        _, metrics = run(scenario)
        assert set(metrics.contradiction_rates) == {
            "most-expert|majority",
            "most-expert|subgroup:d=1",
            "majority|subgroup:d=1",
        }
        # s1 is the unique frontier, so most-expert and subgroup:d=1 coincide
        assert metrics.contradiction_rates["most-expert|subgroup:d=1"] == 0.0


class TestIntersectionScenario:
    def test_shipped_structure(self):
        scenario = build_intersection_scenario()
        lattice = build(scenario.schema, scenario.agents)
        assert lattice.experts_of("s4") == {"s1", "s2", "s3"}
        assert scenario.propositions[0].id == "pedestrian"
        assert scenario.ground_truth["pedestrian"].value_at(0) is True

    def test_most_expert_contributors_are_s1(self):
        scenario = build_intersection_scenario()
        scenario = replace(scenario, trials=3)
        trace, _ = run(scenario)
        for record in trace.records:
            if record.rule == "most-expert":
                for contributors in record.contributors["pedestrian"].values():
                    assert contributors == ("s1",)


class TestTraceSerialization:
    def test_roundtrip_preserves_records(self):
        scenario = build_intersection_scenario()
        scenario = replace(scenario, trials=4)
        trace, _ = run(scenario)
        text = trace_to_jsonl(trace)
        assert trace_to_jsonl(trace_from_jsonl(text)) == text

    def test_records_are_single_json_lines(self):
        scenario = build_intersection_scenario()
        scenario = replace(scenario, trials=2)
        trace, _ = run(scenario)
        for line in trace_to_jsonl(trace).strip().splitlines():
            record = json.loads(line)
            assert list(record) == [
                "trial",
                "step",
                "rule",
                "lattice_digest",
                "raw",
                "propagated",
                "contributors",
                "tie_broken",
            ]

    def test_blocks_are_sized_by_bytes_alone(self, scenario_dir):
        # blocks() estimates an intersection trial at 2,442 bytes, so 26 trials fill 2**16.
        scenario = replace(read_scenario(scenario_dir / "intersection.scn"), trials=2000, seed=42)
        trace = run(scenario)[0]
        sizes = [len(block.records) // 9 for block in trace_blocks(trace)]
        assert sizes == [26] * 76 + [24]
        # A 200-agent trial passes the cap alone, so it is its own block.
        crowd = replace(parse_scenario(json.loads(crowd_scenario("full_broadcast"))), trials=2)
        per_trial = crowd.steps * len(crowd.rules)
        assert [len(block.records) for block in trace_blocks(run(crowd)[0])] == [per_trial] * 2

    def _two_trial_text(self):
        return trace_to_jsonl(run(replace(build_intersection_scenario(), trials=2))[0])

    def test_truncated_line_is_named(self):
        text = self._two_trial_text()
        third = text.splitlines()[2]
        cut = text[: text.index(third) + len(third) // 2]  # line 3 cut mid-record
        with pytest.raises(ValidationError, match="trace line 3: not valid JSON"):
            trace_from_jsonl(cut)

    @pytest.mark.parametrize("separator", ["\x0c", "\x1c", "\x85", "\v", "\u2028"])
    def test_records_end_at_newline_only(self, separator):
        text = self._two_trial_text().replace("\n", separator)
        with pytest.raises(ValidationError, match="trace line 1: not valid JSON"):
            trace_from_jsonl(text)

    def test_crlf_lines_give_the_same_records(self):
        text = self._two_trial_text()
        assert trace_from_jsonl(text.replace("\n", "\r\n")) == trace_from_jsonl(text)

    def test_record_without_raw_is_named(self):
        lines = self._two_trial_text().splitlines()
        record = json.loads(lines[1])
        del record["raw"]
        lines[1] = json.dumps(record)
        with pytest.raises(ValidationError, match="trace line 2: record lacks 'raw'"):
            trace_from_jsonl("\n".join(lines))

    @pytest.mark.parametrize(
        "replace_record, message",
        [
            (lambda record: [1, 2], "expected a JSON object"),
            (lambda record: {**record, "contributors": 5}, "malformed record"),
        ],
    )
    def test_malformed_record_is_named(self, replace_record, message):
        lines = self._two_trial_text().splitlines()
        lines[4] = json.dumps(replace_record(json.loads(lines[4])))
        with pytest.raises(ValidationError, match=f"trace line 5: {message}"):
            trace_from_jsonl("\n".join(lines))

    def test_list_valued_trial_is_named(self):
        scenario = replace(build_intersection_scenario(), trials=2)
        lines = self._two_trial_text().splitlines()
        record = json.loads(lines[0])
        record["trial"] = [0]
        lines[0] = json.dumps(record)
        trace = trace_from_jsonl("\n".join(lines))
        with pytest.raises(
            ValidationError,
            match=r"^trace record \(trial \[0\], step 0, rule 'most-expert'\) has a list",
        ):
            compute_metrics(trace, scenario)

    @pytest.mark.parametrize(
        "line, field, value, missing, unexpected",
        [
            (9, "trial", True, "trial 1, step 0", "trial True, step 0"),
            (3, "step", 1.0, "trial 0, step 1", "trial 0, step 1.0"),
        ],
        ids=["bool-trial", "float-step"],
    )
    def test_bool_or_float_key_is_unexpected(self, line, field, value, missing, unexpected):
        # True == 1 == 1.0, so such a key must not stand in for the integer one
        scenario = replace(build_intersection_scenario(), trials=2)
        lines = self._two_trial_text().splitlines()
        record = json.loads(lines[line])
        record[field] = value
        lines[line] = json.dumps(record)
        trace = trace_from_jsonl("\n".join(lines))
        with pytest.raises(ValidationError) as err:
            compute_metrics(trace, scenario)
        assert str(err.value).endswith(
            f"got 18; first missing ({missing}, rule 'most-expert'); "
            f"first unexpected ({unexpected}, rule 'most-expert')"
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda lines: [lines[0], _bad_row(lines[1]), *lines[2:5], *lines[6:9],
                               _keyed(lines[9], trial=[1]), *lines[10:]],
                "trace record (trial [1], step 0, rule 'most-expert') has a list or map as a key",
            ),
            (lambda lines: lines + lines[:1], f"{INCOMPLETE}19"),
            (
                lambda lines: lines[:10] + [_keyed(lines[10], trial=2)] + lines[11:],
                f"{INCOMPLETE}18; first missing (trial 1, step 0, rule 'majority'); "
                "first unexpected (trial 2, step 0, rule 'majority')",
            ),
            (
                lambda lines: lines[:4] + [_keyed(lines[4], step=-1)] + lines[5:],
                f"{INCOMPLETE}18; first missing (trial 0, step 1, rule 'majority'); "
                "first unexpected (trial 0, step -1, rule 'majority')",
            ),
            (
                lambda lines: [lines[0], _bad_row(lines[1]), *lines[2:7], *lines[8:]],
                f"{INCOMPLETE}17; first missing (trial 0, step 2, rule 'majority')",
            ),
            (lambda lines: lines + [_bad_row(lines[0])], f"{INCOMPLETE}19"),
            (
                lambda lines: [lines[0], _bad_row(lines[1]), *lines[2:]],
                "trace record (trial 0, step 0, rule 'majority') has raw value 'yes', "
                "not true or false",
            ),
        ],
        ids=["list-key-first", "duplicate", "trial-past-end", "negative-step",
             "dropped-and-bad", "bad-duplicate", "bad-row-alone"],
    )
    def test_fault_precedence(self, edit, message):
        # a list or map key, then the key set, then a bad row: each names only the first
        scenario = replace(build_intersection_scenario(), trials=2)
        trace = trace_from_jsonl("\n".join(edit(self._two_trial_text().splitlines())))
        with pytest.raises(ValidationError) as err:
            compute_metrics(trace, scenario)
        assert str(err.value) == message

    def test_conflicting_raw_is_named(self):
        scenario = replace(build_intersection_scenario(), trials=2)
        lines = self._two_trial_text().splitlines()
        record = json.loads(lines[1])
        record["raw"] = {
            p: {a: not value for a, value in beliefs.items()}
            for p, beliefs in record["raw"].items()
        }
        lines[1] = json.dumps(record)
        trace = trace_from_jsonl("\n".join(lines))
        with pytest.raises(ValidationError) as err:
            compute_metrics(trace, scenario)
        assert str(err.value) == (
            "trace records (trial 0, step 0, rule 'most-expert') and "
            "(trial 0, step 0, rule 'majority') disagree on raw"
        )
