import hashlib
import math
import random

import pytest
from hypothesis import given, strategies as st

from beliefsim import (
    Belief,
    BeliefProfile,
    ConfigurationError,
    Direction,
    ErrorModel,
    ErrorModelKind,
    FeatureVector,
    GroundTruthSchedule,
    RandomStream,
    Topology,
    UnknownAgentError,
    ValidationError,
    build,
    observe,
    visible_profile,
)
from beliefsim.beliefs import IDENTIFIER, flip_mask, stream_head, stream_tail

from support import make_profile, make_schema

S = Direction.SMALLER_IS_BETTER


def constant_truth(value=True):
    return GroundTruthSchedule.constant("p", value)


class TestObserve:
    def test_zero_error_always_truth(self):
        model = ErrorModel.fixed({"a": 0.0})
        for step in range(50):
            stream = RandomStream(1, 0, "a", step, "p")
            assert observe("a", constant_truth(True), model, stream, step).value is True

    def test_certain_error_always_flipped(self):
        model = ErrorModel.fixed({"a": 1.0})
        for step in range(50):
            stream = RandomStream(1, 0, "a", step, "p")
            assert observe("a", constant_truth(True), model, stream, step).value is False

    def test_flip_rate_tracks_probability(self):
        # exact binomial 3 sigma at p=0.3, n=10000 is 0.0137, inside the 0.02 budget
        model = ErrorModel.fixed({"a": 0.3})
        flips = 0
        n = 10_000
        for step in range(n):
            stream = RandomStream(99, 0, "a", step, "p")
            if observe("a", constant_truth(True), model, stream, step).value is False:
                flips += 1
        assert abs(flips / n - 0.3) <= 0.02

    def test_missing_agent_is_configuration_error(self):
        model = ErrorModel.fixed({"a": 0.1})
        with pytest.raises(ConfigurationError):
            observe("b", constant_truth(), model, RandomStream(1, 0, "b", 0, "p"), 0)

    def test_belief_carries_agent_and_proposition(self):
        model = ErrorModel.fixed({"a": 0.0})
        belief = observe("a", constant_truth(), model, RandomStream(1, 0, "a", 0, "p"), 0)
        assert belief == Belief("a", "p", True)


class TestStreams:
    def test_same_key_reproduces(self):
        a = [RandomStream(7, 3, "x", 5, "p").uniform() for _ in range(3)]
        b = [RandomStream(7, 3, "x", 5, "p").uniform() for _ in range(3)]
        assert a == b

    @pytest.mark.parametrize(
        "other",
        [
            (8, 3, "x", 5, "p"),
            (7, 4, "x", 5, "p"),
            (7, 3, "y", 5, "p"),
            (7, 3, "x", 6, "p"),
            (7, 3, "x", 5, "q"),
        ],
    )
    def test_any_key_part_changes_stream(self, other):
        base = RandomStream(7, 3, "x", 5, "p").uniform()
        assert RandomStream(*other).uniform() != base

    def test_draws_advance_counter(self):
        stream = RandomStream(1, 0, "a", 0, "p")
        assert stream.uniform() != stream.uniform()

    def test_uniform_in_unit_interval(self):
        stream = RandomStream(2, 0, "a", 0, "p")
        for _ in range(1000):
            assert 0.0 <= stream.uniform() < 1.0

    def test_golden_values_pin_key_derivation(self):
        # frozen draws: any change to the hash keying breaks every
        # recorded trace, so catch it here first
        stream = RandomStream(0, 0, "a", 0, "p")
        assert [stream.uniform() for _ in range(3)] == [
            0.09151802198925295,
            0.19832426325139677,
            0.09133856401545827,
        ]
        assert RandomStream(42, 7, "agent-1", 12, "pedestrian").uniform() == (
            0.6158289148039129
        )

    @given(
        prefix=st.binary(max_size=64),
        start=st.integers(0, 10**7),
    )
    def test_uniform_keeps_the_reference_expression(self, prefix, start):
        # uniform formats the counter with %d; the reference encodes str(counter)
        stream = RandomStream.__new__(RandomStream)
        stream._prefix = prefix
        stream._counter = start
        expected = [
            int.from_bytes(
                hashlib.blake2b(prefix + str(c).encode(), digest_size=8).digest(), "big"
            )
            / 2**64
            for c in range(start, start + 3)
        ]
        assert [stream.uniform() for _ in range(3)] == expected
        assert stream._counter == start + 3

    @given(
        seed=st.integers(0, 2**64 - 1),
        trial=st.integers(0, 10**12),
        step=st.integers(0, 10**6),
        prop=st.from_regex(IDENTIFIER, fullmatch=True),
        agents=st.lists(
            st.tuples(
                st.from_regex(IDENTIFIER, fullmatch=True),
                st.one_of(
                    st.sampled_from([0.0, 1.0]),
                    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                ),
            ),
            max_size=8,
        ),
    )
    def test_flip_mask_draws_like_the_reference(self, seed, trial, step, prop, agents):
        # the run kernel draws a row from a per-trial head plus per-(agent, step,
        # proposition) tails built once; RandomStream(...) stays the reference
        tails = [stream_tail(agent, step, prop) for agent, _ in agents]
        error_p = [p for _, p in agents]
        mask = flip_mask(stream_head(seed, trial), tails, error_p)
        for i, (agent, p) in enumerate(agents):
            flipped = RandomStream(seed, trial, agent, step, prop).uniform() < p
            assert bool(mask >> i & 1) == flipped
        assert mask >> len(agents) == 0

    @pytest.mark.parametrize("p", [0.0, 0.25, 1.0])
    def test_a_draw_equal_to_p_keeps_the_observation(self, monkeypatch, p):
        # flip iff u < p, strictly: a draw of exactly p never flips
        draws = []
        monkeypatch.setattr(RandomStream, "uniform", lambda stream: draws.append(stream) or p)
        tails = [stream_tail(agent, 0, "p") for agent in ("a", "b", "c")]
        assert flip_mask(stream_head(7, 0), tails, [p] * len(tails)) == 0
        assert len(draws) == len(tails)

    def test_per_agent_independence(self):
        # changing a2's error probability must not disturb a1's stream
        truth = constant_truth(True)
        loose = ErrorModel.fixed({"a1": 0.3, "a2": 0.9})
        tight = ErrorModel.fixed({"a1": 0.3, "a2": 0.1})
        for step in range(200):
            first = observe("a1", truth, loose, RandomStream(5, 0, "a1", step, "p"), step)
            second = observe("a1", truth, tight, RandomStream(5, 0, "a1", step, "p"), step)
            assert first == second


class TestErrorModels:
    def test_probability_bounds_checked(self):
        with pytest.raises(ValidationError):
            ErrorModel.fixed({"a": 1.5})
        with pytest.raises(ValidationError):
            ErrorModel.quality_mapped(-0.1, 0.5)
        with pytest.raises(ValidationError):
            ErrorModel.quality_mapped(0.6, 0.5)

    def test_quality_mapped_takes_no_probabilities(self):
        # scenario_to_dict would save this model as per_agent_fixed
        with pytest.raises(ValidationError, match="takes no probabilities"):
            ErrorModel(
                ErrorModelKind.QUALITY_MAPPED, probabilities={"s1": 0.9}, p_min=0.05, p_max=0.35
            )

    def test_quality_mapped_uses_dominance_rank(self):
        schema = make_schema((S, S))
        lattice = build(
            schema,
            (
                ("s1", FeatureVector((1, 1))),
                ("s2", FeatureVector((3, 2))),
                ("s3", FeatureVector((2, 3))),
                ("s4", FeatureVector((4, 4))),
            ),
        )
        model = ErrorModel.quality_mapped(0.05, 0.35)
        assert model.probability_for("s1", lattice) == 0.05
        assert model.probability_for("s4", lattice) == 0.35
        expected_mid = 0.05 + (0.35 - 0.05) * (1 / 3)
        assert math.isclose(model.probability_for("s2", lattice), expected_mid)
        assert math.isclose(model.probability_for("s3", lattice), expected_mid)

    def test_quality_mapped_single_agent_gets_p_min(self):
        schema = make_schema((S,))
        lattice = build(schema, (("only", FeatureVector((1,))),))
        assert ErrorModel.quality_mapped(0.2, 0.8).probability_for("only", lattice) == 0.2

    def test_quality_mapped_requires_lattice(self):
        with pytest.raises(ConfigurationError):
            ErrorModel.quality_mapped(0.1, 0.2).probability_for("a", None)


class TestGroundTruthSchedule:
    def test_piecewise_lookup(self):
        schedule = GroundTruthSchedule("p", ((0, True), (3, False), (5, True)))
        assert [schedule.value_at(s) for s in range(7)] == [
            True, True, True, False, False, True, True,
        ]

    def test_must_start_at_zero(self):
        with pytest.raises(ValidationError):
            GroundTruthSchedule("p", ((1, True),))

    def test_steps_must_increase(self):
        with pytest.raises(ValidationError):
            GroundTruthSchedule("p", ((0, True), (2, False), (2, True)))


class TestTopology:
    def test_full_broadcast_sees_everyone(self):
        profile = make_profile({"a": True, "b": False, "c": True})
        visible = visible_profile(profile, Topology.full_broadcast(), "b")
        assert visible.agents == {"a", "b", "c"}
        assert visible.beliefs == profile.beliefs

    def test_no_sources_sees_only_self(self):
        profile = make_profile({"a": True, "b": False})
        topology = Topology.graph({"a": [], "b": []})
        visible = visible_profile(profile, topology, "a")
        assert visible.agents == {"a"}

    def test_ring_neighbors(self):
        profile = make_profile({"s1": True, "s2": False, "s3": True, "s4": False})
        topology = Topology.graph(
            {"s1": ["s4", "s2"], "s2": ["s1", "s3"], "s3": ["s2", "s4"], "s4": ["s3", "s1"]}
        )
        assert visible_profile(profile, topology, "s2").agents == {"s1", "s2", "s3"}

    def test_unknown_receiver(self):
        profile = make_profile({"a": True})
        with pytest.raises(UnknownAgentError):
            visible_profile(profile, Topology.full_broadcast(), "zz")

    def test_validate_against_population(self):
        topology = Topology.graph({"a": ["ghost"]})
        with pytest.raises(ValidationError):
            topology.validate_against({"a", "b"})

    def test_adding_edges_is_monotone(self):
        rng = random.Random(41)
        agents = [f"a{i}" for i in range(6)]
        for _ in range(50):
            adjacency = {
                a: set(rng.sample(agents, rng.randint(0, 3))) for a in agents
            }
            profile = make_profile({a: rng.random() < 0.5 for a in agents})
            receiver = rng.choice(agents)
            before = visible_profile(profile, Topology.graph(adjacency), receiver).agents
            extra = rng.choice(agents)
            adjacency[receiver] = adjacency[receiver] | {extra}
            after = visible_profile(profile, Topology.graph(adjacency), receiver).agents
            assert before <= after


class TestBeliefProfile:
    def test_mismatched_keys_rejected(self):
        with pytest.raises(ValidationError):
            BeliefProfile(0, "p", {"a": Belief("b", "p", True)})

    def test_mismatched_proposition_rejected(self):
        with pytest.raises(ValidationError):
            BeliefProfile(0, "p", {"a": Belief("a", "q", True)})

    def test_value_lookup(self):
        profile = make_profile({"a": True, "b": False})
        assert profile.value_of("a") is True
        with pytest.raises(UnknownAgentError):
            profile.value_of("c")
