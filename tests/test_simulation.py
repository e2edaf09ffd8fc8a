"""Photon-pair generation and attacked propagation: counting statistics,
ground-truth reciprocity/asymmetry, clocks, dead time and determinism."""

import math

import numpy as np
import pytest

from qcsync.attacks import (
    AttackEvent,
    AttackPattern,
    CoordinationMode,
    CoordinationRule,
    DelayTrajectory,
    derive_n_from_m,
    eval_trajectory,
)
from qcsync.errors import ConfigurationError
from qcsync.runner import load_scenario
from qcsync.simulation import (
    ChannelConfig,
    ClockConfig,
    DetectorConfig,
    DetectorId,
    SourceConfig,
    TdcConfig,
    generate_pairs,
    propagate_and_detect,
    run_round_trip_sim,
)

NOISELESS_DETECTOR = DetectorConfig(efficiency=1.0, jitter_sigma_ps=0.0, dead_time_ps=0.0)
NOISELESS_TDC = TdcConfig(resolution_ps=1.0, jitter_sigma_ps=0.0)
LOSSLESS_CHANNEL = ChannelConfig(
    one_way_delay_ps=1000.0, loss_survival_prob=1.0, splitter_loopback_prob=0.5
)
QUIET_CLOCK = ClockConfig(offset_ps=-9900.0, drift_ps_per_s=0.0, white_phase_noise_sigma_ps=0.0)


def integer_pairs(duration_s=20.0, spacing_ms=1.0):
    """Deterministic integer-grid emissions, exact in float64."""
    step = int(spacing_ms * 1e9)
    t = np.arange(0, int(duration_s * 1e12), step, dtype=np.int64).astype(float)
    return np.column_stack((t, t))


def emission_lookup(pairs):
    return pairs[:, 1]


def hits(stream, det):
    """(times, pair ids) of one detector."""
    return stream.times[det], stream.pair_ids[det]


class TestGeneratePairs:
    def test_poisson_count_statistics(self):
        # Oracle: homogeneous Poisson count, expectation rate*T, sd sqrt.
        pairs = generate_pairs(SourceConfig(pair_rate_hz=10_000.0), 10.0, 42)
        expected = 10_000.0 * 10.0
        assert abs(len(pairs) - expected) <= 4.0 * math.sqrt(expected)

    def test_times_sorted_and_in_range(self):
        pairs = generate_pairs(SourceConfig(pair_rate_hz=1_000.0), 5.0, 1)
        mid = 0.5 * (pairs[:, 0] + pairs[:, 1])
        assert np.all(np.diff(mid) >= 0)
        assert mid.min() >= 0.0
        assert mid.max() < 5.0 * 1e12

    def test_vanishing_duration_yields_empty(self):
        pairs = generate_pairs(SourceConfig(pair_rate_hz=1_000.0), 1e-9, 2)
        assert len(pairs) == 0

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_pairs(SourceConfig(), 0.0, 0)

    def test_determinism(self):
        a = generate_pairs(SourceConfig(), 3.0, 77)
        b = generate_pairs(SourceConfig(), 3.0, 77)
        np.testing.assert_array_equal(a, b)

    def test_intrinsic_correlation_jitter(self):
        src = SourceConfig(pair_rate_hz=50_000.0, intrinsic_correlation_jitter_ps=40.0)
        pairs = generate_pairs(src, 4.0, 9)
        d = pairs[:, 1] - pairs[:, 0]
        assert np.std(d) == pytest.approx(40.0, rel=0.05)
        assert np.mean(d) == pytest.approx(0.0, abs=4.0 * 40.0 / math.sqrt(len(pairs)))


class TestNoiselessPropagation:
    def test_forward_path_is_exact(self):
        pairs = integer_pairs()
        stream = propagate_and_detect(
            pairs, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            NOISELESS_DETECTOR, NOISELESS_TDC, QUIET_CLOCK, 5, duration_s=20.0,
        )
        times, ids = hits(stream, DetectorId.SIGNAL_B)
        emitted = emission_lookup(pairs)[ids]
        np.testing.assert_array_equal(times - emitted.astype(np.int64), 1000 - 9900)

    def test_loopback_path_is_exact(self):
        pairs = integer_pairs()
        stream = propagate_and_detect(
            pairs, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            NOISELESS_DETECTOR, NOISELESS_TDC, QUIET_CLOCK, 5, duration_s=20.0,
        )
        times, ids = hits(stream, DetectorId.RETURN_A)
        emitted = emission_lookup(pairs)[ids]
        np.testing.assert_array_equal(times - emitted.astype(np.int64), 2000)

    def test_hidden_jump_shifts_forward_but_not_loopback(self):
        onset = 10.0001
        m = DelayTrajectory((AttackEvent(AttackPattern.JUMP, -100.0, onset),))
        n = DelayTrajectory((AttackEvent(AttackPattern.JUMP, 100.0, onset),))
        pairs = integer_pairs()
        stream = propagate_and_detect(
            pairs, LOSSLESS_CHANNEL, m, n,
            NOISELESS_DETECTOR, NOISELESS_TDC, QUIET_CLOCK, 5, duration_s=20.0,
        )
        fwd_times, fwd_ids = hits(stream, DetectorId.SIGNAL_B)
        emitted = emission_lookup(pairs)[fwd_ids]
        flight = fwd_times - emitted.astype(np.int64) - (1000 - 9900)
        late = emitted * 1e-12 >= onset
        np.testing.assert_array_equal(flight[late], -100)
        np.testing.assert_array_equal(flight[~late], 0)

        ret_times, ret_ids = hits(stream, DetectorId.RETURN_A)
        ret_emitted = emission_lookup(pairs)[ret_ids]
        np.testing.assert_array_equal(ret_times - ret_emitted.astype(np.int64), 2000)

    def test_ground_truth_asymmetry_matches_trajectory(self, rng):
        # Forward excess flight time equals M at the emission time, exactly.
        events = (
            AttackEvent(AttackPattern.JUMP, -73.0, 3.0002),
            AttackEvent(AttackPattern.SPIKE, 41.0, 8.0002, width_s=2.0),
            AttackEvent(
                AttackPattern.GRADUAL, -5.0, 12.0002, step_interval_s=2.0
            ),
        )
        m = DelayTrajectory(events)
        pairs = integer_pairs()
        stream = propagate_and_detect(
            pairs, LOSSLESS_CHANNEL, m, DelayTrajectory(),
            NOISELESS_DETECTOR, NOISELESS_TDC, QUIET_CLOCK, 6, duration_s=20.0,
        )
        times, ids = hits(stream, DetectorId.SIGNAL_B)
        emitted = emission_lookup(pairs)[ids]
        excess = times - emitted.astype(np.int64) - (1000 - 9900)
        expected = eval_trajectory(m, emitted * 1e-12)
        np.testing.assert_array_equal(excess, expected.astype(np.int64))

    def test_ground_truth_reciprocity_under_hidden_attacks(self, rng):
        # With N = -M every looped-back photon keeps a constant round trip.
        m = DelayTrajectory(
            (
                AttackEvent(AttackPattern.JUMP, -250.0, 4.0002),
                AttackEvent(AttackPattern.SPIKE, 90.0, 9.0002, width_s=3.0),
            )
        )
        n = derive_n_from_m(m, CoordinationRule(CoordinationMode.PROPORTIONAL, -1.0))
        pairs = integer_pairs()
        stream = propagate_and_detect(
            pairs, LOSSLESS_CHANNEL, m, n,
            NOISELESS_DETECTOR, NOISELESS_TDC, QUIET_CLOCK, 6, duration_s=20.0,
        )
        times, ids = hits(stream, DetectorId.RETURN_A)
        emitted = emission_lookup(pairs)[ids]
        round_trip = times - emitted.astype(np.int64)
        assert round_trip.min() == round_trip.max() == 2000


class TestCountingAndClocks:
    def test_binomial_thinning_of_idler_counts(self):
        scenario = load_scenario("baseline")
        import dataclasses

        scenario = dataclasses.replace(
            scenario, run=dataclasses.replace(scenario.run, duration_s=60.0)
        )
        stream = run_round_trip_sim(scenario)
        expected = 10_000.0 * 60.0 * 0.8
        sigma = math.sqrt(expected)
        assert abs(stream.counts()[DetectorId.IDLER_A] - expected) <= 4.0 * sigma

    def test_zero_efficiency_empty_streams(self):
        pairs = integer_pairs(duration_s=2.0)
        stream = propagate_and_detect(
            pairs, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            DetectorConfig(efficiency=0.0, jitter_sigma_ps=0.0),
            NOISELESS_TDC, QUIET_CLOCK, 8, duration_s=2.0,
        )
        assert len(stream) == 0

    def test_clock_drift_slope(self):
        clock = ClockConfig(offset_ps=0.0, drift_ps_per_s=5.0)
        pairs = integer_pairs(duration_s=20.0)
        stream = propagate_and_detect(
            pairs, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            NOISELESS_DETECTOR, NOISELESS_TDC, clock, 9, duration_s=20.0,
        )
        times, ids = hits(stream, DetectorId.SIGNAL_B)
        emitted = emission_lookup(pairs)[ids]
        excess = times - emitted - 1000.0
        slope = np.polyfit(emitted * 1e-12, excess, 1)[0]
        assert slope == pytest.approx(5.0, abs=0.01)

    def test_white_phase_noise_on_bob_clock(self):
        clock = ClockConfig(offset_ps=0.0, white_phase_noise_sigma_ps=30.0)
        pairs = integer_pairs(duration_s=20.0, spacing_ms=0.1)
        stream = propagate_and_detect(
            pairs, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            NOISELESS_DETECTOR, NOISELESS_TDC, clock, 9, duration_s=20.0,
        )
        fwd_times, fwd_ids = hits(stream, DetectorId.SIGNAL_B)
        emitted = emission_lookup(pairs)[fwd_ids]
        assert np.std(fwd_times - emitted - 1000.0) == pytest.approx(30.0, rel=0.1)
        # Alice-side detections stay exact.
        ret_times, ret_ids = hits(stream, DetectorId.RETURN_A)
        np.testing.assert_array_equal(
            ret_times - emission_lookup(pairs)[ret_ids].astype(np.int64), 2000
        )


class TestDetectorEffects:
    def test_dead_time_enforced(self):
        detector = DetectorConfig(efficiency=1.0, jitter_sigma_ps=0.0, dead_time_ps=5000.0)
        pairs = integer_pairs(duration_s=1.0, spacing_ms=0.002)  # 2 ns spacing
        stream = propagate_and_detect(
            pairs, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            detector, NOISELESS_TDC, QUIET_CLOCK, 10, duration_s=1.0,
        )
        for det in DetectorId:
            times = stream.times[det]
            if times.size > 1:
                assert np.diff(times).min() >= 5000

    def test_per_detector_monotonic_timestamps(self):
        pairs = generate_pairs(SourceConfig(pair_rate_hz=20_000.0), 5.0, 11)
        stream = propagate_and_detect(
            pairs, ChannelConfig(), DelayTrajectory(), DelayTrajectory(),
            DetectorConfig(), TdcConfig(), QUIET_CLOCK, 12, duration_s=5.0,
        )
        assert all(np.all(times >= 0) for times in stream.times)
        for det in DetectorId:
            times = stream.times[det]
            assert np.all(np.diff(times) >= 0)

    def test_negative_timestamps_dropped(self):
        # A large negative clock offset pushes early Bob readings below zero.
        clock = ClockConfig(offset_ps=-5e9)
        pairs = integer_pairs(duration_s=1.0, spacing_ms=1.0)
        stream = propagate_and_detect(
            pairs, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            NOISELESS_DETECTOR, NOISELESS_TDC, clock, 13, duration_s=1.0,
        )
        assert all(np.all(times >= 0) for times in stream.times)
        n_bob = stream.counts()[DetectorId.SIGNAL_B]
        assert n_bob < len(pairs)


class TestDeterminism:
    def test_same_seed_identical_stream(self):
        scenario = load_scenario("jump_-100ps")
        import dataclasses

        scenario = dataclasses.replace(
            scenario, run=dataclasses.replace(scenario.run, duration_s=30.0)
        )
        s1 = run_round_trip_sim(scenario)
        s2 = run_round_trip_sim(scenario)
        assert s1.counts() == s2.counts()
        for det in DetectorId:
            np.testing.assert_array_equal(s1.times[det], s2.times[det])
            np.testing.assert_array_equal(s1.pair_ids[det], s2.pair_ids[det])
        assert s1.seed == s2.seed == scenario.run.seed

    def test_same_seed_byte_identical_serialized_stream(self, tmp_path):
        from qcsync.streamio import write_stream

        scenario = load_scenario("baseline")
        import dataclasses

        scenario = dataclasses.replace(
            scenario, run=dataclasses.replace(scenario.run, duration_s=10.0)
        )
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        write_stream(run_round_trip_sim(scenario), p1)
        write_stream(run_round_trip_sim(scenario), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_differs(self):
        pairs = generate_pairs(SourceConfig(), 2.0, 1)
        s1 = propagate_and_detect(
            pairs, ChannelConfig(), DelayTrajectory(), DelayTrajectory(),
            DetectorConfig(), TdcConfig(), QUIET_CLOCK, 100, duration_s=2.0,
        )
        s2 = propagate_and_detect(
            pairs, ChannelConfig(), DelayTrajectory(), DelayTrajectory(),
            DetectorConfig(), TdcConfig(), QUIET_CLOCK, 101, duration_s=2.0,
        )
        assert len(s1) != len(s2) or not all(map(np.array_equal, s1.times, s2.times))
