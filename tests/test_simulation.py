"""Photon-pair generation and attacked propagation: counting statistics,
jitter distributions, ground-truth reciprocity/asymmetry, clocks, dead time
and determinism."""

import dataclasses
import hashlib
import json
import math
import re
import sys
from fractions import Fraction
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcsync import attacks, estimator, simulation
from qcsync.attacks import (
    AttackEvent,
    AttackPattern,
    CoordinationMode,
    CoordinationRule,
    DelayTrajectory,
    derive_n_from_m,
    eval_trajectory,
)
from qcsync.errors import ConfigurationError, ContractViolation
from qcsync.runner import load_scenario, run_scenario
from qcsync.scenario import builtin_scenario
from qcsync.simulation import (
    ChannelConfig,
    ClockConfig,
    DetectorConfig,
    DetectorId,
    EmissionPlan,
    SourceConfig,
    TdcConfig,
    TimestampStream,
    _apply_dead_time,
    generate_pairs,
    propagate_and_detect,
    run_round_trip_sim,
)


NOISELESS_SOURCE = SourceConfig(intrinsic_correlation_jitter_ps=0.0)
NOISELESS_DETECTOR = DetectorConfig(efficiency=1.0, jitter_sigma_ps=0.0, dead_time_ps=0.0)
NOISELESS_TDC = TdcConfig(resolution_ps=1.0, jitter_sigma_ps=0.0)
LOSSLESS_CHANNEL = ChannelConfig(
    one_way_delay_ps=1000.0, loss_survival_prob=1.0, splitter_loopback_prob=0.5
)
QUIET_CLOCK = ClockConfig(offset_ps=-9900.0, drift_ps_per_s=0.0, white_phase_noise_sigma_ps=0.0)


def integer_pairs(duration_s=20.0, spacing_ms=1.0):
    """Deterministic integer-grid emissions, exact in float64."""
    step = int(spacing_ms * 1e9)
    return np.arange(0, int(duration_s * 1e12), step, dtype=np.int64).astype(float)


# Flight of each detector's records on LOSSLESS_CHANNEL without attacks,
# in its own clock under QUIET_CLOCK.
BOB_FLIGHT, RETURN_FLIGHT = 1000 - 9900, 2000


def emission_times(plan):
    """Every block's emission times of ``plan``, in block order: its offsets
    after its first edge, added to that edge as floats."""
    return np.concatenate([plan.edges[i] + plan.times(i) for i in range(plan.counts.size)])


def emitted(pairs, times, flight):
    """The emission nearest ``times - flight`` for each record: its own one
    wherever the pair spacing is far wider than the jitter and the delays'
    changes."""
    t = times - flight
    i = np.clip(np.searchsorted(pairs, t), 1, pairs.size - 1)
    return pairs[np.where(t - pairs[i - 1] < pairs[i] - t, i - 1, i)]


def greedy_dead_time(times, dead_time_ps):
    """Per-record greedy dead-time loop (test oracle)."""
    if times.size == 0 or dead_time_ps <= 0:
        return times
    keep = np.ones(times.size, dtype=bool)
    last = times[0]
    for i in range(1, times.size):
        if times[i] - last < dead_time_ps:
            keep[i] = False
        else:
            last = times[i]
    return times[keep]


def rounded_normal_ks(residuals, sigma):
    """Kolmogorov-Smirnov distance between integer residuals and a zero-mean
    normal of ``sigma`` rounded to the nearest integer picosecond."""
    values, counts = np.unique(residuals, return_counts=True)
    above = np.cumsum(counts) / residuals.size
    below = above - counts / residuals.size
    cdf = np.vectorize(lambda x: 0.5 * (1.0 + math.erf(x / (sigma * math.sqrt(2.0)))))
    return max(
        float(np.abs(above - cdf(values + 0.5)).max()),
        float(np.abs(below - cdf(values - 0.5)).max()),
    )


def uniform_ks(u):
    """Kolmogorov-Smirnov distance between samples ``u`` and the uniform
    distribution on [0, 1)."""
    u = np.sort(u)
    n = u.size
    return max((np.arange(1, n + 1) / n - u).max(), (u - np.arange(n) / n).max())


def dead_time_case(name):
    """(sorted int64 times, dead time) of one seeded dead-time scenario."""
    rng = np.random.default_rng(sum(map(ord, name)))

    def from_gaps(gaps, start=0):
        return start + np.concatenate(([0], np.cumsum(gaps))).astype(np.int64)

    if name == "no-close-pairs":
        return from_gaps(rng.integers(5000, 10**6, 5000)), 5000.0
    if name == "sparse-clusters":
        return from_gaps(rng.exponential(10**6, 20_000).astype(np.int64)), 50_000.0
    if name == "dense-cluster":
        return from_gaps(np.full(5000, 2000)), 5000.0
    if name == "dead-time-far-longer-than-spacing":
        return from_gaps(rng.integers(1, 20, 20_000)), 10**5 + 0.25
    if name == "equal-timestamps":
        return np.sort(rng.integers(0, 3000, 20_000)), 3.0
    if name == "fractional-dead-time-near-3.5e15":
        gaps = rng.choice([0, 1, 49_999, 50_000, 50_001, 10**6], 20_000)
        return from_gaps(gaps, start=3_500_000_000_000_000), 50_000.5
    if name == "empty":
        return np.empty(0, np.int64), 5000.0
    if name == "single-record":
        return np.array([123], np.int64), 5000.0
    raise KeyError(name)


DEAD_TIME_CASES = [
    "no-close-pairs",
    "sparse-clusters",
    "dense-cluster",
    "dead-time-far-longer-than-spacing",
    "equal-timestamps",
    "fractional-dead-time-near-3.5e15",
    "empty",
    "single-record",
]


class TestStreamLayout:
    @pytest.mark.parametrize(
        "times, error",
        [
            ([[1], [2]], ConfigurationError),  # two detector arrays, not three
            ([[5, 1], [0], [0]], ContractViolation),  # IdlerA out of order
            ([[-1], [0], [0]], ConfigurationError),  # negative timestamp
        ],
        ids=["two_detectors", "unsorted", "negative_time"],
    )
    def test_malformed_layout_rejected(self, times, error):
        # Unsorted times break the caller's contract, as in build_histogram.
        with pytest.raises(error):
            TimestampStream(times=times, duration_s=1.0)

    @pytest.mark.parametrize(
        "idler",
        [
            [1.7, 2.2],
            [1.0, float("nan")],
            [1.0, float("inf")],
            [2.0**63],
            np.array([True, True]),
            np.array([2**63], np.uint64),
            [2**70],
            ["1", "2"],
        ],
        ids=["fractional", "nan", "infinite", "float-beyond-int64", "bool", "uint64-beyond-int64",
             "int-beyond-int64", "text"],
    )
    def test_inexact_times_refused(self, idler):
        # Converting any of these would change or invent a timestamp.
        with pytest.raises(ConfigurationError, match="IdlerA timestamps must be exact integers"):
            TimestampStream(times=[idler, [20], []], duration_s=1.0)

    def test_exact_times_converted_and_int64_kept(self):
        idler = np.array([10, 40], np.int64)
        stream = TimestampStream(
            times=[idler, [20.0, 50.0], np.array([2**53 - 1], np.uint64)], duration_s=1.0
        )
        assert stream.times[DetectorId.IDLER_A] is idler
        assert all(t.dtype == np.int64 for t in stream.times)
        assert stream.times[DetectorId.SIGNAL_B].tolist() == [20, 50]
        assert stream.times[DetectorId.RETURN_A].tolist() == [2**53 - 1]

    @pytest.mark.parametrize(
        "times, name",
        [
            ([[2**62], [2**62 + 3], []], "IdlerA"),
            ([[10], [20, 2**62], []], "SignalB"),
            ([[10], [20], np.array([2**63 - 1], np.uint64)], "ReturnA"),
        ],
        ids=["IdlerA-2**62", "SignalB-2**62", "ReturnA-2**63-1"],
    )
    def test_times_past_the_exact_range_refused(self, times, name):
        # The estimator takes t_b - t_a, and a time plus a window end, in
        # int64, which holds them only for times strictly within 2**62 ps.
        bound = re.escape("timestamps must be exact integers strictly within +-2**62 ps")
        with pytest.raises(ConfigurationError, match=f"^{name} {bound}"):
            TimestampStream(times=times, duration_s=1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("duration_s", float("nan")),
            ("duration_s", float("inf")),
            ("duration_s", -1.0),
            ("nominal_one_way_delay_ps", "abc"),
            ("nominal_one_way_delay_ps", 0.0),
            ("nominal_one_way_delay_ps", float("inf")),
        ],
        ids=["nan-duration", "infinite-duration", "negative-duration", "text-delay",
             "zero-delay", "infinite-delay"],
    )
    def test_bad_metadata_refused(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            TimestampStream(times=[[10, 40], [20, 50], [30]], **{"duration_s": 1.0, field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("duration_s", "1.0"), ("duration_s", True)],
        ids=["text-duration", "bool-duration"],
    )
    def test_header_values_not_coerced(self, field, value):
        # Metadata read from a recording's header reaches the stream as
        # written and is refused there rather than converted.
        with pytest.raises(ConfigurationError, match=field):
            TimestampStream(times=[[10], [20], []], **{"duration_s": 1.0, field: value})


class TestSortedCheck:
    @pytest.mark.parametrize("window", [1, 2, 3, 5])
    def test_inversion_found_at_every_position(self, monkeypatch, window):
        # The windows overlap by one element, so an inversion across a window
        # edge is seen as well as one inside a window.
        monkeypatch.setattr(simulation, "_PAIR_CHUNK", window)
        values = np.arange(12)
        assert simulation.is_sorted(values)
        assert simulation.is_sorted(values[:1]) and simulation.is_sorted(values[:0])
        for i in range(values.size - 1):
            swapped = values.copy()
            swapped[[i, i + 1]] = swapped[[i + 1, i]]
            assert not simulation.is_sorted(swapped)


class TestGeneratePairs:
    def test_poisson_count_statistics(self):
        # Oracle: homogeneous Poisson count, expectation rate*T, sd sqrt.
        pairs = generate_pairs(SourceConfig(pair_rate_hz=10_000.0), 10.0, 42)
        expected = 10_000.0 * 10.0
        assert abs(len(pairs) - expected) <= 4.0 * math.sqrt(expected)

    def test_times_sorted_and_in_range(self):
        pairs = emission_times(generate_pairs(SourceConfig(pair_rate_hz=1_000.0), 5.0, 1))
        assert pairs.ndim == 1
        assert np.all(np.diff(pairs) >= 0)
        assert pairs.min() >= 0.0
        assert pairs.max() < 5.0 * 1e12

    def test_vanishing_duration_yields_empty(self):
        plan = generate_pairs(SourceConfig(pair_rate_hz=1_000.0), 1e-9, 2)
        assert len(plan) == 0 and emission_times(plan).size == 0

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_pairs(SourceConfig(), 0.0, 0)

    def test_run_beyond_exact_range_rejected(self):
        # A run ends at most 2**62 - 2**50 ps (~53 days) after it starts, so
        # its readings, within 2**50 ps of a block's start, lie within
        # 2**62 ps.  A longer run is refused before any time is drawn, and
        # one past 2**53 ps is planned in whole picoseconds, in blocks of at
        # most 2**49 ps however slow the source.
        longest = simulation.MAX_RUN_PS * 1e-12
        too_long = r"^duration_s must end the run at most 2\*\*62 - 2\*\*50 ps"
        with pytest.raises(ConfigurationError, match=too_long):
            generate_pairs(SourceConfig(), longest * (1 + 1e-15), 0)
        plan = generate_pairs(SourceConfig(pair_rate_hz=1e-3), longest, 0)
        assert plan.edges.dtype == np.int64 and plan.edges[-1] == round(longest * 1e12)
        assert np.diff(plan.edges).max() == 2**49 and len(plan) > 0
        plan = generate_pairs(SourceConfig(pair_rate_hz=1.0), 9008.0, 0)
        assert len(plan) > 0 and plan.edges[-1] == 9_008 * 10**12 > 2**53
        assert plan.counts.size == 17 and np.diff(plan.edges).max() == 2**49

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf, -(2.0**62)], ids=repr)
    def test_emission_times_outside_the_exact_range_refused(self, bad):
        # Given emission times pass the one timestamp rule: exact integers
        # strictly within 2**62 ps of zero.
        with pytest.raises(ConfigurationError, match="^pairs timestamps must be exact integers"):
            propagate_and_detect(
                np.array([1e9, bad, 2e9]), SourceConfig(), ChannelConfig(), DelayTrajectory(),
                DelayTrajectory(), DetectorConfig(), TdcConfig(), ClockConfig(), 1, duration_s=1.0,
            )

    def test_determinism(self):
        a = emission_times(generate_pairs(SourceConfig(), 3.0, 77))
        b = emission_times(generate_pairs(SourceConfig(), 3.0, 77))
        np.testing.assert_array_equal(a, b)

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        chunk=st.integers(1, 40),
        rate_hz=st.floats(10.0, 5000.0),
        duration_s=st.floats(1e-3, 1.0),
        seed=st.integers(0, 2**63),
    )
    def test_blocks_sorted_in_range_and_counted(self, chunk, rate_hz, duration_s, seed):
        # Blocks of ``chunk / rate_hz`` seconds, the last one cut at the end
        # of the run: each holds exactly the Poisson count drawn for it.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulation, "_PAIR_CHUNK", chunk)
            plan = generate_pairs(SourceConfig(pair_rate_hz=rate_hz), duration_s, seed)
            pairs = emission_times(plan)
        end_ps = duration_s * 1e12
        n_blocks = max(1, math.ceil(duration_s * rate_hz / chunk))
        edges = np.minimum(np.arange(n_blocks + 1) * (chunk / rate_hz * 1e12), end_ps)
        edges[-1] = end_ps
        edges = np.rint(edges).astype(np.int64)
        assert np.all(pairs[1:] >= pairs[:-1])
        assert pairs.size == 0 or (pairs[0] >= 0.0 and pairs[-1] < edges[-1])
        counts = np.random.default_rng(seed).poisson(np.diff(edges) * (rate_hz * 1e-12))
        np.testing.assert_array_equal(plan.edges, edges)
        np.testing.assert_array_equal(plan.counts, counts)
        assert pairs.size == len(plan) == counts.sum()
        np.testing.assert_array_equal(np.diff(np.searchsorted(pairs, edges)), counts)

    def test_propagation_draws_each_block_once(self, monkeypatch):
        # Block i is drawn on a worker as chunk i, and nothing else draws.
        monkeypatch.setattr(simulation, "_PAIR_CHUNK", 997)
        drawn = []
        times = EmissionPlan.times

        def recording(plan, i):
            drawn.append((i, threading.current_thread()))
            return times(plan, i)

        monkeypatch.setattr(EmissionPlan, "times", recording)
        source = SourceConfig(pair_rate_hz=1e5)
        plan = generate_pairs(source, 0.2, 31)
        assert drawn == []
        propagate_and_detect(
            plan, source, ChannelConfig(), DelayTrajectory(), DelayTrajectory(),
            DetectorConfig(), TdcConfig(), ClockConfig(), 32, duration_s=0.2,
        )
        assert sorted(i for i, _ in drawn) == list(range(plan.counts.size))
        assert threading.main_thread() not in {thread for _, thread in drawn}

    def test_times_uniform_across_blocks(self, monkeypatch):
        # ~300 blocks of 64 expected pairs: the times are uniform over the
        # run, and their phases within their blocks are uniform too.
        monkeypatch.setattr(simulation, "_PAIR_CHUNK", 64)
        pairs = emission_times(generate_pairs(SourceConfig(pair_rate_hz=10_000.0), 2.0, 5))
        critical = 1.95 / math.sqrt(pairs.size)  # 0.1% level
        block_ps = 64 / 10_000.0 * 1e12
        phase = pairs % block_ps / block_ps
        assert uniform_ks(pairs / 2e12) < critical
        assert uniform_ks(phase) < critical
        # The test has power: phases squeezed into 90% of a block fail.
        assert uniform_ks(0.9 * phase) > critical


class TestNoiselessPropagation:
    def test_forward_path_is_exact(self):
        pairs = integer_pairs()
        stream = propagate_and_detect(
            pairs.copy(), NOISELESS_SOURCE, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            NOISELESS_DETECTOR, NOISELESS_TDC, QUIET_CLOCK, 5, duration_s=20.0,
        )
        # Every SignalB reading, less the flight, is an emission exactly.
        times = stream.times[DetectorId.SIGNAL_B]
        assert times.size > 0.45 * len(pairs)
        assert np.all(np.isin(times - BOB_FLIGHT, pairs.astype(np.int64)))

    def test_loopback_path_is_exact(self):
        pairs = integer_pairs()
        stream = propagate_and_detect(
            pairs.copy(), NOISELESS_SOURCE, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            NOISELESS_DETECTOR, NOISELESS_TDC, QUIET_CLOCK, 5, duration_s=20.0,
        )
        times = stream.times[DetectorId.RETURN_A]
        assert times.size > 0.45 * len(pairs)
        assert np.all(np.isin(times - RETURN_FLIGHT, pairs.astype(np.int64)))

    def test_emissions_exact_across_chunks(self, monkeypatch):
        # Lossless: the emissions read back from SignalB and from ReturnA
        # partition the pairs, from every slice of the pair array.
        monkeypatch.setattr(simulation, "_PAIR_CHUNK", 997)
        pairs = integer_pairs()
        stream = propagate_and_detect(
            pairs.copy(), NOISELESS_SOURCE, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            NOISELESS_DETECTOR, NOISELESS_TDC, QUIET_CLOCK, 5, duration_s=20.0,
        )
        emissions = np.concatenate(
            (
                stream.times[DetectorId.SIGNAL_B] - BOB_FLIGHT,
                stream.times[DetectorId.RETURN_A] - RETURN_FLIGHT,
            )
        )
        np.testing.assert_array_equal(np.sort(emissions), pairs.astype(np.int64))
        np.testing.assert_array_equal(stream.times[DetectorId.IDLER_A], pairs.astype(np.int64))

    def test_intrinsic_correlation_jitter(self):
        # The estimator sees the source's jitter only as SignalB - IdlerA of
        # one pair: sigma 40 ps about the flight time.
        source = SourceConfig(intrinsic_correlation_jitter_ps=40.0)
        pairs = integer_pairs(duration_s=20.0, spacing_ms=0.2)
        stream = propagate_and_detect(
            pairs, source, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            NOISELESS_DETECTOR, NOISELESS_TDC, QUIET_CLOCK, 5, duration_s=20.0,
        )
        # SignalB is exact; each idler is jittered far less than the 0.2 ms
        # pair spacing, so the nearest idler to a pair's emission is its own.
        idler_times = stream.times[DetectorId.IDLER_A]
        bob_times = stream.times[DetectorId.SIGNAL_B]
        d = bob_times - emitted(idler_times, bob_times, BOB_FLIGHT)
        assert d.size > 0.45 * len(pairs)
        assert np.std(d) == pytest.approx(40.0, rel=0.05)
        assert np.mean(d) == pytest.approx(1000 - 9900, abs=4.0 * 40.0 / math.sqrt(d.size))

    def test_hidden_jump_shifts_forward_but_not_loopback(self):
        onset = 10.0001
        m = DelayTrajectory((AttackEvent(AttackPattern.JUMP, -100.0, onset),))
        n = DelayTrajectory((AttackEvent(AttackPattern.JUMP, 100.0, onset),))
        pairs = integer_pairs()
        stream = propagate_and_detect(
            pairs.copy(), NOISELESS_SOURCE, LOSSLESS_CHANNEL, m, n,
            NOISELESS_DETECTOR, NOISELESS_TDC, QUIET_CLOCK, 5, duration_s=20.0,
        )
        fwd_times = stream.times[DetectorId.SIGNAL_B]
        fwd_emitted = emitted(pairs, fwd_times, BOB_FLIGHT)
        flight = fwd_times - fwd_emitted.astype(np.int64) - BOB_FLIGHT
        late = fwd_emitted * 1e-12 >= onset
        assert late.any() and not late.all()
        np.testing.assert_array_equal(flight[late], -100)
        np.testing.assert_array_equal(flight[~late], 0)

        ret_times = stream.times[DetectorId.RETURN_A]
        assert np.all(np.isin(ret_times - RETURN_FLIGHT, pairs.astype(np.int64)))

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
            pairs.copy(), NOISELESS_SOURCE, LOSSLESS_CHANNEL, m, DelayTrajectory(),
            NOISELESS_DETECTOR, NOISELESS_TDC, QUIET_CLOCK, 6, duration_s=20.0,
        )
        times = stream.times[DetectorId.SIGNAL_B]
        emissions = emitted(pairs, times, BOB_FLIGHT)
        excess = times - emissions.astype(np.int64) - BOB_FLIGHT
        expected = eval_trajectory(m, emissions * 1e-12)
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
            pairs.copy(), NOISELESS_SOURCE, LOSSLESS_CHANNEL, m, n,
            NOISELESS_DETECTOR, NOISELESS_TDC, QUIET_CLOCK, 6, duration_s=20.0,
        )
        times = stream.times[DetectorId.RETURN_A]
        round_trip = times - emitted(pairs, times, RETURN_FLIGHT).astype(np.int64)
        assert round_trip.min() == round_trip.max() == RETURN_FLIGHT


class TestCountingAndClocks:
    def test_binomial_thinning_of_idler_counts(self):
        scenario = load_scenario("baseline")
        import dataclasses

        # 60 epochs leave the 60-epoch threshold window nothing to judge.
        scenario = dataclasses.replace(
            scenario, run=dataclasses.replace(scenario.run, duration_s=60.0), detection=None
        )
        stream = run_round_trip_sim(scenario)
        expected = 10_000.0 * 60.0 * 0.8
        sigma = math.sqrt(expected)
        assert abs(stream.counts()[DetectorId.IDLER_A] - expected) <= 4.0 * sigma

    def test_zero_efficiency_empty_streams(self):
        pairs = integer_pairs(duration_s=2.0)
        stream = propagate_and_detect(
            pairs, NOISELESS_SOURCE, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            DetectorConfig(efficiency=0.0, jitter_sigma_ps=0.0),
            NOISELESS_TDC, QUIET_CLOCK, 8, duration_s=2.0,
        )
        assert len(stream) == 0

    def test_clock_drift_slope(self, monkeypatch):
        # Chunks of 997 pairs, so the drift reads the time from each
        # chunk's origin as well as from its offsets.
        monkeypatch.setattr(simulation, "_PAIR_CHUNK", 997)
        clock = ClockConfig(offset_ps=0.0, drift_ps_per_s=5.0)
        pairs = integer_pairs(duration_s=20.0)
        stream = propagate_and_detect(
            pairs.copy(), NOISELESS_SOURCE, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            NOISELESS_DETECTOR, NOISELESS_TDC, clock, 9, duration_s=20.0,
        )
        times = stream.times[DetectorId.SIGNAL_B]
        emissions = emitted(pairs, times, 1000)
        excess = times - emissions - 1000.0
        slope = np.polyfit(emissions * 1e-12, excess, 1)[0]
        assert slope == pytest.approx(5.0, abs=0.01)

    def test_white_phase_noise_on_bob_clock(self):
        clock = ClockConfig(offset_ps=0.0, white_phase_noise_sigma_ps=30.0)
        pairs = integer_pairs(duration_s=20.0, spacing_ms=0.1)
        stream = propagate_and_detect(
            pairs.copy(), NOISELESS_SOURCE, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            NOISELESS_DETECTOR, NOISELESS_TDC, clock, 9, duration_s=20.0,
        )
        fwd_times = stream.times[DetectorId.SIGNAL_B]
        residuals = fwd_times - emitted(pairs, fwd_times, 1000) - 1000.0
        assert np.std(residuals) == pytest.approx(30.0, rel=0.1)
        # Alice-side detections stay exact.
        ret_times = stream.times[DetectorId.RETURN_A]
        assert np.all(np.isin(ret_times - RETURN_FLIGHT, pairs.astype(np.int64)))


class TestThinnedSampler:
    def test_detector_counts_match_binomial_expectations(self):
        # Default channel: idler hit e, SignalB s(1-l)e, ReturnA s*l*s*e.
        channel, detector = ChannelConfig(), DetectorConfig()
        pairs = integer_pairs(duration_s=20.0, spacing_ms=0.05)
        stream = propagate_and_detect(
            pairs, SourceConfig(), channel, DelayTrajectory(), DelayTrajectory(),
            detector, TdcConfig(), ClockConfig(), 14, duration_s=20.0,
        )
        s, loop, e = (
            channel.loss_survival_prob, channel.splitter_loopback_prob, detector.efficiency
        )
        expected = {
            DetectorId.IDLER_A: e,
            DetectorId.SIGNAL_B: s * (1.0 - loop) * e,
            DetectorId.RETURN_A: s * loop * s * e,
        }
        n = len(pairs)
        for det, p in expected.items():
            sigma = math.sqrt(n * p * (1.0 - p))
            assert abs(stream.counts()[det] - n * p) <= 4.0 * sigma

    def test_jitter_residuals_follow_merged_sigma(self):
        # Lossless, attack-free link: each record's residual against its
        # emission is one Gaussian of the merged sigma, rounded by the TDC.
        detector = DetectorConfig(efficiency=1.0, jitter_sigma_ps=40.0)
        tdc = TdcConfig(resolution_ps=1.0, jitter_sigma_ps=15.0)
        clock = ClockConfig(offset_ps=-9900.0, white_phase_noise_sigma_ps=30.0)
        source = SourceConfig(intrinsic_correlation_jitter_ps=40.0)
        pairs = integer_pairs(duration_s=20.0, spacing_ms=0.2)
        stream = propagate_and_detect(
            pairs.copy(), source, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            detector, tdc, clock, 15, duration_s=20.0,
        )
        alice = math.hypot(40.0, 15.0)
        idler = math.hypot(40.0, 15.0, 40.0)
        bob = math.hypot(40.0, 15.0, 30.0)
        exact = {
            DetectorId.IDLER_A: (0, idler, alice),
            DetectorId.SIGNAL_B: (BOB_FLIGHT, bob, alice),
            DetectorId.RETURN_A: (RETURN_FLIGHT, alice, bob),
        }
        for det, (flight, sigma, other_sigma) in exact.items():
            # Sigmas of ~60 ps against a 0.2 ms pair spacing.
            times = stream.times[det]
            residuals = times - emitted(pairs, times, flight).astype(np.int64) - flight
            critical = 1.95 / math.sqrt(residuals.size)  # 0.1% level
            assert rounded_normal_ks(residuals, sigma) < critical
            # The other side's sigma is rejected, so the test has power.
            assert rounded_normal_ks(residuals, other_sigma) > critical


class TestDetectorEffects:
    def test_dead_time_enforced(self):
        detector = DetectorConfig(efficiency=1.0, jitter_sigma_ps=0.0, dead_time_ps=5000.0)
        pairs = integer_pairs(duration_s=1.0, spacing_ms=0.002)  # 2 ns spacing
        stream = propagate_and_detect(
            pairs, NOISELESS_SOURCE, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            detector, NOISELESS_TDC, QUIET_CLOCK, 10, duration_s=1.0,
        )
        for det in DetectorId:
            times = stream.times[det]
            if times.size > 1:
                assert np.diff(times).min() >= 5000

    @pytest.mark.parametrize("case", DEAD_TIME_CASES)
    def test_dead_time_matches_greedy_oracle(self, case):
        times, dead_time_ps = dead_time_case(case)
        kept = _apply_dead_time(times, dead_time_ps)
        np.testing.assert_array_equal(kept, greedy_dead_time(times, dead_time_ps))

    @pytest.mark.parametrize("case", DEAD_TIME_CASES)
    @settings(max_examples=10, deadline=None, database=None)
    @given(slice_records=st.integers(1, 64))
    def test_in_place_dead_time_matches_greedy_oracle(self, case, slice_records):
        # Slices of 1-64 records put edges inside the clusters of most cases,
        # and the one-cluster cases span hundreds of slices.
        times, dead_time_ps = dead_time_case(case)
        want = greedy_dead_time(times, dead_time_ps)
        records = simulation._DetectorRecords(np.empty(times.size, np.int64))
        records.append(times)
        slices = []

        def recording(t, dead):
            slices.append(t.size)
            return _apply_dead_time(t, dead)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulation, "_PAIR_CHUNK", slice_records)
            patch.setattr(simulation, "_apply_dead_time", recording)
            kept = records.finish(dead_time_ps)
        np.testing.assert_array_equal(kept, want)
        # Each slice after the first also holds its anchor.  The slices' own
        # records are bounded by the slice length and cover the stream.
        own = slices[:1] + [size - 1 for size in slices[1:]]
        assert all(size <= slice_records for size in own)
        assert sum(own) == times.size

    def test_per_detector_monotonic_timestamps(self):
        source = SourceConfig(pair_rate_hz=20_000.0)
        pairs = generate_pairs(source, 5.0, 11)
        stream = propagate_and_detect(
            pairs, source, ChannelConfig(), DelayTrajectory(), DelayTrajectory(),
            DetectorConfig(), TdcConfig(), QUIET_CLOCK, 12, duration_s=5.0,
        )
        assert all(np.all(times >= 0) for times in stream.times)
        for det in DetectorId:
            times = stream.times[det]
            assert np.all(np.diff(times) >= 0)

    def test_negative_timestamps_dropped(self, monkeypatch):
        # A large negative clock offset pushes early Bob readings below zero;
        # tiny chunks put those records in several slices of the pair array.
        monkeypatch.setattr(simulation, "_PAIR_CHUNK", 3)
        clock = ClockConfig(offset_ps=-5e9)
        pairs = integer_pairs(duration_s=1.0, spacing_ms=1.0)
        stream = propagate_and_detect(
            pairs.copy(), NOISELESS_SOURCE, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            NOISELESS_DETECTOR, NOISELESS_TDC, clock, 13, duration_s=1.0,
        )
        assert all(np.all(times >= 0) for times in stream.times)
        n_bob = stream.counts()[DetectorId.SIGNAL_B]
        assert n_bob < len(pairs)
        # Lossless and noiseless: every pair not looped back reaches Bob, and
        # exactly those whose reading falls below zero are missing.
        emissions = set(pairs.astype(np.int64).tolist())
        looped = set((stream.times[DetectorId.RETURN_A] - RETURN_FLIGHT).tolist())
        assert looped <= emissions
        at_bob = emissions - looped
        negative = {e for e in at_bob if e + 1000 - 5e9 < 0}
        read = set((stream.times[DetectorId.SIGNAL_B] - (1000 - 5_000_000_000)).tolist())
        assert read <= at_bob
        assert negative and at_bob - read == negative


def reference_finalize(out_times, dead_time_ps):
    """One detector's chunk outputs, concatenated and globally sorted the way
    ``propagate_and_detect`` did before it assembled them in place (test
    oracle)."""
    t = np.sort(np.concatenate([np.empty(0, np.int64), *out_times]))
    # Negative times sort first and are dropped with one slice.
    return _apply_dead_time(t[np.searchsorted(t, 0) :], dead_time_ps)


@pytest.fixture
def recorded_assembly(monkeypatch):
    """Per-detector assemblies of the next runs, in ``DetectorId`` order, each
    with a copy of every chunk it was given, the count of its records kept
    (``assembled``) and, as ``ordered``, whether no chunk's kept records
    started before the records already held ended."""
    made = []

    class Recording(simulation._DetectorRecords):
        def __init__(self, buffer):
            super().__init__(buffer)
            self.chunks = []
            self.assembled = 0
            self.ordered = True
            made.append(self)

        def append(self, times):
            self.chunks.append(times.copy())
            kept = times[times >= 0]
            if self.size and kept.size and kept.min() < self.times[self.size - 1]:
                self.ordered = False
            self.assembled += kept.size
            super().append(times)

    monkeypatch.setattr(simulation, "_DetectorRecords", Recording)
    return made


class TestInPlaceAssembly:
    """Chunk-by-chunk assembly is bit-equal to one global stable sort."""

    RATE_HZ = 1e5  # 10 us pair spacing

    def run(self, recorded, jitter_ps=10.0, dead_time_ps=0.0, offset_ps=-9900.0,
            tdc=NOISELESS_TDC):
        source = SourceConfig(pair_rate_hz=self.RATE_HZ)
        pairs = generate_pairs(source, 0.1, 21)
        detector = DetectorConfig(jitter_sigma_ps=jitter_ps, dead_time_ps=dead_time_ps)
        stream = propagate_and_detect(
            pairs, source, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            detector, tdc, ClockConfig(offset_ps=offset_ps), 22, duration_s=0.1,
        )
        assert len(recorded) == len(DetectorId)
        for det, records in zip(DetectorId, recorded):
            assert stream.times[det].dtype == np.int64
            want = reference_finalize(records.chunks, dead_time_ps)
            np.testing.assert_array_equal(stream.times[det], want)
        return pairs, stream

    @pytest.mark.parametrize("chunk", [3, 997, None], ids=["3", "997", "default"])
    @pytest.mark.parametrize("jitter_ps", [1e8, 10.0], ids=["above-spacing", "below-spacing"])
    def test_equals_global_stable_sort(self, monkeypatch, recorded_assembly, chunk, jitter_ps):
        if chunk is not None:
            monkeypatch.setattr(simulation, "_PAIR_CHUNK", chunk)
        pairs, _ = self.run(recorded_assembly, jitter_ps=jitter_ps)
        several_chunks = pairs.counts.size > 1
        # Jitter of ten pair spacings makes neighbouring chunks overlap in
        # time, so a chunk is merged with the held tail; a 10 ps jitter
        # never does.
        overlapped = not all(records.ordered for records in recorded_assembly)
        assert overlapped == (several_chunks and jitter_ps > 1e6)

    def test_grown_from_capacity_one(self, monkeypatch, recorded_assembly):
        monkeypatch.setattr(simulation, "_PAIR_CHUNK", 997)
        monkeypatch.setattr(simulation, "_expected_capacity", lambda n_pairs, prob: 1)
        self.run(recorded_assembly, jitter_ps=1e8)

    @pytest.mark.parametrize("jitter_ps", [1e8, 10.0], ids=["above-spacing", "below-spacing"])
    def test_dead_time_50ns(self, monkeypatch, recorded_assembly, jitter_ps):
        monkeypatch.setattr(simulation, "_PAIR_CHUNK", 997)
        _, stream = self.run(recorded_assembly, jitter_ps=jitter_ps, dead_time_ps=50_000.0)
        dropped = sum(r.assembled for r in recorded_assembly) - len(stream)
        assert dropped > 0

    def test_time_ties(self, monkeypatch, recorded_assembly):
        # A 0.1 ms TDC grid puts about ten records on each tick.
        monkeypatch.setattr(simulation, "_PAIR_CHUNK", 997)
        _, stream = self.run(recorded_assembly, jitter_ps=1e8, tdc=TdcConfig(resolution_ps=1e8))
        times = stream.times[DetectorId.IDLER_A]
        assert (times[1:] == times[:-1]).mean() > 0.5

    def test_negative_times(self, monkeypatch, recorded_assembly):
        # Bob's clock reads 50 ms behind: half his records fall below zero,
        # and the jitter pushes the first idlers there too.
        monkeypatch.setattr(simulation, "_PAIR_CHUNK", 997)
        self.run(recorded_assembly, jitter_ps=1e8, offset_ps=-5e10)
        negative = [
            sum(int((t < 0).sum()) for t in records.chunks) for records in recorded_assembly
        ]
        assert negative[DetectorId.IDLER_A] > 0
        assert negative[DetectorId.SIGNAL_B] > 1000


def reversed_pipeline(produce, count, consume):
    """``simulation._pipeline`` with every chunk computed first, last chunk
    first, and then consumed in index order."""
    results = [produce(i) for i in reversed(range(count))]
    for result in reversed(results):
        consume(result)


class TestScheduling:
    """Each chunk draws from its own generator, so how many chunks run at
    once, and in which order, cannot change a stream or a bundle."""

    @staticmethod
    def schedule(monkeypatch, name):
        if name == "one-wide":
            monkeypatch.setattr(simulation, "_WORKERS", 1)
        elif name == "reversed":
            monkeypatch.setattr(simulation, "_pipeline", reversed_pipeline)
            monkeypatch.setattr(estimator, "_pipeline", reversed_pipeline)

    @staticmethod
    def streams(jitter_ps, dead_time_ps):
        source = SourceConfig(pair_rate_hz=1e5)
        pairs = generate_pairs(source, 0.2, 31)
        detector = DetectorConfig(jitter_sigma_ps=jitter_ps, dead_time_ps=dead_time_ps)
        return propagate_and_detect(
            pairs, source, ChannelConfig(), DelayTrajectory(), DelayTrajectory(),
            detector, TdcConfig(), ClockConfig(), 32, duration_s=0.2,
        )

    @pytest.mark.parametrize("schedule", ["one-wide", "reversed"])
    @pytest.mark.parametrize("dead_time_ps", [0.0, 50_000.0], ids=["no-dead-time", "dead-time"])
    @pytest.mark.parametrize("jitter_ps", [50.0, 1e8], ids=["in-order", "overlapping"])
    def test_streams_match_two_wide(self, monkeypatch, schedule, dead_time_ps, jitter_ps):
        # 20 000 pairs in 20 blocks and chunks of 997.
        monkeypatch.setattr(simulation, "_PAIR_CHUNK", 997)
        assert simulation._WORKERS == 2
        want = self.streams(jitter_ps, dead_time_ps)
        self.schedule(monkeypatch, schedule)
        got = self.streams(jitter_ps, dead_time_ps)
        assert len(want) > 20_000
        for det in DetectorId:
            assert want.times[det].tobytes() == got.times[det].tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_buffers_are_finished_on_the_workers(self, monkeypatch, workers):
        # Each detector's sort and dead time run on a worker thread when
        # there are two, on the calling thread when there is one, and the
        # stream is the same.
        monkeypatch.setattr(simulation, "_PAIR_CHUNK", 997)
        want = self.streams(1e8, 50_000.0)
        monkeypatch.setattr(simulation, "_WORKERS", workers)
        threads = []
        finish = simulation._DetectorRecords.finish

        def recording(records, *args):
            threads.append(threading.get_ident())
            return finish(records, *args)

        monkeypatch.setattr(simulation._DetectorRecords, "finish", recording)
        got = self.streams(1e8, 50_000.0)
        assert len(threads) == len(DetectorId)
        on_caller = [t == threading.get_ident() for t in threads]
        assert on_caller == [workers == 1] * len(DetectorId)
        for det in DetectorId:
            assert want.times[det].tobytes() == got.times[det].tobytes()

    def test_four_wide_with_fast_switching(self, monkeypatch):
        # More threads than cores, switching every microsecond: a chunk
        # consumed out of turn or written over another would show.
        monkeypatch.setattr(simulation, "_PAIR_CHUNK", 997)
        want = self.streams(1e8, 50_000.0)
        monkeypatch.setattr(simulation, "_WORKERS", 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = self.streams(1e8, 50_000.0)
        finally:
            sys.setswitchinterval(interval)
        for det in DetectorId:
            assert want.times[det].tobytes() == got.times[det].tobytes()

    @pytest.mark.parametrize("schedule", ["one-wide", "reversed"])
    def test_bundle_matches_two_wide(self, monkeypatch, tmp_path, schedule):
        # 20 s at 10 kHz: four default chunks and both estimator kernels.
        doc = builtin_scenario("jump_-100ps")
        doc["run"]["duration_s"] = 20.0
        del doc["detection"]
        run_scenario(doc, tmp_path / "two-wide")
        self.schedule(monkeypatch, schedule)
        run_scenario(doc, tmp_path / schedule)
        names = sorted(p.name for p in (tmp_path / "two-wide").iterdir())
        assert names == sorted(p.name for p in (tmp_path / schedule).iterdir())
        assert "series.csv" in names
        for name in names:
            want = (tmp_path / "two-wide" / name).read_bytes()
            got = (tmp_path / schedule / name).read_bytes()
            if name == "meta.json":
                want, got = (
                    {k: v for k, v in json.loads(b).items() if k != "wall_time_s"}
                    for b in (want, got)
                )
            assert want == got, name

    def test_worker_error_reaches_caller(self, monkeypatch):
        # A delay too large for any timestamp from 0.15 s on: the chunks
        # after that refuse it on a worker thread.
        monkeypatch.setattr(simulation, "_PAIR_CHUNK", 997)
        refused_on = []

        def recording(traj, t_s):
            try:
                return eval_trajectory(traj, t_s)
            except ConfigurationError:
                refused_on.append(threading.current_thread())
                raise

        monkeypatch.setattr(simulation, "eval_trajectory", recording)
        source = SourceConfig(pair_rate_hz=1e5)
        m = DelayTrajectory((AttackEvent(AttackPattern.JUMP, 1e17, 0.15),))
        with pytest.raises(ConfigurationError, match="not finite or exceeds the exact"):
            propagate_and_detect(
                generate_pairs(source, 0.2, 33), source, ChannelConfig(), m, DelayTrajectory(),
                DetectorConfig(), TdcConfig(), ClockConfig(), 34, duration_s=0.2,
            )
        assert refused_on and threading.main_thread() not in refused_on

    def test_kernel_error_reaches_caller(self, monkeypatch):
        def refusing(*args):
            raise ConfigurationError(f"refused on {threading.current_thread().name}")

        monkeypatch.setattr(estimator, "_histograms", refusing)
        stream = self.streams(50.0, 0.0)
        config = estimator.EstimatorConfig(
            forward_center_ps=49_000_000, loopback_center_ps=98_000_000
        )
        with pytest.raises(ConfigurationError, match="refused on ThreadPoolExecutor"):
            estimator.per_epoch_series(stream, 0.1, config)

    def test_next_chunk_runs_while_one_is_consumed(self):
        # Chunk i + _WORKERS is queued before chunk i is consumed, so no
        # worker waits for the calling thread to assemble.
        count = 12
        started = [threading.Event() for _ in range(count)]
        consumed = []

        def produce(i):
            started[i].set()
            return i

        def consume(i):
            ahead = i + simulation._WORKERS
            if ahead < count:
                assert started[ahead].wait(10.0), f"chunk {ahead} waited for chunk {i}"
            consumed.append(i)

        simulation._pipeline(produce, count, consume)
        assert consumed == list(range(count))

    @pytest.mark.parametrize("workers", [2, 4])
    def test_at_most_one_chunk_more_than_workers_alive(self, monkeypatch, workers):
        # A chunk is alive from the start of its produce to the end of its
        # consume; a slow consume lets the workers run ahead as far as the
        # scheduler allows.
        monkeypatch.setattr(simulation, "_WORKERS", workers)
        lock = threading.Lock()
        alive = [0]
        most = [0]

        def produce(i):
            with lock:
                alive[0] += 1
                most[0] = max(most[0], alive[0])
            return i

        def consume(i):
            time.sleep(0.002)
            with lock:
                alive[0] -= 1

        simulation._pipeline(produce, 40, consume)
        assert alive[0] == 0
        assert most[0] == workers + 1

    def test_produce_error_stops_the_queue(self):
        # Every chunk from 3 on fails: the caller gets chunk 3's error, and
        # no chunk after the ones queued while it was awaited ever starts.
        started = []

        def produce(i):
            started.append(i)
            if i >= 3:
                raise ConfigurationError(f"chunk {i} refused")
            return i

        consumed = []
        with pytest.raises(ConfigurationError, match="^chunk 3 refused$"):
            simulation._pipeline(produce, 50, consumed.append)
        assert consumed == [0, 1, 2]
        assert max(started) <= 3 + simulation._WORKERS


class TestBlockRelease:
    """A run released in blocks of time gives, block after block, the
    records of the same run released as one block, bit for bit."""

    DURATION_S = 0.5
    CASES = {
        "plain": {},
        "dead-50ns": {"dead_time_ps": 50_000.0},
        # 500 us against a 12.5 us idler spacing: one cluster across blocks.
        "dead-500us": {"dead_time_ps": 5e8},
        # Ten pair spacings: records cross every block end.
        "jitter-1e8": {"jitter_sigma_ps": 1e8},
        "offset-0.2s": {"offset_ps": -2e11},
    }

    @classmethod
    def blocks(cls, whole=False, offset_ps=-9900.0, **detector):
        """The run's streams released at each block end and then at its end.

        The ends, ps: one before any record, a repeated one (an empty
        block) and three that lie 98.01 us, just over both one-way delays
        and the offset, below the start of a chunk of 997 pairs, so that a
        margin without its jitter term would leave that chunk unsimulated.
        """
        source = SourceConfig(pair_rate_hz=1e5)
        pairs = generate_pairs(source, cls.DURATION_S, 41)
        below = [int(pairs.edges[k]) - 98_010_000 for k in (10, 25, 40)]
        ends = () if whole else (0, below[0], *below)
        held = simulation.HeldRecords()
        link = (
            source, ChannelConfig(), DelayTrajectory(), DelayTrajectory(),
            DetectorConfig(**detector), TdcConfig(), ClockConfig(offset_ps=offset_ps), 42,
            cls.DURATION_S,
        )
        blocks = [propagate_and_detect(pairs, *link, end, held) for end in (*ends, None)]
        return blocks, ends

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("case", list(CASES))
    def test_blocks_join_to_the_whole_run(self, monkeypatch, case, workers):
        monkeypatch.setattr(simulation, "_PAIR_CHUNK", 997)
        (whole,), _ = self.blocks(whole=True, **self.CASES[case])
        monkeypatch.setattr(simulation, "_WORKERS", workers)
        blocks, ends = self.blocks(**self.CASES[case])
        ends = (-1, *ends, math.inf)
        for det in DetectorId:
            parts = [b.times[det] for b in blocks]
            assert np.concatenate(parts).tobytes() == whole.times[det].tobytes()
            for lo, hi, t in zip(ends, ends[1:], parts):
                assert t.size == 0 or lo <= t[0] <= t[-1] < hi
        assert [len(b) > 0 for b in blocks] == [False, True, False, True, True, True]

    def test_record_below_a_released_end_refused(self, monkeypatch):
        # Without a margin the chunks after a block's end are not simulated
        # before it is released, and Bob's readings 0.2 s behind their
        # emissions then arrive below it.
        monkeypatch.setattr(simulation, "_PAIR_CHUNK", 997)
        monkeypatch.setattr(simulation, "_release_margin", lambda *args: 0.0)
        with pytest.raises(ContractViolation, match="release margin"):
            self.blocks(offset_ps=-2e11)


class TestIdlerInPairs:
    """IdlerA has a buffer of its own, and so has every chunk's emission
    times: a generated stream is the same however many chunks run at once,
    and a caller's array of emission times is only read."""

    RATE_HZ = 1e5  # 10 us pair spacing

    @classmethod
    def pairs(cls, duration_s=0.02):
        return generate_pairs(SourceConfig(pair_rate_hz=cls.RATE_HZ), duration_s, 41)

    @classmethod
    def stream(cls, pairs, offset_ps=-9900.0, duration_s=0.02, **detector):
        # Every pair gives an idler, so IdlerA is as long as the emission
        # times, less what the cases drop.
        detector = DetectorConfig(efficiency=1.0, **detector)
        return propagate_and_detect(
            pairs, SourceConfig(pair_rate_hz=cls.RATE_HZ), ChannelConfig(),
            DelayTrajectory(), DelayTrajectory(), detector, TdcConfig(),
            ClockConfig(offset_ps=offset_ps), 42, duration_s=duration_s,
        )

    @staticmethod
    def assert_same(want, got):
        for det in DetectorId:
            assert want.times[det].tobytes() == got.times[det].tobytes()

    CASES = {
        # Bob's clock 5 ms behind drops a quarter of SignalB, and a 100 us
        # jitter (ten pair spacings) drops early idlers and overlaps chunks.
        "negative-times": dict(offset_ps=-5e9, jitter_sigma_ps=1e8),
        # A 20 us dead time against the 10 us idler spacing drops idlers
        # all over the buffer.
        "dead-time": dict(dead_time_ps=2e7),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("chunk", [3, 7])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_streams_match_across_workers(self, monkeypatch, case, chunk, workers):
        # Each of ~700 blocks is drawn, propagated and dropped by a worker.
        monkeypatch.setattr(simulation, "_PAIR_CHUNK", chunk)
        assert simulation._WORKERS == 2
        want = self.stream(self.pairs(), **self.CASES[case])
        monkeypatch.setattr(simulation, "_WORKERS", workers)
        got = self.stream(self.pairs(), **self.CASES[case])
        assert len(self.pairs()) - want.times[DetectorId.IDLER_A].size > 0
        self.assert_same(want, got)

    def test_four_wide_with_fast_switching(self, monkeypatch):
        # More threads than cores, switching every microsecond: a block
        # drawn into another chunk's arrays would show.
        monkeypatch.setattr(simulation, "_PAIR_CHUNK", 7)
        want = self.stream(self.pairs(), **self.CASES["dead-time"])
        monkeypatch.setattr(simulation, "_WORKERS", 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = self.stream(self.pairs(), **self.CASES["dead-time"])
        finally:
            sys.setswitchinterval(interval)
        self.assert_same(want, got)

    @pytest.mark.parametrize("kind", ["writeable", "read-only"])
    def test_caller_pairs_are_left_unchanged(self, kind):
        # Whole picoseconds, as int64: read in place.
        pairs = np.rint(emission_times(self.pairs())).astype(np.int64)
        pairs.flags.writeable = kind == "writeable"
        kept = pairs.copy()
        got = self.stream(pairs)
        assert pairs.tobytes() == kept.tobytes()
        self.assert_same(self.stream(kept), got)

    @pytest.mark.parametrize("kind", ["float32", "strided"])
    def test_unsuitable_pairs_are_copied(self, kind):
        # Whole float32 times are read through an int64 copy, and a strided
        # int64 view in place; int64 input needs no copy
        # (test_caller_pairs_are_left_unchanged).
        pairs = np.rint(emission_times(self.pairs())).astype(np.int64)
        if kind == "float32":
            pairs = pairs.astype(np.float32)
        else:
            pairs = np.repeat(pairs, 2)[::2]
        held = pairs.base if kind == "strided" else pairs
        kept = held.copy()
        got = self.stream(pairs)
        assert held.tobytes() == kept.tobytes()
        self.assert_same(self.stream(np.array(pairs, np.int64)), got)

    def test_owned_buffer_grows_and_is_trimmed(self):
        records = simulation._DetectorRecords(np.empty(1, np.int64))
        records.append(np.array([30, 10], np.int64))
        records.append(np.array([20, 40, 50], np.int64))
        kept = records.finish(15.0)
        np.testing.assert_array_equal(kept, [10, 30, 50])
        assert kept.flags.owndata and kept.size == 3


def exact_quantize(offsets, resolution_ps, origin):
    """The TDC's readings of ``origin + offsets``, in exact rationals: the
    nearest point of the absolute grid of ``resolution_ps``, then the nearest
    whole picosecond, each rounding half up (test oracle)."""
    res = Fraction(resolution_ps)
    half = Fraction(1, 2)
    snapped = (math.floor((origin + Fraction(x)) / res + half) * res for x in offsets.tolist())
    return np.array([math.floor(t + half) for t in snapped], np.int64)


class TestQuantize:
    @pytest.mark.parametrize("size", [0, 1, 8191, 8193, 100_000])
    @pytest.mark.parametrize("resolution_ps", [1.0, 3.0, 0.5, 1e8])
    def test_in_place_cast_equals_astype(self, size, resolution_ps):
        # Readings on a 1/16 ps grid, which the oracle reads exactly.
        readings = np.rint(np.random.default_rng(size).normal(5e11, 1e11, size) * 16) / 16
        want = exact_quantize(readings, resolution_ps, 0)
        got = simulation._quantize(readings, resolution_ps, 0)
        assert got.dtype == np.int64
        assert size == 0 or np.shares_memory(got, readings)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("origin", [0, 7, 2**53 + 1, 2**60 + 3])
    @pytest.mark.parametrize("resolution_ps", [1.0, 3.0, 4.0, 0.5, 2.5, 1e8])
    def test_rounds_half_up_on_the_absolute_grid(self, resolution_ps, origin):
        # Offsets on a 1/16 ps grid: every tie between two grid points of
        # the absolute reading, random offsets within a chunk's span, and
        # small ones about the origin.  Grids of 2.5 ps and 0.5 ps put half
        # a picosecond on half their points, a tie of the final rounding.
        res = Fraction(resolution_ps)
        phase = origin % res
        ties = [float(j * res + res / 2 - phase) for j in range(-64, 64)]
        rng = np.random.default_rng(origin % 1000)
        offsets = np.concatenate(
            (
                ties,
                rng.integers(-(2**44), 2**44, 2000) / 16,
                rng.integers(-(2**12), 2**12, 2000) / 16,
            )
        )
        want = exact_quantize(offsets, resolution_ps, origin)
        np.testing.assert_array_equal(simulation._quantize(offsets, resolution_ps, origin), want)


class TestTimeBase:
    """Readings are integer picoseconds however far into the run they lie:
    only offsets after a chunk's integer origin pass through floats."""

    def test_odd_readings_are_half_in_every_range(self):
        # A fair 1 ps TDC reads an odd picosecond half the time.  Absolute
        # float readings were rounded twice past 2**50 ps (odd fractions of
        # 0.459, 0.374 and 0.250 in the three ranges below).
        doc = builtin_scenario("baseline_3500s")
        doc["source"] = {"pair_rate_hz": 300.0}
        del doc["detection"]
        times = np.concatenate(run_round_trip_sim(load_scenario(doc)).times)
        for lo, hi in ((0, 2**50), (2**50, 2**51), (2**51, 2**52)):
            t = times[(times >= lo) & (times < hi)]
            assert t.size > 300_000
            assert (t % 2).mean() == pytest.approx(0.5, abs=0.005)

    def test_slow_sources_round_fairly_in_every_range(self):
        # At 10 Hz a block of _PAIR_CHUNK pairs would outlast this 6000 s
        # run, and its offsets past 2**52 ps, where a float64 steps 1 ps,
        # would round every odd reading up to the next even one.  Blocks of
        # at most 2**49 ps keep each offset below 2**50 ps.  Five binomial
        # standard deviations about a half.
        doc = builtin_scenario("baseline_3500s")
        doc["source"] = {"pair_rate_hz": 10.0}
        doc["run"]["duration_s"] = 6000.0
        del doc["detection"]
        scenario = load_scenario(doc)
        assert np.diff(simulation.plan_run(scenario)[0].edges).max() <= 2**49
        times = np.concatenate(run_round_trip_sim(scenario).times)
        for lo, hi in ((0, 2**50), (2**50, 2**51), (2**51, 2**52), (2**52, 2**53)):
            t = times[(times >= lo) & (times < hi)]
            assert t.size > 10_000
            assert abs((t % 2).mean() - 0.5) < 2.5 / math.sqrt(t.size)

    def test_a_1_hz_run_past_2_53_ps_completes(self):
        # A 10**4 s block at 1 Hz once held offsets past 2**53 ps and failed
        # partway through the run.
        source = SourceConfig(pair_rate_hz=1.0)
        plan = generate_pairs(source, 1e4, 3)
        stream = propagate_and_detect(
            plan, source, ChannelConfig(), DelayTrajectory(), DelayTrajectory(),
            DetectorConfig(), TdcConfig(), ClockConfig(), 4, duration_s=1e4,
        )
        assert plan.counts.size == 18
        assert stream.times[DetectorId.IDLER_A].size > 7000
        assert stream.times[DetectorId.IDLER_A][-1] > 2**53

    def test_given_arrays_beyond_the_offset_range_refused(self):
        link = (
            SourceConfig(), ChannelConfig(), DelayTrajectory(), DelayTrajectory(),
            DetectorConfig(), TdcConfig(), ClockConfig(), 1,
        )
        with pytest.raises(ConfigurationError, match=r"^pairs timestamps must lie below 2\*\*62"):
            propagate_and_detect(np.array([0, simulation.MAX_RUN_PS]), *link, duration_s=1.0)
        # One chunk that spans 2**50 ps: its late readings are refused
        # rather than rounded from a float64 that steps 1/4 ps.
        sparse = np.repeat(np.array([0, 2**50]), 100)
        with pytest.raises(ConfigurationError, match=r"^detector readings lie 2\*\*50 ps or more"):
            propagate_and_detect(sparse, *link, duration_s=1.0)

    @pytest.mark.parametrize("kind", ["plan", "array"])
    def test_a_shift_of_2_60_ps_shifts_every_reading(self, monkeypatch, kind):
        # The stream of emissions 2**60 ps later (a multiple of the 4 ps
        # grid) is the stream plus 2**60, bit for bit.
        monkeypatch.setattr(simulation, "_PAIR_CHUNK", 997)
        shift = 2**60
        source = SourceConfig(pair_rate_hz=1e5)
        plan = generate_pairs(source, 0.02, 41)
        if kind == "plan":
            pairs, shifted = plan, EmissionPlan(plan.edges + shift, plan.counts, plan.seed)
        else:
            pairs = np.rint(emission_times(plan)).astype(np.int64)
            shifted = pairs + shift
        # No attack and no drift: nothing else depends on the absolute time.
        want, got = (
            propagate_and_detect(
                p, source, ChannelConfig(), DelayTrajectory(), DelayTrajectory(),
                DetectorConfig(), TdcConfig(resolution_ps=4.0), ClockConfig(), 42, duration_s=0.02,
            )
            for p in (pairs, shifted)
        )
        assert len(want) > 2000
        for det in DetectorId:
            assert (got.times[det] - shift).tobytes() == want.times[det].tobytes()
            assert np.all(got.times[det] % 4 == 0)


class TestDeterminism:
    def test_same_seed_identical_stream(self):
        scenario = load_scenario("jump_-100ps")
        import dataclasses

        scenario = dataclasses.replace(
            scenario, run=dataclasses.replace(scenario.run, duration_s=30.0), detection=None
        )
        s1 = run_round_trip_sim(scenario)
        s2 = run_round_trip_sim(scenario)
        assert s1.counts() == s2.counts()
        for det in DetectorId:
            np.testing.assert_array_equal(s1.times[det], s2.times[det])

    def test_stream_validated_once(self, monkeypatch):
        # The stream is validated where it is built, and only there.
        calls = []
        validate = simulation.TimestampStream.__post_init__

        def counting(stream):
            calls.append(stream)
            validate(stream)

        monkeypatch.setattr(simulation.TimestampStream, "__post_init__", counting)
        scenario = load_scenario("baseline")
        scenario = dataclasses.replace(
            scenario,
            run=dataclasses.replace(scenario.run, duration_s=5.0, seed=9),
            detection=None,
        )
        stream = run_round_trip_sim(scenario)
        assert calls == [stream]

    # SHA-256 of each detector's times (IdlerA, SignalB, ReturnA) from a 2 s,
    # 100 kHz baseline run at seed 16: four chunks, both threads.  The 50 ns
    # dead time drops 640 idlers and a few dozen signal records.  These are
    # the streams of the plan's emission times, rounded to whole picoseconds,
    # propagated as one array, in chunks of exactly ``_PAIR_CHUNK`` pairs,
    # each after its first time.  Computed at 0.35.0, as are the pins below.
    STREAM_DIGESTS = {
        0.0: (
            "ff6764d7d5944f7ff94c6ef55337ea3470be94f7ca83e5abe4f7d4ce7c62c95a",
            "2422e017848f5a3b7257004e0a46bb270702230ce6c013ee06f8d58ec5dc38de",
            "22d8809256b61b3b4c29082db379405961f4453fe1e535079cc88491c540dac7",
        ),
        50_000.0: (
            "06a4e9f0742a811bfef5a5f0ef1f0da39f9d495924d3bd7f0250e8e9b6ec6c12",
            "bc0a8f9bc7586afa4ceb1a7dd8b846f33769a0a15a3e3477d7fc9d2b2e4baa84",
            "9bb0b369526cc92a512b4e657e25290dcd1b5aa33e3034c567192fd2cdcf540c",
        ),
    }
    # The same runs through the plan, each block propagated as one chunk.
    PLAN_STREAM_DIGESTS = {
        0.0: (
            "2e61905c11fb30e65bda675f9354eb7bbaa8f090258012787468e67b5d97b215",
            "b40e3edee614eae55c8eda61057b9b5249e1d195accd4fedaf271d66f7530141",
            "e9c0757f5c1f521644e08260619e2e7f9dff62c8fd7a9d4aaeb27a70bded408b",
        ),
        50_000.0: (
            "131576a4f898a1f0bfdc3f44a6da5eda81745216cab110e7b01123550ad6b509",
            "e84c47c73ea6edc405a0953a8b79562423fb132923f54e67577459ea2bfe4325",
            "a81c929d62c707d0c015a8dfae076772baffa100991a59c4d1b778a6f7c16458",
        ),
    }

    @staticmethod
    def stream_digests(dead_time_ps):
        # The stream is a function of configuration and seed alone; any
        # change to a draw, to the order of draws or to the assembly shows.
        doc = builtin_scenario("baseline")
        doc["source"] = {"pair_rate_hz": 1.0e5}
        doc["run"]["duration_s"] = 2.0
        doc["run"]["seed"] = 16
        del doc["detection"]
        scenario = load_scenario(doc)
        scenario = dataclasses.replace(
            scenario,
            detectors=dataclasses.replace(scenario.detectors, dead_time_ps=dead_time_ps),
        )
        stream = run_round_trip_sim(scenario)
        return tuple(hashlib.sha256(t.tobytes()).hexdigest() for t in stream.times)

    @pytest.mark.parametrize(
        "dead_time_ps", sorted(STREAM_DIGESTS), ids=["no-dead-time", "dead-time"]
    )
    def test_stream_digests_pinned(self, monkeypatch, dead_time_ps):
        def whole_ps(*args):
            return np.rint(emission_times(generate_pairs(*args)))

        monkeypatch.setattr(simulation, "generate_pairs", whole_ps)
        assert self.stream_digests(dead_time_ps) == self.STREAM_DIGESTS[dead_time_ps]

    @pytest.mark.parametrize(
        "dead_time_ps", sorted(PLAN_STREAM_DIGESTS), ids=["no-dead-time", "dead-time"]
    )
    def test_plan_stream_digests_pinned(self, dead_time_ps):
        assert self.stream_digests(dead_time_ps) == self.PLAN_STREAM_DIGESTS[dead_time_ps]

    # SHA-256 of each detector's times from a 2 s, 100 kHz proportional run
    # (N = -M) at seed 27.  Its -100 ps jump at 0.9 s and its reversing
    # staircase (-7.3 ps a 0.13 s step from 0.2 s, reversing after 1.1 s)
    # change inside the 0.66 s chunks, so M and N are evaluated both on
    # times within one step and across steps and the jump.  At 1 ps and
    # 4 ps TDC resolution.
    ATTACKED_STREAM_DIGESTS = {
        1.0: (
            "90105e82a161c9ed2ca188cca3f319d28290ed70df64742e9ac16b6fdc0d4685",
            "021fc2000c88bb6a90ea95aeec3377ae626a0456882b22da406e7c4415d29f86",
            "fbf9618338d76d9a068297c19fccbef825ff520aa5cdd63eb3887d9e688638ee",
        ),
        4.0: (
            "60a9813fba3f96c4bc18ef6bfa2ea599f6a6b4d186c9c2be9c305aa23dbfa8e5",
            "3520ba1b5149b6d2afe97b6ebaee69517f79ed6436370a873ecf5cb9d987df65",
            "829b19bd42ed033bb76b71e8831feb7fcf9e8a0ea708f6a9294d1f01e8da7220",
        ),
    }

    @staticmethod
    def attacked_doc(resolution_ps=1.0, duration_s=2.0, step_interval_s=0.13):
        doc = builtin_scenario("jump_-100ps")
        doc["source"] = {"pair_rate_hz": 1.0e5}
        doc["run"]["duration_s"] = duration_s
        doc["run"]["seed"] = 27
        doc["m_events"] = [
            {"pattern": "jump", "amplitude_ps": -100.0, "start_s": 0.9},
            {
                "pattern": "gradual",
                "amplitude_ps": -7.3,
                "start_s": 0.2,
                "step_interval_s": step_interval_s,
                "end_s": 1.1,
                "reverse_after_end": True,
            },
        ]
        doc["tdc"] = {"resolution_ps": resolution_ps}
        del doc["detection"]
        return doc

    @pytest.mark.parametrize("resolution_ps", sorted(ATTACKED_STREAM_DIGESTS), ids=["1ps", "4ps"])
    def test_attacked_stream_digests_pinned(self, resolution_ps):
        stream = run_round_trip_sim(load_scenario(self.attacked_doc(resolution_ps)))
        digests = tuple(hashlib.sha256(t.tobytes()).hexdigest() for t in stream.times)
        assert digests == self.ATTACKED_STREAM_DIGESTS[resolution_ps]

    def test_constant_pieces_change_no_record(self, monkeypatch):
        # Steps of 1.5 s outlast a chunk, so some chunks' photons lie in one
        # piece of M and of N and are evaluated once; evaluating every
        # photon instead gives the same stream.
        scenario = load_scenario(self.attacked_doc(duration_s=4.0, step_interval_s=1.5))
        one_piece = attacks._one_piece
        seen = []

        def recording(traj, t):
            seen.append(one_piece(traj, t))
            return seen[-1]

        monkeypatch.setattr(attacks, "_one_piece", recording)
        once = run_round_trip_sim(scenario)
        assert any(seen) and not all(seen)
        monkeypatch.setattr(attacks, "_one_piece", lambda traj, t: False)
        every = run_round_trip_sim(scenario)
        assert [t.tobytes() for t in once.times] == [t.tobytes() for t in every.times]

    def test_different_seed_differs(self):
        pairs = generate_pairs(SourceConfig(), 2.0, 1)
        s1 = propagate_and_detect(
            pairs, SourceConfig(), ChannelConfig(), DelayTrajectory(), DelayTrajectory(),
            DetectorConfig(), TdcConfig(), QUIET_CLOCK, 100, duration_s=2.0,
        )
        s2 = propagate_and_detect(
            pairs, SourceConfig(), ChannelConfig(), DelayTrajectory(), DelayTrajectory(),
            DetectorConfig(), TdcConfig(), QUIET_CLOCK, 101, duration_s=2.0,
        )
        assert len(s1) != len(s2) or not all(map(np.array_equal, s1.times, s2.times))
