"""Photon-pair generation and attacked propagation: counting statistics,
jitter distributions, ground-truth reciprocity/asymmetry, clocks, dead time
and determinism."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcsync import simulation
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


def hits(stream, det):
    """(times, pair ids) of one detector."""
    return stream.times[det], stream.pair_ids[det]


def greedy_dead_time(times, pairs, dead_time_ps):
    """Per-record greedy dead-time loop (test oracle)."""
    if times.size == 0 or dead_time_ps <= 0:
        return times, pairs
    keep = np.ones(times.size, dtype=bool)
    last = times[0]
    for i in range(1, times.size):
        if times[i] - last < dead_time_ps:
            keep[i] = False
        else:
            last = times[i]
    return times[keep], pairs[keep]


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
        pairs = generate_pairs(SourceConfig(pair_rate_hz=1_000.0), 5.0, 1)
        assert pairs.ndim == 1
        assert np.all(np.diff(pairs) >= 0)
        assert pairs.min() >= 0.0
        assert pairs.max() < 5.0 * 1e12

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


class TestNoiselessPropagation:
    def test_forward_path_is_exact(self):
        pairs = integer_pairs()
        stream = propagate_and_detect(
            pairs, NOISELESS_SOURCE, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            NOISELESS_DETECTOR, NOISELESS_TDC, QUIET_CLOCK, 5, duration_s=20.0,
        )
        times, ids = hits(stream, DetectorId.SIGNAL_B)
        emitted = pairs[ids]
        np.testing.assert_array_equal(times - emitted.astype(np.int64), 1000 - 9900)

    def test_loopback_path_is_exact(self):
        pairs = integer_pairs()
        stream = propagate_and_detect(
            pairs, NOISELESS_SOURCE, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            NOISELESS_DETECTOR, NOISELESS_TDC, QUIET_CLOCK, 5, duration_s=20.0,
        )
        times, ids = hits(stream, DetectorId.RETURN_A)
        emitted = pairs[ids]
        np.testing.assert_array_equal(times - emitted.astype(np.int64), 2000)

    def test_pair_ids_exact_across_chunks(self, monkeypatch):
        # Records from every slice of the pair array keep their global ids.
        monkeypatch.setattr(simulation, "_PAIR_CHUNK", 997)
        pairs = integer_pairs()
        stream = propagate_and_detect(
            pairs, NOISELESS_SOURCE, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            NOISELESS_DETECTOR, NOISELESS_TDC, QUIET_CLOCK, 5, duration_s=20.0,
        )
        for det, flight in ((DetectorId.SIGNAL_B, 1000 - 9900), (DetectorId.RETURN_A, 2000)):
            times, ids = hits(stream, det)
            emitted = pairs[ids]
            np.testing.assert_array_equal(times - emitted.astype(np.int64), flight)
        assert stream.counts()[DetectorId.IDLER_A] == len(pairs)

    def test_intrinsic_correlation_jitter(self):
        # The estimator sees the source's jitter only as SignalB - IdlerA of
        # one pair: sigma 40 ps about the flight time.
        source = SourceConfig(intrinsic_correlation_jitter_ps=40.0)
        pairs = integer_pairs(duration_s=20.0, spacing_ms=0.2)
        stream = propagate_and_detect(
            pairs, source, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            NOISELESS_DETECTOR, NOISELESS_TDC, QUIET_CLOCK, 5, duration_s=20.0,
        )
        idler_times, idler_ids = hits(stream, DetectorId.IDLER_A)
        bob_times, bob_ids = hits(stream, DetectorId.SIGNAL_B)
        _, ia, ib = np.intersect1d(idler_ids, bob_ids, assume_unique=True, return_indices=True)
        d = bob_times[ib] - idler_times[ia]
        assert d.size > 0.45 * len(pairs)
        assert np.std(d) == pytest.approx(40.0, rel=0.05)
        assert np.mean(d) == pytest.approx(1000 - 9900, abs=4.0 * 40.0 / math.sqrt(d.size))

    def test_hidden_jump_shifts_forward_but_not_loopback(self):
        onset = 10.0001
        m = DelayTrajectory((AttackEvent(AttackPattern.JUMP, -100.0, onset),))
        n = DelayTrajectory((AttackEvent(AttackPattern.JUMP, 100.0, onset),))
        pairs = integer_pairs()
        stream = propagate_and_detect(
            pairs, NOISELESS_SOURCE, LOSSLESS_CHANNEL, m, n,
            NOISELESS_DETECTOR, NOISELESS_TDC, QUIET_CLOCK, 5, duration_s=20.0,
        )
        fwd_times, fwd_ids = hits(stream, DetectorId.SIGNAL_B)
        emitted = pairs[fwd_ids]
        flight = fwd_times - emitted.astype(np.int64) - (1000 - 9900)
        late = emitted * 1e-12 >= onset
        np.testing.assert_array_equal(flight[late], -100)
        np.testing.assert_array_equal(flight[~late], 0)

        ret_times, ret_ids = hits(stream, DetectorId.RETURN_A)
        ret_emitted = pairs[ret_ids]
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
            pairs, NOISELESS_SOURCE, LOSSLESS_CHANNEL, m, DelayTrajectory(),
            NOISELESS_DETECTOR, NOISELESS_TDC, QUIET_CLOCK, 6, duration_s=20.0,
        )
        times, ids = hits(stream, DetectorId.SIGNAL_B)
        emitted = pairs[ids]
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
            pairs, NOISELESS_SOURCE, LOSSLESS_CHANNEL, m, n,
            NOISELESS_DETECTOR, NOISELESS_TDC, QUIET_CLOCK, 6, duration_s=20.0,
        )
        times, ids = hits(stream, DetectorId.RETURN_A)
        emitted = pairs[ids]
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
            pairs, NOISELESS_SOURCE, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            DetectorConfig(efficiency=0.0, jitter_sigma_ps=0.0),
            NOISELESS_TDC, QUIET_CLOCK, 8, duration_s=2.0,
        )
        assert len(stream) == 0

    def test_clock_drift_slope(self):
        clock = ClockConfig(offset_ps=0.0, drift_ps_per_s=5.0)
        pairs = integer_pairs(duration_s=20.0)
        stream = propagate_and_detect(
            pairs, NOISELESS_SOURCE, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            NOISELESS_DETECTOR, NOISELESS_TDC, clock, 9, duration_s=20.0,
        )
        times, ids = hits(stream, DetectorId.SIGNAL_B)
        emitted = pairs[ids]
        excess = times - emitted - 1000.0
        slope = np.polyfit(emitted * 1e-12, excess, 1)[0]
        assert slope == pytest.approx(5.0, abs=0.01)

    def test_white_phase_noise_on_bob_clock(self):
        clock = ClockConfig(offset_ps=0.0, white_phase_noise_sigma_ps=30.0)
        pairs = integer_pairs(duration_s=20.0, spacing_ms=0.1)
        stream = propagate_and_detect(
            pairs, NOISELESS_SOURCE, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            NOISELESS_DETECTOR, NOISELESS_TDC, clock, 9, duration_s=20.0,
        )
        fwd_times, fwd_ids = hits(stream, DetectorId.SIGNAL_B)
        emitted = pairs[fwd_ids]
        assert np.std(fwd_times - emitted - 1000.0) == pytest.approx(30.0, rel=0.1)
        # Alice-side detections stay exact.
        ret_times, ret_ids = hits(stream, DetectorId.RETURN_A)
        np.testing.assert_array_equal(
            ret_times - pairs[ret_ids].astype(np.int64), 2000
        )


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
            pairs, source, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            detector, tdc, clock, 15, duration_s=20.0,
        )
        alice = math.hypot(40.0, 15.0)
        idler = math.hypot(40.0, 15.0, 40.0)
        bob = math.hypot(40.0, 15.0, 30.0)
        exact = {
            DetectorId.IDLER_A: (pairs, idler, alice),
            DetectorId.SIGNAL_B: (pairs + 1000 - 9900, bob, alice),
            DetectorId.RETURN_A: (pairs + 2000, alice, bob),
        }
        for det, (emitted, sigma, other_sigma) in exact.items():
            times, ids = hits(stream, det)
            residuals = times - emitted[ids].astype(np.int64)
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
        pairs = np.random.default_rng(7).permutation(times.size).astype(np.int64)
        kept_times, kept_pairs = _apply_dead_time(times, pairs, dead_time_ps)
        want_times, want_pairs = greedy_dead_time(times, pairs, dead_time_ps)
        np.testing.assert_array_equal(kept_times, want_times)
        np.testing.assert_array_equal(kept_pairs, want_pairs)

    @pytest.mark.parametrize("case", DEAD_TIME_CASES)
    @settings(max_examples=10, deadline=None, database=None)
    @given(slice_records=st.integers(1, 64))
    def test_in_place_dead_time_matches_greedy_oracle(self, case, slice_records):
        # Slices of 1-64 records put cuts inside the clusters of most cases,
        # and the one-cluster cases span hundreds of slices.
        times, dead_time_ps = dead_time_case(case)
        pairs = np.random.default_rng(7).permutation(times.size).astype(np.int64)
        want_times, want_pairs = greedy_dead_time(times, pairs, dead_time_ps)
        records = simulation._DetectorRecords(times.size)
        records.append(times, pairs)
        slices = []

        def recording(t, p, dead):
            slices.append(t.size)
            return _apply_dead_time(t, p, dead)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulation, "_PAIR_CHUNK", slice_records)
            patch.setattr(simulation, "_apply_dead_time", recording)
            kept_times, kept_pairs = records.finish(dead_time_ps)
        np.testing.assert_array_equal(kept_times, want_times)
        np.testing.assert_array_equal(kept_pairs, want_pairs)
        # The slices cover the stream, and each starts at a record at least
        # one dead time after its predecessor.
        assert sum(slices) == times.size
        starts = np.cumsum(slices, dtype=np.int64)[:-1]
        assert np.all(times[starts] - times[starts - 1] >= dead_time_ps)

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
            pairs, NOISELESS_SOURCE, LOSSLESS_CHANNEL, DelayTrajectory(), DelayTrajectory(),
            NOISELESS_DETECTOR, NOISELESS_TDC, clock, 13, duration_s=1.0,
        )
        assert all(np.all(times >= 0) for times in stream.times)
        n_bob = stream.counts()[DetectorId.SIGNAL_B]
        assert n_bob < len(pairs)
        # Lossless and noiseless: every pair not looped back reaches Bob, and
        # exactly those whose reading falls below zero are missing.
        looped = set(stream.pair_ids[DetectorId.RETURN_A].tolist())
        at_bob = [i for i in range(len(pairs)) if i not in looped]
        negative = {i for i in at_bob if pairs[i] + 1000.0 - 5e9 < 0}
        missing = set(at_bob) - set(stream.pair_ids[DetectorId.SIGNAL_B].tolist())
        assert negative and missing == negative


def reference_finalize(out_times, out_pairs, dead_time_ps):
    """One detector's chunk outputs, concatenated and globally sorted the way
    ``propagate_and_detect`` did before it assembled them in place (test
    oracle)."""
    t = np.concatenate([np.empty(0, np.int64), *out_times])
    p = np.concatenate([np.empty(0, np.int64), *out_pairs])
    # Chunks go in order and flatnonzero ids ascend, so p already
    # ascends: a stable sort by time breaks time ties by pair id.
    # Negative times sort first and are dropped with one slice.
    order = np.argsort(t, kind="stable")
    order = order[np.searchsorted(t, 0, sorter=order) :]
    t = t[order]
    p = p[order]
    del order
    return _apply_dead_time(t, p, dead_time_ps)


@pytest.fixture
def recorded_assembly(monkeypatch):
    """Per-detector assemblies of the next runs, in ``DetectorId`` order, each
    with a copy of every chunk it was given."""
    made = []

    class Recording(simulation._DetectorRecords):
        def __init__(self, capacity):
            super().__init__(capacity)
            self.chunks = []
            made.append(self)

        def append(self, times, pair_ids):
            self.chunks.append((times.copy(), pair_ids.copy()))
            super().append(times, pair_ids)

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
            want_times, want_ids = reference_finalize(
                [t for t, _ in records.chunks], [p for _, p in records.chunks], dead_time_ps
            )
            assert stream.times[det].dtype == stream.pair_ids[det].dtype == np.int64
            np.testing.assert_array_equal(stream.times[det], want_times)
            np.testing.assert_array_equal(stream.pair_ids[det], want_ids)
        return pairs, stream

    @pytest.mark.parametrize("chunk", [3, 997, None], ids=["3", "997", "default"])
    @pytest.mark.parametrize("jitter_ps", [1e8, 10.0], ids=["above-spacing", "below-spacing"])
    def test_equals_global_stable_sort(self, monkeypatch, recorded_assembly, chunk, jitter_ps):
        if chunk is not None:
            monkeypatch.setattr(simulation, "_PAIR_CHUNK", chunk)
        pairs, _ = self.run(recorded_assembly, jitter_ps=jitter_ps)
        several_chunks = pairs.size > simulation._PAIR_CHUNK
        # Jitter of ten pair spacings makes neighbouring chunks overlap in
        # time, so the final sort runs; a 10 ps jitter never does.
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
        dropped = sum(r.size for r in recorded_assembly) - len(stream)
        assert dropped > 0

    def test_time_ties_keep_pair_id_order(self, monkeypatch, recorded_assembly):
        # A 0.1 ms TDC grid puts about ten records on each tick.
        monkeypatch.setattr(simulation, "_PAIR_CHUNK", 997)
        _, stream = self.run(recorded_assembly, jitter_ps=1e8, tdc=TdcConfig(resolution_ps=1e8))
        times, ids = hits(stream, DetectorId.IDLER_A)
        tied = times[1:] == times[:-1]
        assert tied.mean() > 0.5
        assert np.all(ids[1:][tied] > ids[:-1][tied])

    def test_negative_times(self, monkeypatch, recorded_assembly):
        # Bob's clock reads 50 ms behind: half his records fall below zero,
        # and the jitter pushes the first idlers there too.
        monkeypatch.setattr(simulation, "_PAIR_CHUNK", 997)
        self.run(recorded_assembly, jitter_ps=1e8, offset_ps=-5e10)
        negative = [
            sum(int((t < 0).sum()) for t, _ in records.chunks) for records in recorded_assembly
        ]
        assert negative[DetectorId.IDLER_A] > 0
        assert negative[DetectorId.SIGNAL_B] > 1000


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

    def test_stream_validated_once(self, monkeypatch):
        # The stream is validated where it is built; tagging it with the
        # scenario's seed and hash must not rebuild and revalidate it.
        calls = []
        validate = simulation.TimestampStream.__post_init__

        def counting(stream):
            calls.append(stream)
            validate(stream)

        monkeypatch.setattr(simulation.TimestampStream, "__post_init__", counting)
        scenario = load_scenario("baseline")
        scenario = dataclasses.replace(
            scenario, run=dataclasses.replace(scenario.run, duration_s=5.0, seed=9)
        )
        stream = run_round_trip_sim(scenario)
        assert calls == [stream]
        assert stream.seed == 9
        assert stream.config_hash == scenario.config_hash()

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
            pairs, SourceConfig(), ChannelConfig(), DelayTrajectory(), DelayTrajectory(),
            DetectorConfig(), TdcConfig(), QUIET_CLOCK, 100, duration_s=2.0,
        )
        s2 = propagate_and_detect(
            pairs, SourceConfig(), ChannelConfig(), DelayTrajectory(), DelayTrajectory(),
            DetectorConfig(), TdcConfig(), QUIET_CLOCK, 101, duration_s=2.0,
        )
        assert len(s1) != len(s2) or not all(map(np.array_equal, s1.times, s2.times))
