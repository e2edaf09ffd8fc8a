"""Correlation histograms, peak extraction and the per-epoch estimator."""

import math

import numpy as np
import pytest

from qcsync.attacks import AttackEvent, AttackPattern, DelayTrajectory
from qcsync.errors import (
    AcquisitionError,
    ConfigurationError,
    ContractViolation,
    EmptySeriesError,
    NoPeakError,
)
from qcsync.estimator import (
    CorrelationHistogram,
    EstimatorConfig,
    build_histogram,
    clock_difference,
    coarse_acquire,
    estimate_peak,
    per_epoch_series,
)
from qcsync.simulation import (
    ChannelConfig,
    ClockConfig,
    DetectorConfig,
    SourceConfig,
    TdcConfig,
    TimestampStream,
    generate_pairs,
    propagate_and_detect,
)

NOISELESS_DETECTOR = DetectorConfig(efficiency=1.0, jitter_sigma_ps=0.0, dead_time_ps=0.0)
NOISELESS_TDC = TdcConfig(resolution_ps=1.0, jitter_sigma_ps=0.0)
LOSSLESS_CHANNEL = ChannelConfig(
    one_way_delay_ps=49_000_000.0, loss_survival_prob=1.0, splitter_loopback_prob=0.5
)
QUIET_CLOCK = ClockConfig(offset_ps=-9900.0, drift_ps_per_s=0.0, white_phase_noise_sigma_ps=0.0)


def noiseless_stream(duration_s=20.0, rate=20_000.0, seed=7, m=None, n=None):
    pairs = generate_pairs(
        SourceConfig(pair_rate_hz=rate, intrinsic_correlation_jitter_ps=0.0),
        duration_s,
        seed,
    )
    return propagate_and_detect(
        pairs,
        LOSSLESS_CHANNEL,
        m or DelayTrajectory(),
        n or DelayTrajectory(),
        NOISELESS_DETECTOR,
        NOISELESS_TDC,
        QUIET_CLOCK,
        seed + 1,
        duration_s=duration_s,
    )


class TestBuildHistogram:
    def test_single_pair_in_center_bin(self):
        h = build_histogram(np.array([0]), np.array([1000]), 1.0, 1000, 500)
        assert h.counts.sum() == 1
        assert h.counts[500] == 1

    def test_disjoint_streams_all_zero(self):
        a = np.arange(0, 1000, 100)
        b = np.arange(1_000_000, 1_001_000, 100)
        h = build_histogram(a, b, 10.0, 0, 1000)
        assert h.counts.sum() == 0

    def test_unsorted_input_rejected(self):
        with pytest.raises(ContractViolation):
            build_histogram(np.array([5, 1]), np.array([0, 1]), 1.0, 0, 10)

    def test_bin_count_rounding(self):
        h = build_histogram(np.array([0]), np.array([0]), 3.0, 0, 10)
        assert h.counts.size == round(20 / 3)

    def test_monte_carlo_mean_matches_true_delay(self, rng):
        # Oracle: the histogram-weighted mean of 1e5 jittered differences
        # must sit within 3*sigma/sqrt(N) of the injected delay.
        n = 100_000
        delay = 250_000.0
        sigma = 110.0
        a = np.sort(rng.uniform(0, 1e12, n))
        b = np.sort(a + delay + rng.normal(0.0, sigma, n))
        h = build_histogram(a, b, 1.0, int(delay), 1000)
        centers = h.bin_centers()
        mean = np.dot(h.counts, centers) / h.counts.sum()
        assert mean == pytest.approx(delay, abs=3.0 * sigma / math.sqrt(n))

    def test_translation_invariance(self, rng):
        a = np.sort(rng.integers(0, 10_000, 50))
        b = np.sort(rng.integers(0, 10_000, 50))
        shift = 123_456
        h0 = build_histogram(a, b, 5.0, 0, 500)
        h1 = build_histogram(a + shift, b + shift, 5.0, 0, 500)
        np.testing.assert_array_equal(h0.counts, h1.counts)


class TestEstimatePeak:
    def test_delta_like_histogram(self):
        counts = np.zeros(100, dtype=np.int64)
        counts[40] = 10_000
        h = CorrelationHistogram(4.0, 0, 200, counts)
        peak = estimate_peak(h)
        assert peak.tau_ps == pytest.approx(h.bin_centers()[40])
        assert peak.uncertainty_ps <= 4.0 / math.sqrt(10_000)
        assert peak.peak_counts == 10_000

    def test_all_zero_histogram(self):
        h = CorrelationHistogram(4.0, 0, 200, np.zeros(100, dtype=np.int64))
        with pytest.raises(NoPeakError):
            estimate_peak(h)

    def test_flat_histogram_has_no_peak(self):
        h = CorrelationHistogram(4.0, 0, 200, np.full(100, 50, dtype=np.int64))
        with pytest.raises(NoPeakError):
            estimate_peak(h)

    def test_gaussian_peak_recovery(self, rng):
        # 1e4 net counts at sigma=110 ps: |tau - truth| <= 3*sigma/sqrt(N).
        truth = 777.0
        sigma = 110.0
        n = 10_000
        lo = -2000.0
        samples = rng.normal(truth, sigma, n)
        k = np.floor((samples - lo) / 4.0).astype(int)
        k = k[(k >= 0) & (k < 1000)]
        counts = np.bincount(k, minlength=1000).astype(np.int64)
        h = CorrelationHistogram(4.0, 0, 2000, counts)
        peak = estimate_peak(h)
        assert peak.tau_ps == pytest.approx(truth, abs=3.0 * sigma / math.sqrt(n))
        assert peak.uncertainty_ps == pytest.approx(sigma / math.sqrt(n), rel=0.25)

    def test_background_subtraction(self, rng):
        truth = 0.0
        counts = rng.poisson(25.0, 500).astype(np.int64)
        samples = rng.normal(truth, 100.0, 20_000)
        k = np.floor((samples + 1000.0) / 4.0).astype(int)
        k = k[(k >= 0) & (k < 500)]
        counts += np.bincount(k, minlength=500).astype(np.int64)
        h = CorrelationHistogram(4.0, 0, 1000, counts)
        peak = estimate_peak(h)
        assert peak.background_per_bin == pytest.approx(25.0, rel=0.2)
        assert peak.tau_ps == pytest.approx(truth, abs=5.0)


class TestClockDifference:
    def test_symmetric_channel(self):
        assert clock_difference(1000.0, 2000.0) == 0.0

    def test_arithmetic(self):
        assert clock_difference(1100.0, 2000.0) == 100.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigurationError):
            clock_difference(float("nan"), 0.0)

    def test_noiseless_simulation_recovers_offset(self):
        stream = noiseless_stream()
        series = per_epoch_series(stream, 1.0, EstimatorConfig(bin_width_ps=1.0))
        for p in series.points:
            assert not p.is_gap
            assert abs(p.tau_ab_ps - (49_000_000.0 - 9900.0)) <= 1.0
            assert abs(p.tau_aba_ps - 98_000_000.0) <= 1.0
            assert abs(p.delta_ps - (-9900.0)) <= 1.0


class TestCoarseAcquire:
    def test_noiseless_centers(self):
        stream = noiseless_stream()
        acq = coarse_acquire(stream)
        assert abs(acq.forward_center_ps - (49_000_000 - 9900)) <= 1000
        assert abs(acq.loopback_center_ps - 98_000_000) <= 1000

    def test_empty_stream_fails(self):
        stream = TimestampStream(
            times=[np.empty(0, np.int64)] * 3,
            pair_ids=[np.empty(0, np.int64)] * 3,
            duration_s=10.0,
            seed=0,
            nominal_one_way_delay_ps=49e6,
        )
        with pytest.raises(AcquisitionError):
            coarse_acquire(stream)

    def test_missing_nominal_delay(self):
        stream = noiseless_stream()
        stream.nominal_one_way_delay_ps = None
        with pytest.raises(ConfigurationError):
            coarse_acquire(stream)


class TestPerEpochSeries:
    def test_delta_rederivable_from_taus(self):
        stream = noiseless_stream()
        series = per_epoch_series(stream, 1.0)
        for p in series.points:
            assert p.delta_ps == clock_difference(p.tau_ab_ps, p.tau_aba_ps)

    def test_sample_std_matches_reported_sigma(self):
        pairs = generate_pairs(SourceConfig(pair_rate_hz=10_000.0), 60.0, 11)
        stream = propagate_and_detect(
            pairs,
            ChannelConfig(),
            DelayTrajectory(),
            DelayTrajectory(),
            DetectorConfig(),
            TdcConfig(),
            QUIET_CLOCK,
            12,
            duration_s=60.0,
        )
        series = per_epoch_series(stream, 1.0)
        deltas = series.deltas()
        reported = np.mean([p.delta_sigma_ps for p in series.points if not p.is_gap])
        assert np.nanstd(deltas) == pytest.approx(reported, rel=0.35)

    def test_jump_shifts_forward_only(self):
        onset = 10.0
        m = DelayTrajectory((AttackEvent(AttackPattern.JUMP, -100.0, onset),))
        n = DelayTrajectory((AttackEvent(AttackPattern.JUMP, 100.0, onset),))
        stream = noiseless_stream(duration_s=20.0, m=m, n=n)
        series = per_epoch_series(stream, 1.0, EstimatorConfig(bin_width_ps=1.0))
        deltas = series.deltas()
        tau_abas = series.tau_abas()
        assert np.nanmean(deltas[10:]) - np.nanmean(deltas[:10]) == pytest.approx(
            -100.0, abs=1.5
        )
        # Round-trip stays flat when N = -M.
        assert abs(np.nanmean(tau_abas[10:]) - np.nanmean(tau_abas[:10])) <= 1.5

    def test_zero_efficiency_is_empty_series(self):
        pairs = generate_pairs(SourceConfig(pair_rate_hz=5_000.0), 5.0, 3)
        stream = propagate_and_detect(
            pairs,
            LOSSLESS_CHANNEL,
            DelayTrajectory(),
            DelayTrajectory(),
            DetectorConfig(efficiency=0.0, jitter_sigma_ps=0.0),
            NOISELESS_TDC,
            QUIET_CLOCK,
            4,
            duration_s=5.0,
        )
        with pytest.raises(EmptySeriesError):
            per_epoch_series(stream, 1.0)

    def test_epoch_without_coincidences_becomes_gap(self):
        # Synthetic stream: forward/loopback coincidences in epochs 0 and 2,
        # nothing usable in epoch 1.
        rng = np.random.default_rng(5)
        delay = 10_000
        idler = np.concatenate(
            [np.sort(rng.integers(int(e * 1e12), int((e + 1) * 1e12), 400)) for e in (0, 2)]
        )
        stream = TimestampStream(
            times=[idler, idler + delay, idler + 2 * delay],
            pair_ids=[np.zeros(idler.size, dtype=np.int64)] * 3,
            duration_s=3.0,
            seed=0,
            nominal_one_way_delay_ps=float(delay),
        )
        cfg = EstimatorConfig(
            bin_width_ps=1.0, forward_center_ps=delay, loopback_center_ps=2 * delay
        )
        series = per_epoch_series(stream, 1.0, cfg)
        assert [p.is_gap for p in series.points] == [False, True, False]
        assert series.gap_count() == 1

    def test_stream_shorter_than_epoch(self):
        stream = noiseless_stream(duration_s=0.5)
        with pytest.raises(ConfigurationError):
            per_epoch_series(stream, 1.0)


class TestSeriesCsv:
    def test_roundtrip_with_gaps(self, tmp_path):
        from conftest import make_series

        series = make_series([-9900.0, None, -9901.5], epoch_s=2.0)
        path = tmp_path / "series.csv"
        series.to_csv(path)
        back = type(series).from_csv(path)
        assert back.epoch_length_s == 2.0
        assert [p.delta_ps for p in back.points] == [-9900.0, None, -9901.5]
        assert back.points[1].is_gap
