"""Correlation histograms, peak extraction and the per-epoch estimator."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import gap_doc
from qcsync.attacks import AttackEvent, AttackPattern, DelayTrajectory
from qcsync.errors import (
    AcquisitionError,
    ConfigurationError,
    ContractViolation,
    EmptySeriesError,
    NoPeakError,
)
from qcsync.estimator import (
    ClockDifferencePoint,
    ClockDifferenceSeries,
    CorrelationHistogram,
    EstimatorConfig,
    build_histogram,
    clock_difference,
    coarse_acquire,
    estimate_peak,
    per_epoch_series,
)
from qcsync.cli import main
from qcsync.runner import load_scenario
from qcsync.simulation import (
    ChannelConfig,
    ClockConfig,
    DetectorConfig,
    DetectorId,
    SourceConfig,
    TdcConfig,
    TimestampStream,
    generate_pairs,
    propagate_and_detect,
    run_round_trip_sim,
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


def reference_window_pair_indices(a, b, lo_ps, hi_ps):
    """Index arrays (ai, bj) of ordered pairs with b[j]-a[i] in [lo, hi) (test oracle)."""
    left = np.searchsorted(b, a + lo_ps, side="left")
    right = np.searchsorted(b, a + hi_ps, side="left")
    counts = right - left
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    ai = np.repeat(np.arange(a.size, dtype=np.int64), counts)
    cum = np.concatenate(([0], np.cumsum(counts)[:-1]))
    bj = np.arange(total, dtype=np.int64) - np.repeat(cum, counts) + np.repeat(left, counts)
    return ai, bj


def reference_build_histogram(a, b, bin_width_ps, window_center_ps, window_halfwidth_ps):
    """The per-slice histogram the epoch kernel replaced (test oracle)."""
    a = np.asarray(a)
    b = np.asarray(b)
    nbins = int(round(2.0 * window_halfwidth_ps / bin_width_ps))
    lo = float(window_center_ps) - float(window_halfwidth_ps)
    span = nbins * float(bin_width_ps)

    ai, bj = reference_window_pair_indices(a, b, lo, lo + span)
    if ai.size == 0:
        counts = np.zeros(nbins, dtype=np.int64)
    else:
        d = b[bj].astype(float) - a[ai].astype(float)
        k = np.floor((d - lo) / bin_width_ps).astype(np.int64)
        np.clip(k, 0, nbins - 1, out=k)
        counts = np.bincount(k, minlength=nbins).astype(np.int64)
    return CorrelationHistogram(
        bin_width_ps=float(bin_width_ps),
        window_center_ps=int(window_center_ps),
        window_halfwidth_ps=int(window_halfwidth_ps),
        counts=counts,
    )


def reference_per_epoch_series(stream, epoch_length_s, config):
    """The slice-per-epoch loop the epoch kernel replaced (test oracle).

    Its histograms carry no singles-rate accidental estimate, so it matches
    ``per_epoch_series`` only where no epoch's peak sits near the
    significance gate; the fixtures below are such streams.
    """
    n_epochs = int(stream.duration_s / epoch_length_s + 1e-9)
    if config.forward_center_ps is None or config.loopback_center_ps is None:
        acq = coarse_acquire(stream, config)
        config = dataclasses.replace(
            config,
            forward_center_ps=acq.forward_center_ps,
            loopback_center_ps=acq.loopback_center_ps,
        )

    idler = stream.times[DetectorId.IDLER_A]
    signal = stream.times[DetectorId.SIGNAL_B]
    ret = stream.times[DetectorId.RETURN_A]

    epoch_ps = epoch_length_s * 1e12
    edges = np.rint(np.arange(n_epochs + 1) * epoch_ps).astype(np.int64)
    idler_idx = np.searchsorted(idler, edges)
    signal_idx = np.searchsorted(signal, edges)
    ret_idx = np.searchsorted(ret, edges)

    points = []
    for k in range(n_epochs):
        epoch_start = k * epoch_length_s
        a = idler[idler_idx[k] : idler_idx[k + 1]]
        f = signal[signal_idx[k] : signal_idx[k + 1]]
        r = ret[ret_idx[k] : ret_idx[k + 1]]
        try:
            fwd_hist = reference_build_histogram(
                a, f, config.bin_width_ps, config.forward_center_ps, config.window_halfwidth_ps
            )
            loop_hist = reference_build_histogram(
                a, r, config.bin_width_ps, config.loopback_center_ps, config.window_halfwidth_ps
            )
            fwd = estimate_peak(fwd_hist)
            loop = estimate_peak(loop_hist)
        except NoPeakError:
            points.append(ClockDifferencePoint(epoch_start, None, None, None))
            continue
        delta = clock_difference(fwd.tau_ps, loop.tau_ps)
        delta_sigma = math.sqrt(fwd.uncertainty_ps**2 + 0.25 * loop.uncertainty_ps**2)
        points.append(
            ClockDifferencePoint(
                epoch_start_s=epoch_start,
                tau_ab_ps=fwd.tau_ps,
                tau_aba_ps=loop.tau_ps,
                delta_ps=delta,
                tau_ab_sigma_ps=fwd.uncertainty_ps,
                tau_aba_sigma_ps=loop.uncertainty_ps,
                delta_sigma_ps=delta_sigma,
            )
        )
    return ClockDifferenceSeries(epoch_length_s=epoch_length_s, points=points)


def straddle_stream():
    """Three 1 s epochs of exact forward and loopback pairs, plus forward
    pairs that probe the kernel's bounds (4 ps bins, +-2000 ps window):

    - the first idler's pair sits at exactly the window's low edge and the
      last idler's at one picosecond below its high edge: both count, one
      in the first bin of epoch 0 and one in the last bin of epoch 2;
    - a pair at exactly the high edge in epoch 2 does not count;
    - a pair one bin off the peak whose idler ends epoch 0 and whose signal
      starts epoch 1 counts in neither.

    A miscounted probe changes an epoch's background or seed region, and
    with it a point of the series.
    """
    delay = 10_000
    rng = np.random.default_rng(17)
    # 300 idlers in the middle 0.8 s of each epoch.
    starts = (np.arange(3) * 10 + 1) * 10**11
    idler = np.sort(np.concatenate([rng.integers(t, t + 8 * 10**11, 300) for t in starts]))
    probes = [
        (int(0.05e12), delay - 2000),
        (int(2.95e12), delay + 1999),
        (int(2.05e12), delay + 2000),
        (int(1e12) - 5, delay + 4),
    ]
    times = [
        np.sort(np.concatenate((idler, [t for t, _ in probes]))),
        np.sort(np.concatenate((idler + delay, [t + d for t, d in probes]))),
        idler + 2 * delay,
    ]
    stream = TimestampStream(
        times=times,
        pair_ids=[np.zeros(t.size, dtype=np.int64) for t in times],
        duration_s=3.0,
        seed=0,
        nominal_one_way_delay_ps=float(delay),
    )
    return stream, EstimatorConfig(forward_center_ps=delay, loopback_center_ps=2 * delay)


def gap_doc_stream(duration_s, spike_width_s):
    scenario = load_scenario(gap_doc(duration_s, spike_width_s))
    return run_round_trip_sim(scenario), scenario.estimator


class TestEpochKernelOracle:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: (noiseless_stream(), EstimatorConfig()),
            lambda: (noiseless_stream(), EstimatorConfig(bin_width_ps=1.0)),
            lambda: gap_doc_stream(200.0, 1.0),
            lambda: gap_doc_stream(120.0, 5.0),
            straddle_stream,
        ],
        ids=["noiseless", "noiseless_1ps", "gap_doc_1", "gap_doc_5", "straddle"],
    )
    def test_points_equal_slicing_loop(self, make):
        stream, config = make()
        got = per_epoch_series(stream, 1.0, config).points
        want = reference_per_epoch_series(stream, 1.0, config).points
        assert got == want

    def test_straddle_probes_count_only_inside_their_epoch(self):
        # Epochs 0 and 2 each count one edge probe, so their points agree;
        # epoch 1 counts none, so it has no background and the same peak.
        stream, config = straddle_stream()
        points = per_epoch_series(stream, 1.0, config).points
        assert points[0] == dataclasses.replace(points[2], epoch_start_s=0.0)
        assert points[1].tau_ab_ps == pytest.approx(points[0].tau_ab_ps, abs=1e-6)
        assert points[1].tau_ab_sigma_ps != points[0].tau_ab_sigma_ps

    @pytest.mark.parametrize(
        "a, b, bw, center, halfwidth",
        [
            ([0], [1000], 1.0, 1000, 500),
            (np.arange(0, 1000, 100), np.arange(1_000_000, 1_001_000, 100), 10.0, 0, 1000),
            ([0], [0], 3.0, 0, 10),
            ([0, 5, 9], [3, 7, 12, 20], 2.5, 4, 9),
        ],
    )
    def test_build_histogram_equals_reference(self, a, b, bw, center, halfwidth):
        a, b = np.asarray(a), np.asarray(b)
        got = build_histogram(a, b, bw, center, halfwidth)
        want = reference_build_histogram(a, b, bw, center, halfwidth)
        np.testing.assert_array_equal(got.counts, want.counts)

    def test_build_histogram_equals_reference_on_random_streams(self, rng):
        n = 100_000
        a = np.sort(rng.uniform(0, 1e12, n))
        b = np.sort(a + 250_000.0 + rng.normal(0.0, 110.0, n))
        for args in ((a, b, 1.0, 250_000, 1000), (a, b, 4.0, 249_000, 2000)):
            np.testing.assert_array_equal(
                build_histogram(*args).counts, reference_build_histogram(*args).counts
            )
        x = np.sort(rng.integers(0, 10_000, 50))
        y = np.sort(rng.integers(0, 10_000, 50))
        for shift in (0, 123_456):
            args = (x + shift, y + shift, 5.0, 0, 500)
            np.testing.assert_array_equal(
                build_histogram(*args).counts, reference_build_histogram(*args).counts
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

    def test_single_row_refused(self, tmp_path):
        # One row cannot fix the epoch length (10 s here, not a 1 s default).
        from conftest import make_series

        path = tmp_path / "series.csv"
        make_series([-9900.0], epoch_s=10.0).to_csv(path)
        with pytest.raises(ConfigurationError, match="two or more rows"):
            ClockDifferenceSeries.from_csv(path)

    def test_dropped_row_refused(self, tmp_path):
        # A series with a gap row filtered out is not evenly spaced; reading
        # it as such would close the gap up in TDEV.
        from conftest import make_series

        series = make_series([-9900.0, -9901.0, None, -9903.0, -9902.0], epoch_s=0.1)
        series.points = [p for p in series.points if not p.is_gap]
        path = tmp_path / "series.csv"
        series.to_csv(path)
        with pytest.raises(ConfigurationError, match="off the 0.1 s grid"):
            ClockDifferenceSeries.from_csv(path)
        assert main(["tdev", str(path)]) == 1


class TestSignificanceGate:
    @staticmethod
    def lone_count(accidentals_per_bin):
        counts = np.zeros(1000, dtype=np.int64)
        counts[500] = 1
        return CorrelationHistogram(4.0, 0, 2000, counts, accidentals_per_bin)

    def test_lone_count_judged_against_singles_rate(self):
        # 1000 bins x 1e-7 = 1e-4 chance of an accidental: a peak.  At 1e-5
        # per bin the chance is 1e-2: no peak.
        assert estimate_peak(self.lone_count(1e-7)).peak_counts == 1
        with pytest.raises(NoPeakError, match="not significant"):
            estimate_peak(self.lone_count(1e-5))

    def test_edge_background_alone_rejects_lone_count(self):
        # One count in the edges sets 0.005 accidentals per bin, so a lone
        # count in the middle clears the threshold but is not significant.
        h = self.lone_count(0.0)
        h.counts[0] = 1
        with pytest.raises(NoPeakError, match="not significant"):
            estimate_peak(h)

    def test_one_accidental_is_not_a_peak(self):
        # 8 kHz idlers and 2 kHz signals predict 6.4e-5 accidentals per 4 ps
        # bin; build_histogram carries that rate to the gate.
        a = np.arange(0, 10**12, 125_000_000)
        b = np.sort(np.append(np.arange(7, 10**12, 500_000_000), a[10] + 10_000))
        h = build_histogram(a, b, 4.0, 10_000, 2000)
        assert h.total() == 1
        assert h.accidentals_per_bin == pytest.approx(6.4e-5, rel=1e-3)
        with pytest.raises(NoPeakError):
            estimate_peak(h)

    def test_spike_epochs_are_gaps_on_every_seed(self):
        # A 10 kHz run whose forward peak leaves its +-2 ns window for 30 s
        # leaves ~0.064 accidentals per emptied epoch: without the gate a
        # lone accidental became a forward "peak" in ~1 of 12 such epochs.
        for seed in range(20):
            doc = gap_doc(60.0, spike_width_s=30.0, start_s=30.0, pair_rate_hz=1.0e4)
            doc["run"]["seed"] = seed
            scenario = load_scenario(doc)
            stream = run_round_trip_sim(scenario)
            series = per_epoch_series(stream, 1.0, scenario.estimator)
            assert [p.is_gap for p in series.points] == [k >= 30 for k in range(60)], seed
