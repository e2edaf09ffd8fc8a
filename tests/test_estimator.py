"""Correlation histograms, peak extraction and the per-epoch estimator."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import gap_doc
from qcsync import estimator, simulation
from qcsync.attacks import AttackEvent, AttackPattern, DelayTrajectory
from qcsync.errors import (
    AcquisitionError,
    ConfigurationError,
    ContractViolation,
    EmptySeriesError,
    NoPeakError,
)
from qcsync.estimator import (
    _PEAK_FALSE_ALARM_PROB,
    _bin_centers,
    ClockDifferencePoint,
    ClockDifferenceSeries,
    CorrelationHistogram,
    EstimatorConfig,
    PeakEstimate,
    build_histogram,
    clock_difference,
    coarse_acquire,
    estimate_peak,
    per_epoch_series,
    _poisson_tail,
)
from qcsync.cli import main
from qcsync.runner import load_scenario
from qcsync.scenario import builtin_scenario
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
    source = SourceConfig(pair_rate_hz=rate, intrinsic_correlation_jitter_ps=0.0)
    return propagate_and_detect(
        generate_pairs(source, duration_s, seed),
        source,
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
        duration_s=3.0,
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


def third_second_stream():
    """Nine 1/3 s epochs of exact forward and loopback pairs, plus forward
    probes at every inner epoch edge ``rint(k * 1e12 / 3)`` (10 ns delay,
    4 ps bins): a pair whose idler sits on the edge counts in the later
    epoch, one whose signal sits one picosecond before it in the earlier
    epoch, and the two pairs that straddle it in neither.  The edges fall
    a third of a picosecond off the ``k * E`` grid, so an epoch taken from
    the division alone misplaces the probes on them.
    """
    delay = 10_000
    rng = np.random.default_rng(23)
    edges = np.rint(np.arange(10) * (1e12 / 3)).astype(np.int64)
    idler = np.sort(np.concatenate([rng.integers(lo + 10**10, hi - 10**10, 300)
                                    for lo, hi in zip(edges[:-1], edges[1:])]))
    inner = edges[1:-1]
    probes = np.concatenate((inner, inner - delay - 1, inner - delay, inner - 1))
    offsets = np.concatenate((np.full(inner.size * 3, delay), np.full(inner.size, delay + 4)))
    times = [
        np.sort(np.concatenate((idler, probes))),
        np.sort(np.concatenate((idler + delay, probes + offsets))),
        idler + 2 * delay,
    ]
    stream = TimestampStream(
        times=times,
        duration_s=3.0,
        nominal_one_way_delay_ps=float(delay),
    )
    return stream, EstimatorConfig(forward_center_ps=delay, loopback_center_ps=2 * delay)


class TestFractionalEpochs:
    """Epochs of a length that is not a whole number of picoseconds."""

    @pytest.mark.parametrize(
        "make",
        [lambda: (noiseless_stream(), EstimatorConfig()), third_second_stream],
        ids=["noiseless", "edge_probes"],
    )
    def test_points_equal_slicing_loop(self, make):
        stream, config = make()
        got = per_epoch_series(stream, 1.0 / 3.0, config).points
        want = reference_per_epoch_series(stream, 1.0 / 3.0, config).points
        assert len(got) == round(3 * stream.duration_s)
        assert got == want

    def test_build_histogram_with_negative_origin_equals_reference(self, rng):
        a = np.sort(rng.integers(-3 * 10**9, 10**9, 20_000))
        b = np.sort(np.concatenate((a[::2] + 700 + rng.integers(-90, 90, 10_000),
                                    rng.integers(-2 * 10**9, 2 * 10**9, 5000))))
        for args in (
            (a, b, 4.0, 700, 400),
            (a - 10**12, b - 10**12, 1.0, 650, 200),
            (a.astype(float) - 0.25, b.astype(float), 10.0, 0, 2000),
            (a, a - 5, 3.0, -5, 30),
        ):
            got = build_histogram(*args)
            np.testing.assert_array_equal(got.counts, reference_build_histogram(*args).counts)
            assert got.total() > 0


class TestKernelSlices:
    """The kernel pairs ``b`` in slices; the slice size never shows."""

    @staticmethod
    def histograms():
        source = SourceConfig(pair_rate_hz=5_000.0)
        stream = propagate_and_detect(
            generate_pairs(source, 3.0, 31), source, ChannelConfig(), DelayTrajectory(),
            DelayTrajectory(), DetectorConfig(), TdcConfig(), QUIET_CLOCK, 32, duration_s=3.0,
        )
        edges = np.array([0, 10**12, 2 * 10**12, 3 * 10**12])
        delay = int(LOSSLESS_CHANNEL.one_way_delay_ps)
        idler = stream.times[DetectorId.IDLER_A]
        return [
            estimator._histograms(idler, stream.times[det], edges, 4.0, center, 2000)
            for det, center in (
                (DetectorId.SIGNAL_B, delay - 9900),
                (DetectorId.RETURN_A, 2 * delay),
            )
        ]

    @pytest.mark.parametrize("slice_size", [1, 7, 1 << 16, estimator._B_SLICE])
    def test_counts_and_accidentals_independent_of_slice(self, monkeypatch, slice_size):
        want = self.histograms()
        monkeypatch.setattr(estimator, "_B_SLICE", slice_size)
        got = self.histograms()
        for (got_counts, got_acc), (want_counts, want_acc) in zip(got, want):
            assert len(got_counts) == len(want_counts) == len(got_acc) == len(want_acc) == 3
            for g, w, g_acc, w_acc in zip(got_counts, want_counts, got_acc, want_acc):
                assert g.sum() > 100
                np.testing.assert_array_equal(g, w)
                assert g.dtype == w.dtype
                assert g_acc == w_acc


    @pytest.mark.parametrize("slice_size", [1, 7, 1 << 16, estimator._B_SLICE])
    def test_uneven_grid_rows_equal_each_epochs_own_histogram(self, monkeypatch, slice_size):
        # Three 1 ms epochs, then 0.997 s, 1.5 s and 0.5 s: no division by
        # a mean epoch width finds these epochs, only the edges do.
        monkeypatch.setattr(estimator, "_B_SLICE", slice_size)
        stream = noiseless_stream(duration_s=3.0, rate=5_000.0)
        edges = np.array([0, 10**9, 2 * 10**9, 3 * 10**9, 10**12, 25 * 10**11, 3 * 10**12])
        idler = stream.times[DetectorId.IDLER_A]
        for det, center in ((DetectorId.SIGNAL_B, 48_990_100), (DetectorId.RETURN_A, 98_000_000)):
            far = stream.times[det]
            counts, _ = estimator._histograms(idler, far, edges, 4.0, center, 2000)
            assert counts.shape == (6, 1000) and counts.sum() > 1000
            for row, lo, hi in zip(counts, edges[:-1], edges[1:]):
                a = idler[np.searchsorted(idler, lo) : np.searchsorted(idler, hi)]
                b = far[np.searchsorted(far, lo) : np.searchsorted(far, hi)]
                want = reference_build_histogram(a, b, 4.0, center, 2000).counts
                np.testing.assert_array_equal(row, want)

    def test_records_beyond_the_last_epoch_count_nowhere(self, monkeypatch):
        # 3.5 s of records make 3 epochs.  In slices of 7 records whole
        # pieces of pairs lie past the last edge, and none may count.
        monkeypatch.setattr(estimator, "_B_SLICE", 7)
        stream = noiseless_stream(duration_s=3.5, rate=5_000.0)
        config = EstimatorConfig(forward_center_ps=48_990_100, loopback_center_ps=98_000_000)
        got = per_epoch_series(stream, 1.0, config).points
        assert len(got) == 3
        assert got == reference_per_epoch_series(stream, 1.0, config).points


    @pytest.mark.parametrize("slice_size", [7, 2000, 3500])
    def test_short_epochs_in_row_blocks(self, monkeypatch, slice_size):
        # 10 ms epochs hold ~100 pairs of each path, so a piece of pairs
        # spans many epochs, and the peaks are extracted in blocks of
        # 8 * slice_size // 1000 rows (1, 16 and 28 here).
        stream = noiseless_stream(duration_s=2.0, rate=20_000.0)
        config = EstimatorConfig(forward_center_ps=48_990_100, loopback_center_ps=98_000_000)
        want = per_epoch_series(stream, 0.01, config).points
        monkeypatch.setattr(estimator, "_B_SLICE", slice_size)
        got = per_epoch_series(stream, 0.01, config).points
        assert len(got) == 200
        assert got == want == reference_per_epoch_series(stream, 0.01, config).points


class TestRowBlocks:
    """Each path's epochs are cut into at least ``_WORKERS`` row blocks."""

    @staticmethod
    def record_blocks(monkeypatch):
        """The first epoch and row count of every kernel call from now on,
        in the order the workers make them."""
        blocks = []
        histograms = estimator._histograms

        def recording(a, b, edges, *args):
            blocks.append((int(edges[0] // 10**12), edges.size - 1))
            return histograms(a, b, edges, *args)

        monkeypatch.setattr(estimator, "_histograms", recording)
        return blocks

    @pytest.mark.parametrize(
        "seconds, workers, slice_size, rows",
        [
            (30, 1, 1 << 15, [30]),
            (30, 2, 1 << 15, [15, 15]),
            (30, 3, 1 << 15, [10, 10, 10]),
            # Four epochs on three workers make three blocks, not two of
            # two, and two epochs make one block each.
            (4, 3, 1 << 15, [1, 1, 2]),
            (2, 3, 1 << 15, [1, 1]),
            # Eight slices of 250 records hold two epochs of 1000 bins: a
            # cap of two rows cuts five epochs into three blocks.
            (5, 1, 250, [1, 2, 2]),
        ],
    )
    def test_series_independent_of_workers(self, monkeypatch, seconds, workers, slice_size, rows):
        stream = noiseless_stream(duration_s=float(seconds), rate=5_000.0)
        config = EstimatorConfig(forward_center_ps=48_990_100, loopback_center_ps=98_000_000)
        monkeypatch.setattr(simulation, "_WORKERS", 1)
        want = per_epoch_series(stream, 1.0, config).points
        monkeypatch.setattr(estimator, "_B_SLICE", slice_size)
        blocks = self.record_blocks(monkeypatch)
        monkeypatch.setattr(simulation, "_WORKERS", workers)
        got = per_epoch_series(stream, 1.0, config).points
        assert len(got) == seconds and not any(p.is_gap for p in got)
        assert got == want
        # Each path is cut the same way; blocks run in any order.
        firsts = np.cumsum([0] + rows[:-1]).tolist()
        assert sorted(blocks) == sorted(list(zip(firsts, rows)) * 2)

    def test_blocks_keep_their_row_cap(self, monkeypatch):
        # Eight slices of 7 records make 56 bins' worth: one row per block
        # for the default 1000 bins, however few workers there are.
        stream = noiseless_stream(duration_s=3.0, rate=5_000.0)
        config = EstimatorConfig(forward_center_ps=48_990_100, loopback_center_ps=98_000_000)
        monkeypatch.setattr(estimator, "_B_SLICE", 7)
        blocks = self.record_blocks(monkeypatch)
        per_epoch_series(stream, 1.0, config)
        assert sorted(blocks) == [(0, 1), (0, 1), (1, 1), (1, 1), (2, 1), (2, 1)]


class TestWindowPairs:
    @given(
        st.lists(st.integers(0, 400), min_size=1, max_size=60),
        st.lists(st.integers(-50, 450), max_size=60),
        st.lists(st.integers(-50, 450), min_size=2, max_size=8, unique=True),
        st.integers(-30, 30),
        st.integers(1, 40),
        st.integers(1, 9),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_pieces_hold_every_pair_once_with_ascending_tb(
        self, a, b, grid, lo, width, slice_size, data
    ):
        # Narrow windows give each record one partner at most, wide ones
        # several; epochs run from one unit to the whole span, and records
        # sit on their edges.  A pair counts only when both its records lie
        # in one epoch, and the kernel's epoch runs need each piece's tb to
        # ascend.
        edges = np.sort(np.array(grid))
        on_edges = st.lists(st.sampled_from(grid), max_size=6)
        a = np.sort(np.array(a + data.draw(on_edges)))
        b = np.sort(np.array(b + data.draw(on_edges), dtype=np.int64))
        # The kernel passes only the far records inside the grid.
        b = b[(edges[0] <= b) & (b < edges[-1])]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator, "_B_SLICE", slice_size)
            pieces = list(estimator._window_pairs(a, b, edges, lo, lo + width))
        got = [(int(x), int(y)) for ta, tb in pieces for x, y in zip(ta, tb)]
        # Epoch k + 1 holds [edges[k], edges[k + 1]); 0 and edges.size
        # hold the idlers outside the grid.
        epoch_a = np.searchsorted(edges, a, side="right")
        epoch_b = np.searchsorted(edges, b, side="right")
        want = [
            (int(x), int(y))
            for y, ky in zip(b, epoch_b)
            for x, kx in zip(a, epoch_a)
            if lo <= y - x < lo + width and kx == ky
        ]
        assert sorted(got) == sorted(want)
        for ta, tb in pieces:
            assert ta.size == tb.size > 0 and np.all(np.diff(tb) >= 0)
            assert tb.size <= slice_size + a.size


# Test oracle: ``_window_pairs`` as it was when it paired records across
# epoch edges and left the kernel to drop those pairs, kept verbatim apart
# from its name and the module prefixes.
def reference_window_pairs(a, b, lo_key, hi_key):
    """Times ``(t_a, t_b)`` of the pairs with ``lo_key <= t_b - t_a < hi_key``.

    Each record of ``b`` is searched into the non-empty ``a`` for its first
    partner, ``_B_SLICE`` records at a time.  A window narrower than the
    spacing of ``a`` mostly holds no partner or one, which two comparisons
    settle; a slice where no record has two partners is yielded as its
    records with one.  Otherwise only the records with two or more are
    searched for their last partner, and the slice is yielded in pieces cut
    wherever its pair count passes a multiple of ``_B_SLICE``, so a piece
    holds at most ``_B_SLICE`` pairs plus one record's.  Every piece's
    ``t_b`` ascend.
    """
    last = a.size - 1
    for start in range(0, b.size, estimator._B_SLICE):
        bs = b[start : start + estimator._B_SLICE]
        first = np.searchsorted(a, bs - hi_key, side="right")
        stop = bs - lo_key
        one = (a[np.minimum(first, last)] <= stop) & (first <= last)
        more = one & (first < last)
        more &= a[np.minimum(first + 1, last)] <= stop
        if not more.any():
            first = np.compress(one, first)
            if first.size:
                yield a[first], np.compress(one, bs)
            continue
        n = one.astype(np.int64)
        more = np.flatnonzero(more)
        n[more] = np.searchsorted(a, stop[more], side="right") - first[more]
        # Pairs of records [j0, j1) are pairs [bounds[j0], bounds[j1]).
        bounds = np.concatenate(([0], np.cumsum(n)))
        offset = first - bounds[:-1]
        cuts = np.searchsorted(
            bounds[1:],
            np.arange(estimator._B_SLICE, bounds[-1], estimator._B_SLICE),
            side="right",
        ).tolist()
        for j0, j1 in zip([0] + cuts, cuts + [bs.size]):
            if bounds[j1] == bounds[j0]:
                continue
            ai = np.arange(bounds[j0], bounds[j1])
            ai += np.repeat(offset[j0:j1], n[j0:j1])
            yield a[ai], np.repeat(bs[j0:j1], n[j0:j1])


# Test oracle: the histogram kernel as it was when every pair was given an
# epoch array and checked, kept verbatim apart from its name, the module
# prefixes and its pair search, the frozen ``reference_window_pairs``.
def reference_histograms(a, b, edges, bin_width_ps, window_center_ps, window_halfwidth_ps):
    nbins = estimator._bin_count(bin_width_ps, window_halfwidth_ps)
    lo = float(window_center_ps) - float(window_halfwidth_ps)
    lo_key, hi_key = lo, lo + nbins * bin_width_ps
    if a.dtype.kind == b.dtype.kind == "i":
        # An integer t_b - t_a lies in [lo, hi) exactly when it lies in
        # [ceil(lo), ceil(hi)): integer keys never convert the arrays to float.
        lo_key, hi_key = math.ceil(lo_key), math.ceil(hi_key)
    singles = np.diff(np.searchsorted(a, edges)) * np.diff(np.searchsorted(b, edges))
    accidentals = singles * bin_width_ps / np.diff(edges)
    n_epochs = edges.size - 1
    counts = np.zeros(n_epochs * nbins, dtype=np.int32)
    if a.size == 0:
        return counts.reshape(n_epochs, nbins), accidentals
    # Only the b records inside the grid can count, and only those within
    # the window of some a record can pair: each one left has an epoch.
    first, stop = max(edges[0], a[0] + lo_key), min(edges[-1], a[-1] + hi_key)
    b = b[np.searchsorted(b, first) : np.searchsorted(b, stop)]
    counted = 0
    for ta, tb in reference_window_pairs(a, b, lo_key, hi_key):
        # tb ascends within [edges[0], edges[-1]), so each epoch's pairs
        # are one run of the piece.
        runs = np.diff(np.searchsorted(tb, edges))
        epoch = np.repeat(np.arange(n_epochs), runs)
        keep = (np.repeat(edges[:-1], runs) <= ta) & (ta < np.repeat(edges[1:], runs))
        if not keep.all():
            ta, tb, epoch = (np.compress(keep, v) for v in (ta, tb, epoch))
            if epoch.size == 0:
                continue
        counted += ta.size
        if counted > estimator._MAX_COUNTED_PAIRS:
            raise ContractViolation(
                f"more than {estimator._MAX_COUNTED_PAIRS} pairs in one histogram kernel: "
                "its int32 counts could wrap"
            )
        # floor((tb - ta - lo) / bin_width_ps), step by step in one array.
        d = tb.astype(float)
        d -= ta
        d -= lo
        d /= bin_width_ps
        cells = np.floor(d, out=d).astype(np.int64)
        del d
        np.clip(cells, 0, nbins - 1, out=cells)
        epoch *= nbins
        cells += epoch
        del epoch
        # A one of the counts' own dtype keeps numpy on its fast path, which
        # casts nothing; the piece makes no counts of its own.
        np.add.at(counts, cells, np.int32(1))
        del cells
    return counts.reshape(n_epochs, nbins), accidentals


@st.composite
def kernel_inputs(draw):
    """Sorted ``a`` and ``b``, an ascending grid and a window for
    ``_histograms``, int64 or float64, near zero or far from it.

    Epochs run from 1 to 400 units, so some are shorter than the window; a
    centre of 0 puts ``lo_key`` below zero; and ``b`` holds records on the
    epoch edges, on ``edge + hi_key`` and on ``edge + lo_key`` (and one unit,
    or for floats one ulp, off each), where a pair's idler can sit on an
    epoch edge.
    """
    kind = draw(st.sampled_from(["int", "float"]))
    shift = draw(st.sampled_from([0, 10**12, 2**53 - 300, 3 * 2**52]))
    bw = draw(st.sampled_from([1.0, 2.5, 3.0, 7.0] + ([0.75, 1.3] if kind == "float" else [])))
    halfwidth = draw(st.integers(1, 60))
    center = draw(st.sampled_from([0, halfwidth, -halfwidth, draw(st.integers(-150, 150))]))
    nbins = int(round(2.0 * halfwidth / bw))
    if nbins < 1:
        halfwidth, nbins = 60, int(round(120 / bw))
    lo = float(center) - float(halfwidth)
    lo_key, hi_key = lo, lo + nbins * bw
    if kind == "int":
        lo_key, hi_key = math.ceil(lo_key), math.ceil(hi_key)
    steps = draw(st.lists(st.integers(1, 400), min_size=1, max_size=6))
    grid = np.cumsum([draw(st.integers(-100, 100))] + steps)
    lo_t, hi_t = int(grid[0]) - 200, int(grid[-1]) + 200
    a = draw(st.lists(st.integers(lo_t, hi_t), max_size=50))
    a += draw(st.lists(st.sampled_from(grid.tolist()), max_size=4))
    b = draw(st.lists(st.integers(lo_t, hi_t), max_size=50))
    if kind == "int":
        edges = grid.astype(np.int64) + shift
        a, b = (np.sort(np.asarray(v, dtype=np.int64)) + shift for v in (a, b))
        special = np.concatenate([edges + k for k in (lo_key, hi_key, 0)])
        special = np.concatenate([special - 1, special, special + 1])
    else:
        # Far from zero, edge + hi_key rounds, and so do the differences.
        edges = grid.astype(float) + shift
        assume(np.all(np.diff(edges) > 0))
        a = np.sort(np.asarray(a, dtype=float) + draw(st.sampled_from([0.0, 0.25, 0.5])) + shift)
        b = np.asarray(b, dtype=float) + shift
        special = np.concatenate([edges + k for k in (lo_key, hi_key, 0.0)])
        special = np.concatenate(
            [np.nextafter(special, -np.inf), special, np.nextafter(special, np.inf)]
        )
    picks = draw(st.lists(st.integers(0, special.size - 1), max_size=12))
    b = np.sort(np.concatenate((b, special[picks])))
    return a, b, edges, bw, center, halfwidth


class TestEpochBands:
    """The kernel pairs each far record only with the idlers of its own
    epoch, and counts what the per-pair check of every pair counted."""

    @given(kernel_inputs(), st.integers(1, 9))
    @settings(max_examples=600, deadline=None)
    def test_counts_equal_per_pair_check(self, inputs, slice_size):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator, "_B_SLICE", slice_size)
            got_counts, got_acc = estimator._histograms(*inputs)
            want_counts, want_acc = reference_histograms(*inputs)
        assert got_counts.dtype == want_counts.dtype == np.int32
        assert got_counts.tobytes() == want_counts.tobytes()
        assert got_acc.tobytes() == want_acc.tobytes()


class TestBuildHistogram:
    def test_count_total_past_int32_limit_fails_closed(self, monkeypatch):
        # Ten pairs, each record with its own partner, in pieces of three:
        # counted at a limit of ten, refused at nine rather than wrapped.
        monkeypatch.setattr(estimator, "_B_SLICE", 3)
        a = np.arange(0, 100, 10)
        monkeypatch.setattr(estimator, "_MAX_COUNTED_PAIRS", 10)
        h = build_histogram(a, a + 3, 1.0, 3, 4)
        assert h.counts.dtype == np.int32 and h.total() == 10
        monkeypatch.setattr(estimator, "_MAX_COUNTED_PAIRS", 9)
        with pytest.raises(ContractViolation, match="int32 counts could wrap"):
            build_histogram(a, a + 3, 1.0, 3, 4)

    def test_empty_idlers_count_nothing(self):
        h = build_histogram(np.array([], dtype=np.int64), np.array([5, 10, 20]), 1.0, 10, 10)
        assert h.counts.shape == (20,) and h.total() == 0
        assert h.accidentals_per_bin == 0.0

    def test_single_pair_in_center_bin(self):
        h = build_histogram(np.array([0]), np.array([1000]), 1.0, 1000, 500)
        assert h.counts.sum() == 1
        assert h.counts[500] == 1

    def test_disjoint_streams_all_zero(self):
        a = np.arange(0, 1000, 100)
        b = np.arange(1_000_000, 1_001_000, 100)
        h = build_histogram(a, b, 10.0, 0, 1000)
        assert h.counts.sum() == 0

    @pytest.mark.parametrize(
        "name, value",
        [
            ("bin_width_ps", math.nan),
            ("bin_width_ps", math.inf),
            ("bin_width_ps", 0.0),
            ("window_center_ps", math.nan),
            ("window_center_ps", -math.inf),
            ("window_halfwidth_ps", math.nan),
            ("window_halfwidth_ps", math.inf),
            ("window_halfwidth_ps", -5),
        ],
    )
    def test_unusable_window_refused_by_name(self, name, value):
        # A NaN ended in "cannot convert float NaN to integer" and an
        # infinite halfwidth in an OverflowError.
        args = dict(bin_width_ps=1.0, window_center_ps=0, window_halfwidth_ps=10)
        args[name] = value
        with pytest.raises(ConfigurationError, match=f"^{name} "):
            build_histogram(np.array([0, 5]), np.array([1, 6]), **args)

    @pytest.mark.parametrize(
        "a, b, name",
        [
            ([0.0, math.nan, 5.0, 100.0], [10.0, 20.0, 30.0, 110.0], "a"),
            ([0.0, math.inf], [10.0, 20.0], "a"),
            ([-math.inf, 0.0], [10.0, 20.0], "a"),
            ([0.0, 100.0], [10.0, math.nan], "b"),
            ([0.0, 100.0], [10.0, math.inf], "b"),
            ([False, True], [False, True], "a"),
            ([0, 100], [False, True], "b"),
            (["0", "5"], [10, 20], "a"),
            ([0, 100], [None, 20], "b"),
            ([0, 100], [10j, 20j], "b"),
        ],
        ids=["nan", "inf", "-inf", "b-nan", "b-inf", "bool", "b-bool", "str", "object",
             "complex"],
    )
    def test_unusable_timestamps_refused_by_name(self, a, b, name):
        # A NaN passed the order check, since every comparison with it is
        # false, and NaN, infinite and bool times were counted.
        with pytest.raises(ConfigurationError, match=f"^{name} timestamps must be finite"):
            build_histogram(a, b, 4.0, 10, 50)

    @pytest.mark.parametrize(
        "a, b, name",
        [
            ([2.0**54], [2.0**54 + 8], "a"),
            (np.array([2**60]), np.array([2**60 + 3]), "a"),
            ([-(2.0**53)], [0.0], "a"),
            ([0.0], [2.0**53], "b"),
            (np.array([0]), np.array([2**53 + 1]), "b"),
            (np.array([0], np.uint64), np.array([2**64 - 1], np.uint64), "b"),
        ],
        ids=["float", "int", "float-low", "float-edge", "int-edge", "uint64"],
    )
    def test_times_beyond_exact_range_refused_by_name(self, a, b, name):
        # Float records at 2**53 and beyond dropped the last far record (the
        # grid end, one past it, rounded back onto it), and int64 records
        # were binned by a rounded float difference.
        with pytest.raises(ConfigurationError, match=f"^{name} timestamps must lie"):
            build_histogram(a, b, 1.0, 8, 4)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_times_just_inside_exact_range_binned_exactly(self, dtype):
        top = 2**53 - 1
        h = build_histogram(np.array([top - 3], dtype), np.array([top], dtype), 1.0, 2, 2)
        assert np.flatnonzero(h.counts).tolist() == [3]

    def test_finite_times_of_any_width_counted(self):
        want = build_histogram(np.array([0, 100]), np.array([10, 110]), 4.0, 10, 50).counts
        for dtype in (np.float32, np.float64, np.int32, np.uint64):
            a, b = np.array([0, 100], dtype=dtype), np.array([10, 110], dtype=dtype)
            np.testing.assert_array_equal(build_histogram(a, b, 4.0, 10, 50).counts, want)
        assert want.sum() == 2

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


# Test oracle: ``estimate_peak`` with the per-bin loops that grow its seed
# region, kept verbatim, and the span's re-centring as a scalar loop.
def reference_estimate_peak(histogram):
    """Locate the coincidence peak of a correlation histogram.

    Background is the mean count of the outer 10% of bins at each window
    edge.  The contiguous region around the maximum bin whose counts exceed
    ``background + 3*sqrt(background)`` seeds a centroid; the integration
    span is four seed RMS widths around that centroid, then re-centred on
    its own centroid with four of its own RMS widths until it reproduces
    itself or the span before it, so the tail cut is deterministic and the
    counting-statistics uncertainty (RMS width, floored at the single-bin
    quantization width, over the square root of the net counts) is
    calibrated.

    The maximum bin must also be significant: the chance that accidentals
    alone fill some bin that high (Poisson tail at the larger of the edge
    background and ``histogram.accidentals_per_bin``, times the bin count)
    must stay below ``_PEAK_FALSE_ALARM_PROB``.

    Raises NoPeakError when no bin clears the threshold, the maximum is not
    significant, a span holds no net counts, leaves the window or is still
    moving after ``_RECENTRE_ROUNDS`` rounds, which signals a broken
    channel, a mis-centered window or a peak that left it.
    """
    counts = histogram.counts
    nbins = counts.size
    if nbins == 0:
        raise NoPeakError("empty histogram")
    edge = max(1, nbins // 10)
    background = float(np.concatenate((counts[:edge], counts[-edge:])).mean())
    threshold = background + 3.0 * math.sqrt(background)

    peak_bin = int(np.argmax(counts))
    if counts[peak_bin] <= threshold:
        raise NoPeakError(
            f"no bin above background threshold ({counts[peak_bin]} <= {threshold:.2f})"
        )
    accidentals = max(background, histogram.accidentals_per_bin)
    if nbins * _poisson_tail(int(counts[peak_bin]), accidentals) >= _PEAK_FALSE_ALARM_PROB:
        raise NoPeakError(
            f"maximum bin ({counts[peak_bin]}) not significant over "
            f"{accidentals:.3g} accidentals per bin"
        )

    left = peak_bin
    while left > 0 and counts[left - 1] > threshold:
        left -= 1
    right = peak_bin
    while right < nbins - 1 and counts[right + 1] > threshold:
        right += 1

    centers = histogram.bin_centers()
    seed_net = counts[left : right + 1].astype(float) - background
    seed_total = float(seed_net.sum())
    seed_tau = float(np.dot(seed_net, centers[left : right + 1]) / seed_total)
    seed_rms = math.sqrt(
        max(float(np.dot(seed_net, (centers[left : right + 1] - seed_tau) ** 2) / seed_total), 0.0)
    )

    def span(tau, rms):
        half = 4.0 * max(rms, histogram.bin_width_ps)
        lo = int(np.searchsorted(centers, tau - half, side="left"))
        return lo, int(np.searchsorted(centers, tau + half, side="right"))

    # A centroid that sends the span back to the one before it takes the
    # union of the two as its final span.
    previous, current, final = None, span(seed_tau, seed_rms), False
    for _ in range(estimator._RECENTRE_ROUNDS):
        lo, hi = current
        net = counts[lo:hi].astype(float) - background
        net_total = float(net.sum())
        if net_total <= 0:
            raise NoPeakError("no net counts in the peak region")
        tau = float(np.dot(net, centers[lo:hi]) / net_total)
        rms = math.sqrt(max(float(np.dot(net, (centers[lo:hi] - tau) ** 2) / net_total), 0.0))
        following = span(tau, rms)
        if final or following == current:
            break
        final = following == previous
        if final:
            following = (min(lo, following[0]), max(hi, following[1]))
        if following[0] >= following[1]:
            raise NoPeakError("peak span left the window while re-centring")
        previous, current = current, following
    else:
        raise NoPeakError(
            f"peak span still moving after {estimator._RECENTRE_ROUNDS} re-centring rounds"
        )
    floor = histogram.bin_width_ps / math.sqrt(12.0)
    uncertainty = max(rms, floor) / math.sqrt(net_total)
    return PeakEstimate(
        tau_ps=tau,
        uncertainty_ps=uncertainty,
        peak_counts=int(counts[peak_bin]),
        background_per_bin=background,
    )


def random_histogram(gen):
    """A histogram of 1-300 bins: Poisson background plus 0-2 Gaussian
    peaks, centred anywhere from just outside the first bin to just outside
    the last."""
    nbins = int(gen.integers(1, 301))
    counts = gen.poisson(gen.choice([0.0, 0.01, 0.3, 3.0, 30.0]), nbins)
    x = np.arange(nbins)
    for _ in range(int(gen.integers(0, 3))):
        center = gen.uniform(-2.0, nbins + 1.0)
        width = gen.uniform(0.1, 0.25 * nbins + 0.5)
        counts += gen.poisson(gen.uniform(0.0, 500.0) * np.exp(-0.5 * ((x - center) / width) ** 2))
    bw = float(gen.choice([1.0, 4.0, 10.0, 1000.0]))
    accidentals = float(gen.choice([0.0, 1e-6, 1e-3, 0.1]))
    return CorrelationHistogram(bw, int(gen.integers(-5000, 5000)), 2000, counts, accidentals)


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


    def test_seed_fragment_cut_off_by_an_empty_bin(self):
        # A loopback peak at 5 kHz (400 counts, sigma 66 ps) over no
        # background, where one empty bin cuts a fragment holding the
        # maximum off its flank 27 bins left of centre.  The seed is that
        # fragment, and a span fixed around it reads ~100 ps off the peak.
        x = _bin_centers(0, 2000, 4.0, 1000)
        density = np.exp(-0.5 * (x / 66.0) ** 2) / (66.0 * math.sqrt(2.0 * math.pi))
        counts = np.rint(400.0 * 4.0 * density).astype(np.int64)
        counts[471:477] = [0, 2, 13, 3, 2, 0]
        assert counts.argmax() == 473 and counts[477:].max() < 13
        peak = estimate_peak(CorrelationHistogram(4.0, 0, 2000, counts))
        assert peak.uncertainty_ps == pytest.approx(66.0 / math.sqrt(400.0), rel=0.1)
        assert abs(peak.tau_ps) <= 3.0 * peak.uncertainty_ps


class TestEstimatePeakOracle:
    @staticmethod
    def outcome(extract, histogram):
        try:
            return extract(histogram)
        except NoPeakError as exc:
            return f"NoPeakError: {exc}"

    def assert_same(self, histogram):
        # The outcome, the NoPeakError text, the peak counts and the
        # background are exact; tau and its uncertainty are sums taken in
        # another order, so they may differ in the last bits.
        want = self.outcome(reference_estimate_peak, histogram)
        got = self.outcome(estimate_peak, histogram)
        assert type(got) is type(want)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.peak_counts == want.peak_counts
            assert got.background_per_bin == want.background_per_bin
            assert got.tau_ps == pytest.approx(want.tau_ps, rel=1e-13, abs=1e-9)
            assert got.uncertainty_ps == pytest.approx(want.uncertainty_ps, rel=1e-13, abs=1e-9)
        return want

    def test_random_histograms(self):
        gen = np.random.default_rng(4242)
        outcomes = [self.assert_same(random_histogram(gen)) for _ in range(3000)]
        peaks = sum(isinstance(o, PeakEstimate) for o in outcomes)
        # Both outcomes are well represented.
        assert 0.2 * len(outcomes) < peaks < 0.8 * len(outcomes)

    @pytest.mark.parametrize(
        "counts",
        [
            # Peak in, or seed reaching, the first bin.
            [100, 100, 90, 80, 70, 60, 50, 40, 30, 20, 10, 5, 3, 2, 1, 0, 0, 0, 0, 0],
            [500] + [0] * 19,
            # Peak in, or seed reaching, the last bin.
            [0] * 19 + [500],
            [0, 0, 0, 0, 0, 1, 2, 3, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 100],
            # Every bin above the threshold but one edge bin (the edges set
            # the background, so one of them never clears it).
            [0] + [100] * 9,
            [100] * 9 + [0],
            # One-bin, flat and empty histograms have no peak.
            [7],
            [0],
            [50] * 100,
            [],
        ],
    )
    def test_edge_cases(self, counts):
        self.assert_same(CorrelationHistogram(4.0, 0, 200, np.array(counts, dtype=np.int64)))


def matrix_outcomes(counts, accidentals, bin_width_ps, center, halfwidth):
    """Each row's ``_peaks`` result, as ``estimate_peak`` would give it."""
    found = estimator._peaks(counts, accidentals, bin_width_ps, center, halfwidth)
    outcomes = []
    for tau, sigma, peak, background, code, acc in zip(
        *(v.tolist() for v in found), accidentals.tolist()
    ):
        if code == estimator._PEAK:
            outcomes.append(PeakEstimate(tau, sigma, peak, background))
        else:
            message = estimator._no_peak_message(code, peak, background, acc)
            outcomes.append(f"NoPeakError: {message}")
    return outcomes


def alone_outcomes(counts, accidentals, bin_width_ps, center, halfwidth):
    return [
        TestEstimatePeakOracle.outcome(
            estimate_peak, CorrelationHistogram(bin_width_ps, center, halfwidth, row, acc)
        )
        for row, acc in zip(counts, accidentals.tolist())
    ]


class TestPeakMatrix:
    """``_peaks`` over a matrix gives each row what ``estimate_peak`` gives it alone."""

    def test_random_histograms_stacked_by_bin_count(self):
        gen = np.random.default_rng(4242)
        groups = {}
        for _ in range(3000):
            h = random_histogram(gen)
            groups.setdefault(h.counts.size, []).append(h)
        rows = 0
        for group in groups.values():
            first = group[0]
            geometry = (first.bin_width_ps, first.window_center_ps, first.window_halfwidth_ps)
            counts = np.array([h.counts for h in group])
            accidentals = np.array([h.accidentals_per_bin for h in group])
            want = alone_outcomes(counts, accidentals, *geometry)
            assert matrix_outcomes(counts, accidentals, *geometry) == want
            # Reversed, each row shares the matrix with other neighbours.
            assert matrix_outcomes(counts[::-1], accidentals[::-1], *geometry) == want[::-1]
            rows += len(group)
        assert rows == 3000 and len(groups) > 250

    def test_gradual_reversing_epochs(self):
        doc = builtin_scenario("gradual_fast_reversing")
        doc["run"]["duration_s"] = 120.0
        scenario = load_scenario(doc)
        stream = run_round_trip_sim(scenario)
        config = scenario.estimator
        acq = coarse_acquire(stream, config)
        edges = np.arange(121, dtype=np.int64) * 10**12
        idler = stream.times[DetectorId.IDLER_A]
        peaks = 0
        for det, center in (
            (DetectorId.SIGNAL_B, acq.forward_center_ps),
            (DetectorId.RETURN_A, acq.loopback_center_ps),
        ):
            bw, hw = config.bin_width_ps, config.window_halfwidth_ps
            counts, accidentals = estimator._histograms(
                idler, stream.times[det], edges, bw, center, hw
            )
            want = alone_outcomes(counts, accidentals, bw, center, hw)
            assert matrix_outcomes(counts, accidentals, bw, center, hw) == want
            peaks += sum(isinstance(o, PeakEstimate) for o in want)
        assert peaks == 240

    @pytest.mark.parametrize(
        "counts, accidentals, code",
        [
            ([], 0.0, "_EMPTY"),
            ([50] * 100, 0.0, "_BELOW_THRESHOLD"),
            ([0] * 500 + [1] + [0] * 499, 1e-5, "_NOT_SIGNIFICANT"),
            # One significant bin whose four-bin-width span holds eight
            # empty bins under a background of 100: no net counts.
            ([100, 100] + [0] * 8 + [160] + [0] * 7 + [100, 100], 0.0, "_NO_NET_COUNTS"),
            # Peaks at the window edge, whose edge bins set a background
            # they rise out of: the net counts' centroid leaves the window,
            # or the span cycles through three positions.
            ([60, 77, 28, 2, 2], 0.0, "_SPAN_LEFT_WINDOW"),
            ([86, 79, 97, 53, 73, 45], 0.0, "_SPAN_UNSETTLED"),
        ],
    )
    def test_failure_codes_give_oracle_messages(self, counts, accidentals, code):
        h = CorrelationHistogram(4.0, 0, 200, np.array(counts, dtype=np.int64), accidentals)
        found = estimator._peaks(h.counts[np.newaxis], np.array([accidentals]), 4.0, 0, 200)
        assert found.code.tolist() == [getattr(estimator, code)]
        with pytest.raises(NoPeakError) as want:
            reference_estimate_peak(h)
        with pytest.raises(NoPeakError) as got:
            estimate_peak(h)
        assert str(got.value) == str(want.value)


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
            duration_s=10.0,
            nominal_one_way_delay_ps=49e6,
        )
        with pytest.raises(AcquisitionError):
            coarse_acquire(stream)

    def test_missing_nominal_delay(self):
        stream = noiseless_stream()
        stream.nominal_one_way_delay_ps = None
        with pytest.raises(ConfigurationError):
            coarse_acquire(stream)


    def test_both_centres_configured_read_no_stream(self):
        # Neither the nominal delay nor the detector streams are read when
        # no path is searched.
        idler = np.arange(0, 10_000_000, 1000, dtype=np.int64)
        stream = TimestampStream(
            times=[idler, np.empty(0, np.int64), idler + 20_000],
            duration_s=1.0,
            nominal_one_way_delay_ps=None,
        )
        config = EstimatorConfig(forward_center_ps=10_000, loopback_center_ps=20_000)
        acq = coarse_acquire(stream, config)
        assert (acq.forward_center_ps, acq.loopback_center_ps) == (10_000, 20_000)


    def test_far_records_past_the_idlers_reach_change_nothing(self, monkeypatch):
        # Acquisition reads the first ``acquire_max_events`` idlers and only
        # the far records within its windows of them, so a dense burst of far
        # records long after that reach changes none of the histograms it
        # builds: not their counts, nor the accidentals the singles predict.
        config = EstimatorConfig(acquire_max_events=2000)
        stream = noiseless_stream(duration_s=2.0)
        histograms = []
        estimate = estimator.estimate_peak

        def recording(histogram):
            histograms.append((histogram.counts.tobytes(), histogram.accidentals_per_bin))
            return estimate(histogram)

        monkeypatch.setattr(estimator, "estimate_peak", recording)
        want = coarse_acquire(stream, config)
        assert estimator.acquisition_reach(stream, config) < 1e12
        burst = np.arange(3 * 10**12, 3 * 10**12 + 100_000, dtype=np.int64)
        times = [np.concatenate((t, burst)) if det else t for det, t in enumerate(stream.times)]
        longer = TimestampStream(times, stream.duration_s, stream.nominal_one_way_delay_ps)
        plain = histograms[:]
        histograms.clear()
        assert coarse_acquire(longer, config) == want
        # The forward and loopback searches record theirs on two threads.
        assert len(histograms) == 4 and sorted(histograms) == sorted(plain)

    def test_reach_bounds_what_acquisition_reads(self):
        stream = noiseless_stream(duration_s=2.0)
        idler = stream.times[DetectorId.IDLER_A]
        config = EstimatorConfig(acquire_max_events=2000)
        reach = estimator.acquisition_reach(stream, config)
        # The loopback's coarse window ends 6 L past the 2000th idler, and
        # the refined one lies within a refined halfwidth and bin of it.
        assert 0 <= reach - (idler[1999] + 6 * 49_000_000) <= 5000 + 10
        cut = TimestampStream(
            [t[t < reach] for t in stream.times], stream.duration_s, 49e6
        )
        assert coarse_acquire(cut, config) == coarse_acquire(stream, config)
        forward = dataclasses.replace(config, loopback_center_ps=98_000_000)
        assert estimator.acquisition_reach(stream, forward) < reach
        both = dataclasses.replace(forward, forward_center_ps=48_990_100)
        assert estimator.acquisition_reach(stream, both) == -math.inf
        many = dataclasses.replace(config, acquire_max_events=idler.size + 1)
        assert estimator.acquisition_reach(stream, many) == math.inf


class TestPerEpochSeries:
    def test_delta_rederivable_from_taus(self):
        stream = noiseless_stream()
        series = per_epoch_series(stream, 1.0)
        for p in series.points:
            assert p.delta_ps == clock_difference(p.tau_ab_ps, p.tau_aba_ps)

    def test_sample_std_matches_reported_sigma(self):
        source = SourceConfig(pair_rate_hz=10_000.0)
        stream = propagate_and_detect(
            generate_pairs(source, 60.0, 11),
            source,
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
        source = SourceConfig(pair_rate_hz=5_000.0)
        stream = propagate_and_detect(
            generate_pairs(source, 5.0, 3),
            source,
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
            duration_s=3.0,
            nominal_one_way_delay_ps=float(delay),
        )
        cfg = EstimatorConfig(
            bin_width_ps=1.0, forward_center_ps=delay, loopback_center_ps=2 * delay
        )
        series = per_epoch_series(stream, 1.0, cfg)
        assert [p.is_gap for p in series.points] == [False, True, False]
        assert series.gap_count() == 1

    @pytest.mark.parametrize(
        "centre",
        [{"forward_center_ps": 49_000_100}, {"loopback_center_ps": 98_010_000}],
        ids=["forward", "loopback"],
    )
    def test_lone_window_centre_is_used(self, centre):
        # The one configured centre sits 10 ns off its peak, outside the
        # +-2 ns window, so no epoch is usable: acquisition supplies only
        # the centre left unset.
        stream = noiseless_stream(duration_s=5.0)
        with pytest.raises(EmptySeriesError):
            per_epoch_series(stream, 1.0, EstimatorConfig(**centre))

    def test_unset_centre_still_acquired(self):
        stream = noiseless_stream(duration_s=5.0)
        series = per_epoch_series(stream, 1.0, EstimatorConfig(forward_center_ps=48_990_100))
        assert series.gap_count() == 0

    @pytest.mark.parametrize(
        "centres",
        [
            {},
            {"forward_center_ps": 48_990_100},
            {"forward_center_ps": 48_990_100, "loopback_center_ps": 98_000_000},
        ],
        ids=["none", "forward", "both"],
    )
    def test_acquisition_decides_the_centres(self, monkeypatch, centres):
        # ``coarse_acquire`` alone decides which centres to search for, so
        # the series asks it once however many centres are configured.
        calls = []
        acquire = estimator.coarse_acquire

        def counting(stream, config=None):
            calls.append(config)
            return acquire(stream, config)

        monkeypatch.setattr(estimator, "coarse_acquire", counting)
        config = EstimatorConfig(**centres)
        series = per_epoch_series(noiseless_stream(duration_s=5.0), 1.0, config)
        assert calls == [config]
        assert series.gap_count() == 0

    def test_configured_centre_is_not_searched_for(self):
        # A 120 us clock offset puts the forward peak at L + 120 us, beyond
        # the +-2L acquisition window around L, so a forward search fails;
        # with the forward centre configured, only the loopback is searched.
        doc = builtin_scenario("baseline")
        doc["run"]["duration_s"] = 20.0
        del doc["detection"]
        doc["clock"] = {"offset_ps": 1.2e8}
        delay = ChannelConfig().one_way_delay_ps
        doc["estimator"] = {"forward_center_ps": int(delay + 1.2e8)}
        scenario = load_scenario(doc)
        stream = run_round_trip_sim(scenario)
        acq = coarse_acquire(stream, scenario.estimator)
        assert acq.forward_center_ps == int(delay + 1.2e8)
        assert abs(acq.loopback_center_ps - 2 * delay) <= 1000
        series = per_epoch_series(stream, 1.0, scenario.estimator)
        assert len(series) == 20 and series.gap_count() == 0
        with pytest.raises(AcquisitionError, match="not significant"):
            coarse_acquire(stream, dataclasses.replace(scenario.estimator, forward_center_ps=None))

    def test_stream_shorter_than_epoch(self):
        stream = noiseless_stream(duration_s=0.5)
        with pytest.raises(ConfigurationError):
            per_epoch_series(stream, 1.0)


class TestEstimatorConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("window_halfwidth_ps", math.inf),
            ("refine_halfwidth_ps", math.inf),
            ("acquire_max_events", math.inf),
            ("forward_center_ps", math.nan),
            ("loopback_center_ps", math.nan),
            ("forward_center_ps", -math.inf),
        ],
    )
    def test_nonfinite_field_refused(self, field, value):
        # These passed the constructor, and the series then died with a raw
        # OverflowError or ValueError.
        with pytest.raises(ConfigurationError, match=f"^{field} "):
            EstimatorConfig(**{field: value})

    @pytest.mark.parametrize("value", [1e5, 2.5, 1.0, True, 0, -3, "100"])
    def test_acquire_max_events_must_be_a_count(self, value):
        # A float passed the constructor, and acquisition then died slicing
        # the idlers with it (TypeError: slice indices must be integers).
        with pytest.raises(ConfigurationError, match="^acquire_max_events "):
            EstimatorConfig(acquire_max_events=value)

    def test_acquire_max_events_takes_any_integer(self):
        stream = noiseless_stream(duration_s=2.0)
        want = coarse_acquire(stream, EstimatorConfig(acquire_max_events=1000))
        config = EstimatorConfig(acquire_max_events=np.int64(1000))
        assert coarse_acquire(stream, config) == want


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


    @pytest.mark.parametrize("column", [0, 3])
    @pytest.mark.parametrize("cell", ["abc", "nan", "inf", "-inf", "1e999"])
    def test_bad_cell_refused(self, tmp_path, column, cell):
        # A non-numeric cell must not escape as a raw ValueError, and a NaN
        # or infinite one must not pass as a measurement (a NaN delta in the
        # calibration window silences the threshold monitor).
        from conftest import make_series

        path = tmp_path / "series.csv"
        make_series([-9900.0] * 30 + [-10400.0] * 30).to_csv(path)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[column] = cell
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match=f"row 2: '{cell}' is not a finite number"):
            ClockDifferenceSeries.from_csv(path)
        assert main(["tdev", str(path)]) == 1
        detect = ["detect", str(path), "--threshold-ps", "200", "--baseline-window", "20"]
        assert main(detect) == 1


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
