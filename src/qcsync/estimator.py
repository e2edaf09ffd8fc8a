"""Clock-difference recovery from timestamp streams.

Pairwise detection-time differences between two detectors, histogrammed
over a window, peak at the propagation delay (plus clock offset) of the
photon path connecting them.  One kernel builds the forward (IdlerA x
SignalB) or loopback (IdlerA x ReturnA) histogram of every epoch in one
pass, as an ``(epochs, bins)`` count matrix; acquisition runs it as a
single epoch.  Each slice of far-end records is searched only into the
stretch of idlers it can reach, and a pair's two records get their epochs
by division.  Per epoch both peak positions tau_AB and tau_ABA give the
clock difference ``delta = tau_AB - tau_ABA / 2``.

Peak extraction is a background-subtracted centroid: the contiguous bin
region around the maximum that rises above ``background +
3*sqrt(background)`` seeds a fixed four-RMS integration span, and the
maximum must be significant against the accidentals the singles predict.
It is deterministic, fit-free, and returns a calibrated counting-statistics
uncertainty.  One extractor finds the peaks of every row of the count
matrix at once, each row's result independent of the others;
``estimate_peak`` is its one-row case.  Epochs where either peak cannot be
found become explicit gaps rather than fabricated values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from .errors import (
    AcquisitionError,
    ConfigurationError,
    ContractViolation,
    EmptySeriesError,
    NoPeakError,
)
from .simulation import DetectorId, _pipeline, is_sorted

__all__ = [
    "CorrelationHistogram",
    "PeakEstimate",
    "ClockDifferencePoint",
    "ClockDifferenceSeries",
    "EstimatorConfig",
    "AcquisitionResult",
    "build_histogram",
    "estimate_peak",
    "clock_difference",
    "coarse_acquire",
    "per_epoch_series",
]


@dataclass
class CorrelationHistogram:
    """Binned coincidence counts of ``t_b - t_a`` over a fixed window.

    Bin k spans ``[center - halfwidth + k*bw, center - halfwidth + (k+1)*bw)``
    in absolute time-difference coordinates.  ``accidentals_per_bin`` is
    the accidental-coincidence count per bin that the singles predict,
    ``N_a * N_b * bw / span`` (0 when unknown).
    """

    bin_width_ps: float
    window_center_ps: int
    window_halfwidth_ps: int
    counts: np.ndarray
    accidentals_per_bin: float = 0.0

    def bin_centers(self):
        return _bin_centers(
            self.window_center_ps, self.window_halfwidth_ps, self.bin_width_ps, self.counts.size
        )

    def total(self):
        return int(self.counts.sum())


@dataclass(frozen=True)
class PeakEstimate:
    tau_ps: float
    uncertainty_ps: float
    peak_counts: int
    background_per_bin: float


@dataclass(frozen=True)
class ClockDifferencePoint:
    """One epoch's estimates: a None delta marks a gap; analytic runs have None taus."""

    epoch_start_s: float
    tau_ab_ps: Optional[float]
    tau_aba_ps: Optional[float]
    delta_ps: Optional[float]
    tau_ab_sigma_ps: Optional[float] = None
    tau_aba_sigma_ps: Optional[float] = None
    delta_sigma_ps: Optional[float] = None

    @property
    def is_gap(self):
        return self.delta_ps is None


def _finite_cell(text, row):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigurationError(f"row {row}: {text!r} is not a finite number")
    return value


@dataclass
class ClockDifferenceSeries:
    """Per-epoch clock-difference samples over contiguous epochs."""

    epoch_length_s: float
    points: List[ClockDifferencePoint]

    def __len__(self):
        return len(self.points)

    def times(self):
        return np.array([p.epoch_start_s for p in self.points])

    def deltas(self):
        """Delta values with NaN at gap epochs."""
        return np.array(
            [p.delta_ps if p.delta_ps is not None else np.nan for p in self.points]
        )

    def tau_abas(self):
        return np.array(
            [p.tau_aba_ps if p.tau_aba_ps is not None else np.nan for p in self.points]
        )

    def gap_count(self):
        return sum(1 for p in self.points if p.is_gap)

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch_start_s,tau_ab_ps,tau_aba_ps,delta_ps\n")
            for p in self.points:
                cells = (p.epoch_start_s, p.tau_ab_ps, p.tau_aba_ps, p.delta_ps)
                fh.write(",".join("" if v is None else repr(v) for v in cells) + "\n")

    @classmethod
    def from_csv(cls, path):
        points = []
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "epoch_start_s,tau_ab_ps,tau_aba_ps,delta_ps":
                raise ConfigurationError(f"unexpected series header: {header!r}")
            for line in fh:
                cells = line.rstrip("\n").split(",")
                if len(cells) != 4:
                    raise ConfigurationError(f"malformed series row: {line!r}")
                row = len(points) + 1
                values = (_finite_cell(c, row) if c else None for c in cells[1:])
                points.append(ClockDifferencePoint(_finite_cell(cells[0], row), *values))
        # The epoch length is not stored: it is the spacing of the rows, and
        # every row must sit on that grid, so a dropped row is refused rather
        # than silently closed up.
        if len(points) < 2:
            raise ConfigurationError(f"series needs two or more rows, got {len(points)}")
        start = points[0].epoch_start_s
        epoch = points[1].epoch_start_s - start
        for k, p in enumerate(points):
            expected = start + k * epoch
            off = abs(p.epoch_start_s - expected)
            if not (epoch > 0 and off <= 1e-9 * max(abs(expected), epoch)):
                raise ConfigurationError(
                    f"row {k + 1}: epoch start {p.epoch_start_s!r} is off the "
                    f"{epoch!r} s grid from {start!r} s (rows missing or out of order)"
                )
        return cls(epoch_length_s=epoch, points=points)


@dataclass(frozen=True)
class EstimatorConfig:
    """Histogram and acquisition parameters for the per-epoch estimator."""

    bin_width_ps: float = 4.0
    window_halfwidth_ps: int = 2000
    coarse_bin_ps: float = 1000.0
    refine_bin_ps: float = 10.0
    refine_halfwidth_ps: int = 5000
    acquire_max_events: int = 200_000
    forward_center_ps: Optional[int] = None
    loopback_center_ps: Optional[int] = None

    def __post_init__(self):
        for name in ("bin_width_ps", "coarse_bin_ps", "refine_bin_ps"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ConfigurationError(f"{name} must be finite and > 0")
        for name in ("window_halfwidth_ps", "refine_halfwidth_ps", "acquire_max_events"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"{name} must be > 0")


@dataclass(frozen=True)
class AcquisitionResult:
    forward_center_ps: int
    loopback_center_ps: int


# A peak is accepted only when accidentals alone would fill its maximum bin
# this high with at most this probability, summed over the histogram's bins.
_PEAK_FALSE_ALARM_PROB = 1e-3

# The histogram kernel pairs the ``b`` records in slices of this many, and
# splits a slice wherever its candidate pairs pass another this many, so
# its temporaries stay slice-sized however long the stream is and however
# wide the window; the counts of all slices add up to the same histograms.
_B_SLICE = 1 << 16

# Outcome of ``_peaks`` for one histogram: a peak, or why there is none.
_PEAK, _BELOW_THRESHOLD, _NOT_SIGNIFICANT, _EMPTY, _NO_NET_COUNTS = range(5)


def _check_sorted(name, arr):
    if not is_sorted(arr):
        raise ContractViolation(f"{name} timestamps must be sorted ascending")


def _bin_centers(window_center_ps, window_halfwidth_ps, bin_width_ps, nbins):
    """``lo + (k + 0.5) * bin_width_ps`` for each bin k, in one array."""
    centers = np.arange(nbins, dtype=float)
    centers += 0.5
    centers *= bin_width_ps
    centers += window_center_ps - window_halfwidth_ps
    return centers


def _epochs(t, edges):
    """Index k of the epoch ``[edges[k], edges[k+1])`` holding each time in
    ``t``: -1 before the first edge, ``edges.size - 1`` from the last on.

    The grid is even to within a few ps (whole-ps epochs, ``rint(k*E)``
    edges of any E, or a single epoch), so one division puts a time at most
    one epoch from its own, and one comparison with each edge of that epoch
    settles it exactly.
    """
    n_epochs = edges.size - 1
    k = ((t - edges[0]) / ((edges[-1] - edges[0]) / n_epochs)).astype(np.int64)
    np.clip(k, 0, n_epochs - 1, out=k)
    k -= t < edges[k]
    k += t >= edges[k + 1]
    return k


def _partner_counts(a, first, stop):
    """``searchsorted(a, stop, side="right") - first`` for a non-empty ``a``:
    how many of ``a[first:]`` lie at or below each ``stop``.

    A window narrower than the spacing of ``a`` mostly holds no partner or
    one, which two comparisons settle; only the records that hold two or
    more are searched.
    """
    last = a.size - 1
    n = (a[np.minimum(first, last)] <= stop) & (first <= last)
    more = n & (first < last)
    more &= a[np.minimum(first + 1, last)] <= stop
    n = n.astype(np.int64)
    if more.any():
        more = np.flatnonzero(more)
        n[more] = np.searchsorted(a, stop[more], side="right") - first[more]
    return n


def _window_pairs(a, b, lo_key, hi_key):
    """Times ``(t_a, t_b)`` of the pairs with ``lo_key <= t_b - t_a < hi_key``.

    Each record of ``b`` is searched into ``a`` for its first partner,
    ``_B_SLICE`` records at a time and only into the stretch of ``a`` that
    the slice can reach.  A slice is yielded in pieces cut wherever its
    pair count passes a multiple of ``_B_SLICE``, so a piece holds at most
    ``_B_SLICE`` pairs plus one record's.
    """
    for start in range(0, b.size, _B_SLICE):
        bs = b[start : start + _B_SLICE]
        reach_start = np.searchsorted(a, bs[0] - hi_key, side="right")
        reach = a[reach_start : np.searchsorted(a, bs[-1] - lo_key, side="right")]
        if reach.size == 0:
            continue
        first = np.searchsorted(reach, bs - hi_key, side="right")
        n = _partner_counts(reach, first, bs - lo_key)
        # Pairs of records [j0, j1) are pairs [bounds[j0], bounds[j1]).
        bounds = np.concatenate(([0], np.cumsum(n)))
        offset = first - bounds[:-1]
        cuts = np.searchsorted(
            bounds[1:], np.arange(_B_SLICE, bounds[-1], _B_SLICE), side="right"
        ).tolist()
        for j0, j1 in zip([0] + cuts, cuts + [bs.size]):
            if bounds[j1] == bounds[j0]:
                continue
            ai = np.arange(bounds[j0], bounds[j1])
            ai += np.repeat(offset[j0:j1], n[j0:j1])
            yield reach[ai], np.repeat(bs[j0:j1], n[j0:j1])


def _histograms(a, b, edges, bin_width_ps, window_center_ps, window_halfwidth_ps):
    """Correlation histograms of ``t_b - t_a``, one per epoch ``[edges[k], edges[k+1])``.

    Returns the ``(n_epochs, nbins)`` count matrix and the accidentals per
    bin that each epoch's singles predict.  A pair counts only in the epoch
    holding both of its records; a ``bincount`` over ``epoch * nbins +
    bin`` adds each piece of pairs into all epochs' counts.
    """
    nbins = int(round(2.0 * window_halfwidth_ps / bin_width_ps))
    if nbins < 1:
        raise ConfigurationError("window narrower than one bin")
    lo = float(window_center_ps) - float(window_halfwidth_ps)
    lo_key, hi_key = lo, lo + nbins * bin_width_ps
    if a.dtype.kind == b.dtype.kind == "i":
        # An integer t_b - t_a lies in [lo, hi) exactly when it lies in
        # [ceil(lo), ceil(hi)): integer keys never convert the arrays to float.
        lo_key, hi_key = math.ceil(lo_key), math.ceil(hi_key)
    singles = np.diff(np.searchsorted(a, edges)) * np.diff(np.searchsorted(b, edges))
    accidentals = singles * bin_width_ps / np.diff(edges)
    if a.size:
        # Only the b records within the window of some a record can pair.
        b = b[np.searchsorted(b, a[0] + lo_key) : np.searchsorted(b, a[-1] + hi_key)]
    n_epochs = edges.size - 1
    counts = np.zeros(n_epochs * nbins, dtype=np.int64)
    for ta, tb in _window_pairs(a, b, lo_key, hi_key):
        span = np.array([min(ta.min(), tb[0]), max(ta.max(), tb[-1])])
        first_epoch, last_epoch = _epochs(span, edges).tolist()
        if first_epoch == last_epoch:
            # The piece lies within one epoch: its pairs need no division.
            if not 0 <= first_epoch < n_epochs:
                continue
            epoch = first_epoch
        else:
            epoch = _epochs(ta, edges)
            keep = (epoch == _epochs(tb, edges)) & (epoch >= 0) & (epoch < n_epochs)
            if not keep.all():
                ta, tb, epoch = ta[keep], tb[keep], epoch[keep]
            if epoch.size == 0:
                continue
        d = tb.astype(float) - ta.astype(float)
        k = np.floor((d - lo) / bin_width_ps).astype(np.int64)
        np.clip(k, 0, nbins - 1, out=k)
        # The piece's pairs span a few epochs: count only that stretch.
        offset = int(np.min(epoch)) * nbins
        piece_counts = np.bincount(epoch * nbins + k - offset)
        counts[offset : offset + piece_counts.size] += piece_counts
    return counts.reshape(n_epochs, nbins), accidentals


def build_histogram(a, b, bin_width_ps, window_center_ps, window_halfwidth_ps):
    """Histogram of ordered time differences ``t_b - t_a`` within a window.

    Both inputs must be sorted ascending.  This is the one-epoch case of the
    per-epoch kernel: only the ``b`` records within the window of some
    ``a`` record are searched, so the cost follows ``a``, not ``b``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if bin_width_ps <= 0 or window_halfwidth_ps <= 0:
        raise ConfigurationError("bin width and window halfwidth must be positive")
    _check_sorted("a", a)
    _check_sorted("b", b)
    # One epoch over both inputs' time span, the span of their singles rates.
    ends = np.concatenate((a[:1], a[-1:], b[:1], b[-1:]))
    edges = np.array([ends.min(), ends.max() + 1]) if ends.size else np.array([0, 1])
    counts, accidentals = _histograms(
        a, b, edges, bin_width_ps, window_center_ps, window_halfwidth_ps
    )
    return CorrelationHistogram(
        float(bin_width_ps),
        int(window_center_ps),
        int(window_halfwidth_ps),
        counts[0],
        float(accidentals[0]),
    )


def _poisson_tail(k, mu):
    """``P(X >= k)`` for ``X ~ Poisson(mu)``; 1.0 for ``k <= mu``, where it is ~1/2 or more."""
    if k <= mu:
        return 1.0
    if mu <= 0:
        return 0.0
    # From k on the terms fall by mu / i < 1 each, so the upward sum converges.
    term = math.exp(k * math.log(mu) - mu - math.lgamma(k + 1))
    tail = 0.0
    while term > tail * 1e-16:
        tail += term
        k += 1
        term *= mu / k
    return tail


def _centroids(counts, rows, background, centers, lo, hi):
    """Net totals, centroids and RMS widths above ``background[i]`` of each
    span ``counts[rows[i], lo[i]:hi[i]]`` (every span one bin or wider).

    Each span is summed on its own by ``np.add.reduceat``, so a row's
    result does not depend on the other rows.
    """
    width = hi - lo
    start = np.cumsum(width) - width
    span = np.repeat(np.arange(rows.size), width)
    col = np.arange(start[-1] + width[-1])
    col += np.repeat(lo - start, width)
    net = counts[rows[span], col] - background[span]
    x = centers[col]
    total = np.add.reduceat(net, start)
    tau = np.add.reduceat(net * x, start) / total
    x -= tau[span]
    rms = np.sqrt(np.maximum(np.add.reduceat(net * x**2, start) / total, 0.0))
    return total, tau, rms


class _PeakArrays(NamedTuple):
    tau: np.ndarray
    uncertainty: np.ndarray
    peak_counts: np.ndarray
    background: np.ndarray
    code: np.ndarray


def _peaks(counts, accidentals, bin_width_ps, window_center_ps, window_halfwidth_ps):
    """The peak of each row of a ``(rows, nbins)`` count matrix, as arrays.

    ``accidentals[r]`` is row r's accidentals per bin.  ``code`` is
    ``_PEAK`` where a row has a peak, and otherwise why it has none; tau
    and uncertainty are NaN there.  A row's result is the same, bit for
    bit, whichever rows share the matrix.  See ``estimate_peak`` for the
    method.
    """
    rows, nbins = counts.shape
    tau = np.full(rows, np.nan)
    uncertainty = np.full(rows, np.nan)
    if nbins == 0:
        empty = np.full(rows, _EMPTY)
        return _PeakArrays(tau, uncertainty, np.zeros(rows, np.int64), tau.copy(), empty)
    edge = max(1, nbins // 10)
    # Integer sums over one division: the mean of the edge bins, exactly.
    background = (counts[:, :edge].sum(axis=1) + counts[:, -edge:].sum(axis=1)) / (2 * edge)
    threshold = background + 3.0 * np.sqrt(background)
    peak_bin = counts.argmax(axis=1)
    peak_counts = counts[np.arange(rows), peak_bin]
    code = np.where(peak_counts > threshold, _PEAK, _BELOW_THRESHOLD)
    mu = np.maximum(background, accidentals)
    for r in np.flatnonzero(code == _PEAK).tolist():
        if nbins * _poisson_tail(int(peak_counts[r]), float(mu[r])) >= _PEAK_FALSE_ALARM_PROB:
            code[r] = _NOT_SIGNIFICANT
    found = np.flatnonzero(code == _PEAK)
    if found.size == 0:
        return _PeakArrays(tau, uncertainty, peak_counts, background, code)

    # The seed, counts[r, left:right], is the run of above-threshold bins
    # holding the maximum.  Runs break between rows as well as at bins at
    # or below the threshold.
    above = np.flatnonzero(counts > threshold[:, np.newaxis])
    breaks = np.flatnonzero((np.diff(above) != 1) | (above[1:] % nbins == 0)) + 1
    run_starts = above[np.concatenate(([0], breaks))]
    run_stops = above[np.concatenate((breaks - 1, [above.size - 1]))] + 1
    origin = found * nbins
    run = np.searchsorted(run_starts, origin + peak_bin[found], side="right") - 1
    left, right = run_starts[run] - origin, run_stops[run] - origin

    centers = _bin_centers(window_center_ps, window_halfwidth_ps, bin_width_ps, nbins)
    bg = background[found]
    _, seed_tau, seed_rms = _centroids(counts, found, bg, centers, left, right)
    span = 4.0 * np.maximum(seed_rms, bin_width_ps)
    lo = np.searchsorted(centers, seed_tau - span, side="left")
    hi = np.searchsorted(centers, seed_tau + span, side="right")
    # The span can hold more bins under the background than the seed holds
    # above it; such a row has no net counts and no peak.
    with np.errstate(divide="ignore", invalid="ignore"):
        net_total, found_tau, rms = _centroids(counts, found, bg, centers, lo, hi)
    net = net_total > 0
    code[found[~net]] = _NO_NET_COUNTS
    found = found[net]
    tau[found] = found_tau[net]
    floor = bin_width_ps / math.sqrt(12.0)
    uncertainty[found] = np.maximum(rms[net], floor) / np.sqrt(net_total[net])
    return _PeakArrays(tau, uncertainty, peak_counts, background, code)


def _no_peak_message(code, peak_counts, background, accidentals_per_bin):
    """Why a histogram with this ``_peaks`` outcome has no peak."""
    if code == _EMPTY:
        return "empty histogram"
    if code == _BELOW_THRESHOLD:
        threshold = background + 3.0 * math.sqrt(background)
        return f"no bin above background threshold ({peak_counts} <= {threshold:.2f})"
    if code == _NOT_SIGNIFICANT:
        accidentals = max(background, accidentals_per_bin)
        return (
            f"maximum bin ({peak_counts}) not significant over "
            f"{accidentals:.3g} accidentals per bin"
        )
    return "no net counts in the peak region"


def estimate_peak(histogram):
    """Locate the coincidence peak of a correlation histogram.

    Background is the mean count of the outer 10% of bins at each window
    edge.  The contiguous region around the maximum bin whose counts exceed
    ``background + 3*sqrt(background)`` seeds a centroid; the integration
    span is then fixed at four seed RMS widths around that centroid so the
    tail cut is deterministic and the counting-statistics uncertainty
    (RMS width, floored at the single-bin quantization width, over the
    square root of the net counts) is calibrated.

    The maximum bin must also be significant: the chance that accidentals
    alone fill some bin that high (Poisson tail at the larger of the edge
    background and ``histogram.accidentals_per_bin``, times the bin count)
    must stay below ``_PEAK_FALSE_ALARM_PROB``.

    Raises NoPeakError when no bin clears the threshold, the maximum is not
    significant or the span holds no net counts, which signals a broken
    channel, a mis-centered window or a peak that left it.  This is the
    one-row case of ``_peaks``, which extracts every epoch's peak at once.
    """
    found = _peaks(
        np.asarray(histogram.counts)[np.newaxis],
        np.array([histogram.accidentals_per_bin], dtype=float),
        histogram.bin_width_ps,
        histogram.window_center_ps,
        histogram.window_halfwidth_ps,
    )
    tau, uncertainty, peak_counts, background, code = (v[0].item() for v in found)
    if code != _PEAK:
        raise NoPeakError(
            _no_peak_message(code, peak_counts, background, histogram.accidentals_per_bin)
        )
    return PeakEstimate(
        tau_ps=tau,
        uncertainty_ps=uncertainty,
        peak_counts=peak_counts,
        background_per_bin=background,
    )


def clock_difference(tau_ab_ps, tau_aba_ps):
    """Clock difference from one-way and round-trip peak positions."""
    if not (math.isfinite(tau_ab_ps) and math.isfinite(tau_aba_ps)):
        raise ConfigurationError("clock_difference requires finite inputs")
    return tau_ab_ps - tau_aba_ps / 2.0


def _acquire_one(a, b, nominal_ps, config):
    """Two-stage window search: coarse 1 ns histogram, then refined centroid."""
    halfwidth = int(round(2.0 * nominal_ps))
    coarse = build_histogram(a, b, config.coarse_bin_ps, int(round(nominal_ps)), halfwidth)
    try:
        rough = estimate_peak(coarse)
        fine = build_histogram(
            a, b, config.refine_bin_ps, int(round(rough.tau_ps)), config.refine_halfwidth_ps
        )
        refined = estimate_peak(fine)
    except NoPeakError as exc:
        raise AcquisitionError(f"coincidence peak acquisition failed: {exc}") from exc
    return int(round(refined.tau_ps))


def coarse_acquire(stream, config=None):
    """Find histogram window centers for the forward and loopback pairs.

    Searches +-2x the nominal delay around it at coarse (1 ns) binning and
    refines the winning bin with a fine centroid.  The nominal one-way
    delay is taken from the stream metadata.
    """
    config = config or EstimatorConfig()
    nominal = stream.nominal_one_way_delay_ps
    if nominal is None or not (nominal > 0):
        raise ConfigurationError("nominal one-way delay required for acquisition")

    idler = stream.times[DetectorId.IDLER_A][: config.acquire_max_events]
    signal = stream.times[DetectorId.SIGNAL_B]
    ret = stream.times[DetectorId.RETURN_A]
    if idler.size == 0 or signal.size == 0 or ret.size == 0:
        raise AcquisitionError("one or more detector streams are empty")

    forward = _acquire_one(idler, signal, nominal, config)
    loopback = _acquire_one(idler, ret, 2.0 * nominal, config)
    return AcquisitionResult(forward_center_ps=forward, loopback_center_ps=loopback)


def per_epoch_series(stream, epoch_length_s=1.0, config=None):
    """Per-epoch clock-difference series from a timestamp stream.

    Partitions records into contiguous epochs of ``epoch_length_s`` by local
    timestamp, builds all epochs' forward and loopback histograms in one
    kernel pass each (the two at once), extracts all their peaks at once,
    and emits each epoch's ``delta = tau_AB - tau_ABA/2``.  Epochs where
    either peak estimation fails are emitted as gaps.  The combined
    counting-statistics sigma of each delta is recorded alongside.
    """
    config = config or EstimatorConfig()
    if not (epoch_length_s > 0 and math.isfinite(epoch_length_s)):
        raise ConfigurationError("epoch_length_s must be > 0")
    n_epochs = int(stream.duration_s / epoch_length_s + 1e-9)
    if n_epochs < 1:
        raise ConfigurationError("stream shorter than one epoch")
    if len(stream) == 0:
        raise EmptySeriesError("stream contains no detection records")

    fwd_center, loop_center = config.forward_center_ps, config.loopback_center_ps
    if fwd_center is None or loop_center is None:
        acq = coarse_acquire(stream, config)
        fwd_center, loop_center = acq.forward_center_ps, acq.loopback_center_ps

    idler = stream.times[DetectorId.IDLER_A]
    epoch_ps = epoch_length_s * 1e12
    edges = np.rint(np.arange(n_epochs + 1) * epoch_ps).astype(np.int64)
    bw, hw = config.bin_width_ps, config.window_halfwidth_ps
    paths = ((DetectorId.SIGNAL_B, fwd_center), (DetectorId.RETURN_A, loop_center))

    def path_peaks(i):
        det, center = paths[i]
        return _peaks(*_histograms(idler, stream.times[det], edges, bw, center, hw), bw, center, hw)

    # The forward and loopback kernels share no state, so running them at
    # once changes no result.
    results = []
    _pipeline(path_peaks, len(paths), results.append)
    fwd, loop = results
    usable = (fwd.code == _PEAK) & (loop.code == _PEAK)
    if not usable.any():
        raise EmptySeriesError("no epoch produced a usable clock-difference sample")

    delta = fwd.tau - loop.tau / 2.0
    points = []
    for start, ok, tau_ab, tau_aba, d, sigma_ab, sigma_aba in zip(
        (np.arange(n_epochs) * epoch_length_s).tolist(),
        usable.tolist(),
        fwd.tau.tolist(),
        loop.tau.tolist(),
        delta.tolist(),
        fwd.uncertainty.tolist(),
        loop.uncertainty.tolist(),
    ):
        if not ok:
            points.append(ClockDifferencePoint(start, None, None, None))
            continue
        # Python's ``**`` squares with libm's pow, which for ~0.1% of values
        # rounds differently from numpy's multiply: kept, so that every
        # sigma is the same as the one-epoch formula gives.
        delta_sigma = math.sqrt(sigma_ab**2 + 0.25 * sigma_aba**2)
        points.append(
            ClockDifferencePoint(start, tau_ab, tau_aba, d, sigma_ab, sigma_aba, delta_sigma)
        )
    return ClockDifferenceSeries(epoch_length_s=epoch_length_s, points=points)
