"""Clock-difference recovery from timestamp streams.

Pairwise detection-time differences between two detectors, histogrammed
over a window, peak at the propagation delay (plus clock offset) of the
photon path connecting them.  One kernel builds the forward (IdlerA x
SignalB) or loopback (IdlerA x ReturnA) histogram of every epoch in one
pass, as an ``(epochs, bins)`` int32 count matrix; acquisition runs it as a
single epoch.  Each far-end record is searched for partners among the
idlers of its own epoch only, so a pair counts in the epoch that holds
both its records and no pair across an epoch edge is ever made; epoch
membership is an exact comparison with the edges.  Times are int64
(``simulation.timestamp_array``), window ends integer keys, and a pair's
offset in its window exact, binned as a float once.  The per-epoch series
runs the kernel on blocks of epochs, at least one per worker thread and
path when the epochs allow, each on the records inside the block's
edges, and takes a block's peaks before more blocks are counted, so no
count matrix outgrows one block.  Per epoch both peak positions tau_AB
and tau_ABA give the clock difference ``delta = tau_AB - tau_ABA / 2``.

Peak extraction is a background-subtracted centroid: the contiguous bin
region around the maximum that rises above ``background +
3*sqrt(background)`` seeds a four-RMS integration span, which is
re-centred on its own centroid until it stops moving, and the maximum
must be significant against the accidentals the singles predict.
It is deterministic, fit-free, and returns a calibrated counting-statistics
uncertainty.  One extractor finds the peaks of a block of rows of the
count matrix at once, each row's result independent of the others;
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
    number,
    store_number,
)
from . import simulation
from .simulation import MAX_TIME_PS, DetectorId, _pipeline, timestamp_array

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
        lo = self.window_center_ps - self.window_halfwidth_ps
        return _bin_centers(lo, self.bin_width_ps, self.counts.size)

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
    """Per-epoch clock-difference samples over contiguous epochs.

    ``acquisition`` holds the window centres a series estimated from a
    stream was binned with, and is None for any other series.
    """

    epoch_length_s: float
    points: List[ClockDifferencePoint]
    acquisition: Optional[AcquisitionResult] = None

    def __len__(self):
        return len(self.points)

    def _column(self, name):
        """Field ``name`` of every point as one float array, NaN where None."""
        return np.array([getattr(p, name) for p in self.points], dtype=float)

    def times(self):
        return self._column("epoch_start_s")

    def deltas(self):
        """Delta values with NaN at gap epochs."""
        return self._column("delta_ps")

    def tau_abas(self):
        return self._column("tau_aba_ps")

    def gap_count(self):
        return int(np.isnan(self.deltas()).sum())

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch_start_s,tau_ab_ps,tau_aba_ps,delta_ps\n")
            for p in self.points:
                cells = (p.epoch_start_s, p.tau_ab_ps, p.tau_aba_ps, p.delta_ps)
                fh.write(",".join("" if v is None else repr(v) for v in cells) + "\n")

    @classmethod
    def from_csv(cls, path):
        """The series a ``to_csv`` file holds.  A file that cannot be read as
        UTF-8 text, or does not hold such a series, raises
        ConfigurationError."""
        points = []
        try:
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
        except OSError as exc:
            raise ConfigurationError(f"cannot read series file {path}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"series file {path} is not UTF-8 text") from exc
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
            store_number(self, name, low=0, above=True)
        for name in ("window_halfwidth_ps", "refine_halfwidth_ps"):
            store_number(self, name, low=0, above=True, integer=True)
        # A count of idlers, which acquisition slices the stream with.
        store_number(self, "acquire_max_events", low=1, integer=True)
        # Each window must fit the time range (``_window``), one without a centre at 0.
        for name in ("forward_center_ps", "loopback_center_ps"):
            store_number(self, name, integer=True, optional=True)
            center, hw = getattr(self, name), "window_halfwidth_ps"
            names = ("bin_width_ps", name if center else hw, hw)
            _window(self.bin_width_ps, center or 0, self.window_halfwidth_ps, names)
        names = ("refine_bin_ps", "refine_halfwidth_ps", "refine_halfwidth_ps")
        _window(self.refine_bin_ps, 0, self.refine_halfwidth_ps, names)


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
# One int64 slice array is 256 kB.  The kernels' and acquisition's slice
# temporaries, two threads' worth, are most of what the estimator holds
# beyond the stream.  On 2 cores the benchmark's ``gradual3500`` peaked at
# ~231 MB with ``1 << 16``, ~223 MB with this and ~221 MB with ``1 << 14``,
# which made ``highrate_deadtime``'s acquisition 0.070 -> 0.100 s and its
# series 0.094 -> 0.099 s (medians of five in-process runs).
_B_SLICE = 1 << 15

# The count matrix is int32, exact as long as it counts no more pairs than
# this; a kernel call that would count more fails closed rather than wrap.
_MAX_COUNTED_PAIRS = np.iinfo(np.int32).max

# A window holds at most this many bins, one row of int32 counts in 64 MB,
# so a finer bin width fails closed by name, not in a raw MemoryError; the
# default 1 ns coarse search takes one-way delays up to about 4.2 ms.
_MAX_BINS = 1 << 24

# The integration span is re-centred on its own centroid until it stops
# moving, at most this many times; a span still moving then is no peak.
_RECENTRE_ROUNDS = 20

# Outcome of ``_peaks`` for one histogram: a peak, or why there is none.
(
    _PEAK,
    _BELOW_THRESHOLD,
    _NOT_SIGNIFICANT,
    _EMPTY,
    _NO_NET_COUNTS,
    _SPAN_LEFT_WINDOW,
    _SPAN_UNSETTLED,
) = range(7)


def _bin_centers(lo, bin_width_ps, nbins):
    """``lo + (k + 0.5) * bin_width_ps`` for each bin k, in one array."""
    centers = np.arange(nbins, dtype=float)
    centers += 0.5
    centers *= bin_width_ps
    centers += lo
    return centers


def _window_pairs(a, b, edges, lo, hi):
    """Times ``(t_a, t_b)`` of the pairs with ``lo <= t_b - t_a < hi``
    whose two records lie in one epoch ``[edges[k], edges[k + 1])``.

    Every record of ``b`` lies in ``[edges[0], edges[-1])``, and is searched
    into the non-empty ``a`` for its first partner, ``_B_SLICE`` records at
    a time, among the ``a`` records of its own epoch only.  One gather of
    each record's candidate and two comparisons settle its first pair, and
    a slice's records with one are yielded as one piece.  Only the records
    with a second partner are searched for their last, and their further
    pairs are yielded in pieces cut wherever their count passes a multiple
    of ``_B_SLICE``, so a piece holds at most ``_B_SLICE`` pairs plus one
    record's.  Every piece's ``t_b`` ascend.
    """
    in_epoch = np.searchsorted(a, edges)
    for start in range(0, b.size, _B_SLICE):
        bs = b[start : start + _B_SLICE]
        # The a records of epoch k are [in_epoch[k], in_epoch[k + 1]): each
        # record's search starts no lower, and ends below ``upper``.
        runs = np.diff(np.searchsorted(bs, edges))
        first = np.searchsorted(a, bs - hi, side="right")
        np.maximum(first, np.repeat(in_epoch[:-1], runs), out=first)
        upper = np.repeat(in_epoch[1:], runs)
        stop = bs - lo
        # A clipped gather reads a[-1] past the end, where first < upper fails.
        ta = a.take(first, mode="clip")
        one = (first < upper) & (ta <= stop)
        if one.any():
            yield np.compress(one, ta), np.compress(one, bs)
        first += 1
        more = np.flatnonzero(one & (first < upper) & (a.take(first, mode="clip") <= stop))
        # Record more[j]'s further partners run from first[j] to its end;
        # those of records [j0, j1) of ``more`` are pairs [bounds[j0], bounds[j1]).
        first = first[more]
        n = np.minimum(np.searchsorted(a, stop[more], side="right"), upper[more]) - first
        bounds = np.concatenate(([0], np.cumsum(n)))
        offset = first - bounds[:-1]
        cuts = np.searchsorted(
            bounds[1:], np.arange(_B_SLICE, bounds[-1], _B_SLICE), side="right"
        ).tolist()
        for j0, j1 in zip([0] + cuts, cuts + [more.size]):
            if bounds[j1] == bounds[j0]:
                continue
            ai = np.arange(bounds[j0], bounds[j1])
            ai += np.repeat(offset[j0:j1], n[j0:j1])
            yield a[ai], np.repeat(bs[more[j0:j1]], n[j0:j1])


_WINDOW_NAMES = ("bin_width_ps", "window_center_ps", "window_halfwidth_ps")


def _window(bin_width_ps, window_center_ps, window_halfwidth_ps, names=_WINDOW_NAMES):
    """``(lo, nbins, hi)`` in exact integer ps from an integer centre and
    halfwidth: ``lo = centre - halfwidth`` and ``hi = lo + ceil(nbins *
    bin_width_ps)``, so an integer d lies in the window exactly when ``lo <=
    d < hi``.  Else a ConfigurationError names, from ``names``, the halfwidth
    (too wide, or below a bin), bin width (over ``_MAX_BINS`` bins) or centre
    (an end beyond ``MAX_TIME_PS``)."""
    bw_name, center_name, hw_name = names
    if window_halfwidth_ps > MAX_TIME_PS:
        raise ConfigurationError(f"{hw_name} makes a window wider than 2**62 ps")
    bins = 2.0 * window_halfwidth_ps / bin_width_ps
    # Compared before it is rounded, which an infinite quotient would not survive.
    if not bins <= _MAX_BINS:
        raise ConfigurationError(f"{bw_name} makes a window of more than 2**24 bins")
    nbins = int(round(bins))
    if nbins < 1:
        raise ConfigurationError(f"{hw_name} makes a window narrower than one bin")
    lo = window_center_ps - window_halfwidth_ps
    hi = lo + math.ceil(nbins * bin_width_ps)
    if not (-MAX_TIME_PS <= lo and hi <= MAX_TIME_PS):
        raise ConfigurationError(f"{center_name} puts a window end beyond +-2**62 ps")
    return lo, nbins, hi


def _histograms(a, b, edges, bin_width_ps, window):
    """Correlation histograms of ``t_b - t_a``, one per epoch ``[edges[k], edges[k+1])``.

    Returns the ``(n_epochs, nbins)`` int32 count matrix and the
    accidentals per bin that each epoch's singles predict; ``edges`` may be
    any ascending grid.  ``_window_pairs`` makes only the pairs whose two
    records lie in one epoch, each slice's first pairs in one piece and its
    further pairs in others; a piece's ``b`` records ascend, so the edges
    cut it into one run of pairs per epoch, found by one search per edge.
    ``window`` is a ``_window``: a pair counts when its exact int64
    difference d lies in ``[lo, hi)``, and is binned from ``d - lo``.  The
    bin index of every pair is computed at once, and each epoch's row
    offset is added to its run, so ``np.add.at`` adds each piece straight
    into all epochs' counts.  No bin can exceed the pairs counted, so a
    running total above ``_MAX_COUNTED_PAIRS`` raises ContractViolation
    before a count wraps.
    """
    lo, nbins, hi = window
    singles = np.diff(np.searchsorted(a, edges)) * np.diff(np.searchsorted(b, edges))
    accidentals = singles * bin_width_ps / np.diff(edges)
    n_epochs = edges.size - 1
    counts = np.zeros(n_epochs * nbins, dtype=np.int32)
    if a.size == 0:
        return counts.reshape(n_epochs, nbins), accidentals
    # Only the b records inside the grid can count, and only those within
    # the window of some a record can pair: each one left has an epoch.
    first, stop = max(edges[0], a[0] + lo), min(edges[-1], a[-1] + hi)
    b = b[np.searchsorted(b, first) : np.searchsorted(b, stop)]
    counted = 0
    for ta, tb in _window_pairs(a, b, edges, lo, hi):
        counted += ta.size
        if counted > _MAX_COUNTED_PAIRS:
            raise ContractViolation(
                f"more than {_MAX_COUNTED_PAIRS} pairs in one histogram kernel: "
                "its int32 counts could wrap"
            )
        # floor((tb - ta - lo) / bin_width_ps), from the exact int64
        # tb - ta - lo, cast in place: element k is read before it is written.
        d = np.subtract(tb, ta)
        d -= lo
        np.copyto(d.view(float), d, casting="unsafe")
        d = d.view(float)
        d /= bin_width_ps
        cells = np.floor(d, out=d).astype(np.int64)
        del d
        np.clip(cells, 0, nbins - 1, out=cells)
        # tb ascends within [edges[0], edges[-1]), so each epoch's pairs
        # are the run between its edges' positions in the piece.
        cells += np.repeat(np.arange(n_epochs) * nbins, np.diff(np.searchsorted(tb, edges)))
        # A one of the counts' own dtype keeps numpy on its fast path, which
        # casts nothing; the piece makes no counts of its own.
        np.add.at(counts, cells, np.int32(1))
        del cells
    return counts.reshape(n_epochs, nbins), accidentals


def build_histogram(a, b, bin_width_ps, window_center_ps, window_halfwidth_ps):
    """Histogram of ordered time differences ``t_b - t_a`` within a window.

    Both inputs pass ``simulation.timestamp_array``, as a stream's times
    do, named ``a`` and ``b``.  This is the one-epoch case of the
    per-epoch kernel: only the ``b`` records within the window of some
    ``a`` record are searched, so the cost follows ``a``, not ``b``.  The
    bin width must be finite and > 0, the centre an integer and the
    halfwidth an integer > 0, and the window must fit the time range and
    ``_MAX_BINS`` (``_window``).
    """
    bin_width_ps = number("bin_width_ps", bin_width_ps, low=0, above=True)
    center = number("window_center_ps", window_center_ps, integer=True)
    halfwidth = number("window_halfwidth_ps", window_halfwidth_ps, low=0, above=True, integer=True)
    a = timestamp_array(a, "a")
    b = timestamp_array(b, "b")
    window = _window(bin_width_ps, center, halfwidth)
    return _one_epoch_histogram(a, b, bin_width_ps, center, halfwidth, window)


def _one_epoch_histogram(a, b, bin_width_ps, window_center_ps, window_halfwidth_ps, window):
    """``build_histogram`` of arrays already known to ascend, with valid
    arguments and their ``_window``: acquisition's far streams were checked
    by ``TimestampStream``."""
    # One epoch over both inputs' time span, the span of their singles rates.
    ends = np.concatenate((a[:1], a[-1:], b[:1], b[-1:]))
    edges = np.array([ends.min(), ends.max() + 1]) if ends.size else np.array([0, 1])
    counts, accidentals = _histograms(a, b, edges, bin_width_ps, window)
    return CorrelationHistogram(
        bin_width_ps, window_center_ps, window_halfwidth_ps, counts[0], float(accidentals[0])
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


def _peaks(counts, accidentals, bin_width_ps, lo):
    """The peak of each row of a ``(rows, nbins)`` count matrix, as arrays.

    Bin k spans ``[lo + k*bin_width_ps, lo + (k+1)*bin_width_ps)``, and
    ``accidentals[r]`` is row r's accidentals per bin.  ``code`` is
    ``_PEAK`` where a row has a peak, and otherwise why it has none; tau
    and uncertainty are NaN there.  A row's result is the same, bit for
    bit, whichever rows share the matrix, so a long matrix can be passed in
    row blocks whose results are concatenated; integer counts of any width
    give the same result.  See ``estimate_peak`` for the method.
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

    centers = _bin_centers(lo, bin_width_ps, nbins)
    bg = background[found]
    _, span_tau, span_rms = _centroids(counts, found, bg, centers, left, right)
    first, stop = _span(centers, span_tau, span_rms, bin_width_ps)
    floor = bin_width_ps / math.sqrt(12.0)
    # Each round takes the centroid of every unsettled row's span, and a row
    # whose span that centroid reproduces has its peak.  The seed can be a
    # fragment cut off the peak by one empty bin, and its span then lies off
    # the peak's centre; re-centring walks it onto the peak.
    prev_first = prev_stop = np.full(found.size, -1)
    final = np.zeros(found.size, dtype=bool)
    for _ in range(_RECENTRE_ROUNDS):
        # A span can hold more bins under the background than above it;
        # such a row has no net counts and no peak.
        with np.errstate(divide="ignore", invalid="ignore"):
            net_total, span_tau, span_rms = _centroids(counts, found, bg, centers, first, stop)
        net = net_total > 0
        code[found[~net]] = _NO_NET_COUNTS
        next_first, next_stop = _span(centers, span_tau, span_rms, bin_width_ps)
        settled = net & (final | ((next_first == first) & (next_stop == stop)))
        tau[found[settled]] = span_tau[settled]
        rms = np.maximum(span_rms[settled], floor)
        uncertainty[found[settled]] = rms / np.sqrt(net_total[settled])
        # A centroid that sends its row back to the previous span sits on the
        # edge between two spans; the row takes the centroid of their union.
        final = (next_first == prev_first) & (next_stop == prev_stop)
        next_first = np.where(final, np.minimum(first, next_first), next_first)
        next_stop = np.where(final, np.maximum(stop, next_stop), next_stop)
        moving = net & ~settled
        left_window = moving & (next_first >= next_stop)
        code[found[left_window]] = _SPAN_LEFT_WINDOW
        moving &= ~left_window
        found, bg, final = found[moving], bg[moving], final[moving]
        prev_first, prev_stop = first[moving], stop[moving]
        first, stop = next_first[moving], next_stop[moving]
        if found.size == 0:
            break
    code[found] = _SPAN_UNSETTLED
    return _PeakArrays(tau, uncertainty, peak_counts, background, code)


def _span(centers, tau, rms, bin_width_ps):
    """Bins ``[first, stop)`` whose centres lie within four RMS widths, and at
    least four bin widths, of each ``tau``."""
    half = 4.0 * np.maximum(rms, bin_width_ps)
    return (
        np.searchsorted(centers, tau - half, side="left"),
        np.searchsorted(centers, tau + half, side="right"),
    )


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
    if code == _SPAN_LEFT_WINDOW:
        return "peak span left the window while re-centring"
    if code == _SPAN_UNSETTLED:
        return f"peak span still moving after {_RECENTRE_ROUNDS} re-centring rounds"
    return "no net counts in the peak region"


def estimate_peak(histogram):
    """Locate the coincidence peak of a correlation histogram.

    Background is the mean count of the outer 10% of bins at each window
    edge.  The contiguous region around the maximum bin whose counts exceed
    ``background + 3*sqrt(background)`` seeds a centroid, and the
    integration span starts at four seed RMS widths (at least four bin
    widths) around it.  The span is then re-centred on its own centroid,
    with four of its own RMS widths, until that centroid reproduces it; a
    centroid that sends it back to its previous span settles on the union
    of the two.  So a seed cut off the peak's flank by one empty bin still
    finds the peak's centre, the tail cut is deterministic, and the
    counting-statistics uncertainty (RMS width, floored at the single-bin
    quantization width, over the square root of the net counts) is
    calibrated.

    The maximum bin must also be significant: the chance that accidentals
    alone fill some bin that high (Poisson tail at the larger of the edge
    background and ``histogram.accidentals_per_bin``, times the bin count)
    must stay below ``_PEAK_FALSE_ALARM_PROB``.

    Raises NoPeakError when no bin clears the threshold, the maximum is not
    significant, a span holds no net counts, leaves the window or still
    moves after ``_RECENTRE_ROUNDS`` rounds, which signals a broken
    channel, a mis-centered window or a peak that left it.  This is the
    one-row case of ``_peaks``, which extracts every epoch's peak at once.
    """
    found = _peaks(
        np.asarray(histogram.counts)[np.newaxis],
        np.array([histogram.accidentals_per_bin], dtype=float),
        histogram.bin_width_ps,
        histogram.window_center_ps - histogram.window_halfwidth_ps,
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
    return number("tau_ab_ps", tau_ab_ps) - number("tau_aba_ps", tau_aba_ps) / 2.0


def _coarse_window(nominal_ps, config):
    """Bin width, centre and halfwidth of the coarse search around
    ``nominal_ps``, and the names ``_window`` refuses them by."""
    names = ("coarse_bin_ps",) + ("nominal_one_way_delay_ps",) * 2
    return config.coarse_bin_ps, int(round(nominal_ps)), int(round(2.0 * nominal_ps)), names


def _reached_histogram(a, b, bin_width_ps, center, halfwidth, names=_WINDOW_NAMES):
    """The one-epoch histogram of the idlers ``a`` and of the far records
    ``b`` that could pair with one of them, those within ``[a[0] + lo,
    a[-1] + hi)`` of the window.  A far record beyond that reach would
    count only as a single, and make the accidentals depend on how much of
    the far stream follows the idlers."""
    window = _window(bin_width_ps, center, halfwidth, names)
    b = b[np.searchsorted(b, a[0] + window[0]) : np.searchsorted(b, a[-1] + window[2])]
    return _one_epoch_histogram(a, b, bin_width_ps, center, halfwidth, window)


def _acquire_one(a, b, nominal_ps, config):
    """Two-stage window search: coarse 1 ns histogram, then refined centroid."""
    coarse = _reached_histogram(a, b, *_coarse_window(nominal_ps, config))
    try:
        rough = estimate_peak(coarse)
        fine = _reached_histogram(
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
    delay is taken from the stream metadata.  A centre that ``config``
    sets is returned as set, and its path is not searched: with both set,
    neither the nominal delay nor the streams are read.
    """
    config = config or EstimatorConfig()
    centers = [config.forward_center_ps, config.loopback_center_ps]
    if None not in centers:
        return AcquisitionResult(*centers)
    nominal = stream.nominal_one_way_delay_ps
    if nominal is None or not (nominal > 0):
        raise ConfigurationError("nominal one-way delay required for acquisition")

    idler = stream.times[DetectorId.IDLER_A][: config.acquire_max_events]
    far_detectors = (DetectorId.SIGNAL_B, DetectorId.RETURN_A)
    searches = [
        (hops - 1, stream.times[far_detectors[hops - 1]], hops * nominal)
        for hops in _searched_hops(config)
    ]
    if idler.size == 0 or any(far.size == 0 for _, far, _ in searches):
        raise AcquisitionError("one or more detector streams are empty")

    # The forward and loopback searches share no state, so running them at
    # once changes no result; a forward failure is still the one raised.
    found = []
    _pipeline(lambda k: _acquire_one(idler, *searches[k][1:], config), len(searches), found.append)
    for (i, _, _), center in zip(searches, found):
        centers[i] = center
    return AcquisitionResult(*centers)


def acquisition_reach(stream, config=None):
    """The local time, ps, below which ``coarse_acquire`` finds every record
    it reads from ``stream``: the windows of its last idler on each path it
    searches, the refined window, centred within the coarse one, included.
    Infinite when the stream holds fewer idlers than acquisition reads,
    since it then reads every one.  Any stream that holds a stream's
    records below its reach acquires as that stream does."""
    config = config or EstimatorConfig()
    if not _searched_hops(config):
        return -math.inf
    idler = stream.times[DetectorId.IDLER_A]
    nominal = stream.nominal_one_way_delay_ps
    if nominal is None or idler.size < config.acquire_max_events:
        return math.inf
    refined = config.refine_halfwidth_ps + math.ceil(config.refine_bin_ps)
    return int(idler[config.acquire_max_events - 1]) + coarse_reach(nominal, config) + refined


def _searched_hops(config):
    """The hops of the paths whose centre acquisition searches, those that
    ``config`` leaves unset: 1 for the forward path, 2 for the loopback."""
    centers = (config.forward_center_ps, config.loopback_center_ps)
    return [hops for hops, center in enumerate(centers, 1) if center is None]


def coarse_reach(nominal_ps, config):
    """How far past an idler, ps, the coarse windows of the paths that
    acquisition searches reach at a nominal one-way delay ``nominal_ps``:
    the largest window end, or -inf when ``config`` sets both centres.  A
    window that ``_window`` refuses raises its ConfigurationError."""
    ends = [_window(*_coarse_window(h * nominal_ps, config))[2] for h in _searched_hops(config)]
    return max(ends, default=-math.inf)


def epoch_count(duration_s, epoch_s):
    """Whole epochs of ``epoch_s`` in a run of ``duration_s`` seconds; a
    duration within rounding of a whole number of epochs counts in full."""
    return int(duration_s / epoch_s + 1e-9)


def epoch_edges(first, last, epoch_length_s):
    """The edges of a run's epochs ``first`` to ``last``, both included, in
    integer ps: ``rint(k * epoch_ps)`` for each epoch index ``k`` of the run,
    so every block of epochs has the whole run's edges."""
    return np.rint(np.arange(first, last + 1) * (epoch_length_s * 1e12)).astype(np.int64)


def joined_series(parts):
    """The series of a run estimated a block of epochs at a time, from its
    blocks' series ``parts`` in order.  Raises EmptySeriesError, as
    ``per_epoch_series`` does for a whole run, when no epoch is usable."""
    points = [p for part in parts for p in part.points]
    if all(p.is_gap for p in points):
        raise EmptySeriesError("no epoch produced a usable clock-difference sample")
    return ClockDifferenceSeries(parts[0].epoch_length_s, points, parts[0].acquisition)


def per_epoch_series(stream, epoch_length_s=1.0, config=None, epochs=None):
    """Per-epoch clock-difference series from a timestamp stream.

    Partitions records into contiguous epochs of ``epoch_length_s`` by local
    timestamp, builds the forward and loopback histograms in blocks of
    epochs, ``simulation._WORKERS`` blocks or more per path (one per epoch
    when there are fewer epochs) and that many at once, extracts each
    block's peaks before more blocks are counted, and emits each epoch's
    ``delta = tau_AB - tau_ABA/2``.  Epochs where either peak estimation
    fails are emitted as gaps.  The combined counting-statistics sigma of
    each delta is recorded alongside, and the acquired window centres as
    the series' ``acquisition``.

    ``epochs``, a range of the run's epoch indices (all of them when None),
    estimates only those, from a stream that holds every record within
    their edges: one block of a run estimated a block at a time.  Each
    epoch's edges and start come from its index in the run (see
    ``epoch_edges``), so the blocks' series, joined, are the whole run's.
    The run's errors, a stream without records and a series without a
    usable epoch (EmptySeriesError), are raised only when ``epochs`` spans
    the run; a block leaves them to ``joined_series``.
    """
    config = config or EstimatorConfig()
    epoch_length_s = number("epoch_length_s", epoch_length_s, low=0, above=True)
    n_epochs = epoch_count(stream.duration_s, epoch_length_s)
    if n_epochs < 1:
        raise ConfigurationError("stream shorter than one epoch")
    epochs = range(n_epochs) if epochs is None else epochs
    in_run = isinstance(epochs, range) and 0 <= epochs.start < epochs.stop <= n_epochs
    if not (in_run and epochs.step == 1):
        raise ConfigurationError(
            f"epochs must be a non-empty range of the run's {n_epochs} epochs, not {epochs!r}"
        )
    whole = len(epochs) == n_epochs
    if whole and len(stream) == 0:
        raise EmptySeriesError("stream contains no detection records")

    acq = coarse_acquire(stream, config)
    idler = stream.times[DetectorId.IDLER_A]
    rows = len(epochs)
    edges = epoch_edges(epochs.start, epochs.stop, epoch_length_s)
    bw, hw = config.bin_width_ps, config.window_halfwidth_ps
    fwd_window = _window(bw, acq.forward_center_ps, hw)
    loop_window = _window(bw, acq.loopback_center_ps, hw)
    paths = ((DetectorId.SIGNAL_B, fwd_window), (DetectorId.RETURN_A, loop_window))

    # Blocks of rows holding at most about eight kernel slices of bins (262
    # epochs of the default 1000 bins), and at least ``_WORKERS`` blocks per
    # path when there are that many epochs, so that every worker counts a
    # block of the forward path, the longer one, rather than one counting
    # it while the others wait.  Block sizes differ by one row at most.  A
    # pair counts only when both its records lie in one epoch, so the
    # records inside a block's edges give that block's rows exactly, and
    # each block's peaks are taken as soon as it is counted, on the thread
    # that counted it: at most ``_WORKERS`` count matrices exist at once,
    # and ``_pipeline`` holds at most ``_WORKERS + 1`` blocks' peaks before
    # it hands them on, so the counts and the temporaries of ``_peaks`` stay
    # bounded however many epochs there are.
    cap = max(1, 8 * _B_SLICE // fwd_window[1])
    n_blocks = max(-(-rows // cap), min(rows, simulation._WORKERS))
    starts = [block * rows // n_blocks for block in range(n_blocks + 1)]

    def block_peaks(task):
        """Path ``task // n_blocks``'s peaks in row block ``task % n_blocks``."""
        path, block = divmod(task, n_blocks)
        det, window = paths[path]
        far = stream.times[det]
        block_edges = edges[starts[block] : starts[block + 1] + 1]
        ends = block_edges[[0, -1]]
        a = idler[slice(*np.searchsorted(idler, ends))]
        b = far[slice(*np.searchsorted(far, ends))]
        counts, accidentals = _histograms(a, b, block_edges, bw, window)
        return path, _peaks(counts, accidentals, bw, window[0])

    # Blocks share no state, so running several at once changes no result.
    # Both paths' blocks are one task list, consumed in order, so the
    # workers run blocks of one path side by side.
    blocks = ([], [])
    _pipeline(block_peaks, len(paths) * n_blocks, lambda done: blocks[done[0]].append(done[1]))
    fwd, loop = (_PeakArrays(*map(np.concatenate, zip(*path))) for path in blocks)
    usable = (fwd.code == _PEAK) & (loop.code == _PEAK)
    delta = fwd.tau - loop.tau / 2.0
    points = []
    for start, ok, tau_ab, tau_aba, d, sigma_ab, sigma_aba in zip(
        (np.arange(epochs.start, epochs.stop) * epoch_length_s).tolist(),
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
    series = ClockDifferenceSeries(epoch_length_s, points, acq)
    return joined_series([series]) if whole else series
