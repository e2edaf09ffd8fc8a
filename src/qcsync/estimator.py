"""Clock-difference recovery from timestamp streams.

Pairwise detection-time differences between two detectors, histogrammed
over a window, peak at the propagation delay (plus clock offset) of the
photon path connecting them.  One kernel builds the forward (IdlerA x
SignalB) or loopback (IdlerA x ReturnA) histogram of every epoch in one
pass; acquisition runs it as a single epoch.  Per epoch both peak positions
tau_AB and tau_ABA give the clock difference ``delta = tau_AB - tau_ABA / 2``.

Peak extraction is a background-subtracted centroid: the contiguous bin
region around the maximum that rises above ``background +
3*sqrt(background)`` seeds a fixed four-RMS integration span, and the
maximum must be significant against the accidentals the singles predict.
It is deterministic, fit-free, and returns a calibrated counting-statistics
uncertainty.  Epochs where either peak cannot be found become explicit
gaps rather than fabricated values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import (
    AcquisitionError,
    ConfigurationError,
    ContractViolation,
    EmptySeriesError,
    NoPeakError,
)
from .simulation import DetectorId

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
        return lo + (np.arange(self.counts.size) + 0.5) * self.bin_width_ps

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

# The histogram kernel pairs the ``b`` records in slices of this many, so
# its temporaries stay slice-sized however long the stream is; the counts
# of all slices add up to the same histograms.
_B_SLICE = 1 << 16


def _check_sorted(name, arr):
    if np.any(arr[1:] < arr[:-1]):
        raise ContractViolation(f"{name} timestamps must be sorted ascending")


def _histograms(a, b, edges, bin_width_ps, window_center_ps, window_halfwidth_ps):
    """Correlation histograms of ``t_b - t_a``, one per epoch ``[edges[k], edges[k+1])``.

    A pair counts only in the epoch holding both of its records.  Each
    record of the sparser ``b`` is searched into ``a`` for its in-window
    partners, ``_B_SLICE`` records of ``b`` at a time; a ``bincount`` over
    ``epoch * nbins + bin`` adds each slice's pairs into all epochs' counts.
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
    # Accidentals per bin that each epoch's singles predict.
    singles = np.diff(np.searchsorted(a, edges)) * np.diff(np.searchsorted(b, edges))
    accidentals = singles * bin_width_ps / np.diff(edges)
    if a.size:
        # Only the b records within the window of some a record can pair.
        b = b[np.searchsorted(b, a[0] + lo_key) : np.searchsorted(b, a[-1] + hi_key)]
    n_epochs = edges.size - 1
    counts = np.zeros(n_epochs * nbins, dtype=np.int64)
    for start in range(0, b.size, _B_SLICE):
        bs = b[start : start + _B_SLICE]
        first = np.searchsorted(a, bs - hi_key, side="right")
        n = np.searchsorted(a, bs - lo_key, side="right") - first
        bj = np.repeat(np.arange(bs.size), n)
        ai = np.arange(bj.size) + np.repeat(first - (np.cumsum(n) - n), n)
        epoch = np.searchsorted(edges, a[ai], side="right") - 1
        same = epoch == np.searchsorted(edges, bs[bj], side="right") - 1
        keep = same & (epoch >= 0) & (epoch < n_epochs)
        if not keep.any():
            continue
        ai, bj, epoch = ai[keep], bj[keep], epoch[keep]
        d = bs[bj].astype(float) - a[ai].astype(float)
        k = np.floor((d - lo) / bin_width_ps).astype(np.int64)
        np.clip(k, 0, nbins - 1, out=k)
        # The slice's pairs span a few epochs: count only that stretch.
        offset = int(epoch.min()) * nbins
        slice_counts = np.bincount(epoch * nbins + k - offset)
        counts[offset : offset + slice_counts.size] += slice_counts
    return [
        CorrelationHistogram(
            float(bin_width_ps), int(window_center_ps), int(window_halfwidth_ps), row, float(mu)
        )
        for row, mu in zip(counts.reshape(n_epochs, nbins), accidentals)
    ]


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
    return _histograms(a, b, edges, bin_width_ps, window_center_ps, window_halfwidth_ps)[0]


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


def _centroid(counts, background, centers, lo, hi):
    """Net total, centroid and RMS width of ``counts[lo:hi]`` above ``background``."""
    net = counts[lo:hi].astype(float) - background
    total = float(net.sum())
    if total <= 0:  # pragma: no cover - the seed is above background, the span holds it
        raise NoPeakError("no net counts in the peak region")
    tau = float(np.dot(net, centers[lo:hi]) / total)
    rms = math.sqrt(max(float(np.dot(net, (centers[lo:hi] - tau) ** 2) / total), 0.0))
    return total, tau, rms


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

    Raises NoPeakError when no bin clears the threshold or the maximum is
    not significant, which signals a broken channel, a mis-centered window
    or a peak that left it.
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

    # The seed, counts[left:right], runs between the nearest bins at or below
    # the threshold on each side of the maximum (which is above it).
    low = np.flatnonzero(counts <= threshold)
    i = int(np.searchsorted(low, peak_bin))
    left = int(low[i - 1]) + 1 if i > 0 else 0
    right = int(low[i]) if i < low.size else nbins

    centers = histogram.bin_centers()
    _, seed_tau, seed_rms = _centroid(counts, background, centers, left, right)
    span = 4.0 * max(seed_rms, histogram.bin_width_ps)
    lo = int(np.searchsorted(centers, seed_tau - span, side="left"))
    hi = int(np.searchsorted(centers, seed_tau + span, side="right"))
    net_total, tau, rms = _centroid(counts, background, centers, lo, hi)
    floor = histogram.bin_width_ps / math.sqrt(12.0)
    uncertainty = max(rms, floor) / math.sqrt(net_total)
    return PeakEstimate(
        tau_ps=tau,
        uncertainty_ps=uncertainty,
        peak_counts=int(counts[peak_bin]),
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
    kernel pass each, and emits each epoch's ``delta = tau_AB - tau_ABA/2``.
    Epochs where either peak estimation fails are emitted as gaps.  The
    combined counting-statistics sigma of each delta is recorded alongside.
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
    forward = _histograms(idler, stream.times[DetectorId.SIGNAL_B], edges, bw, fwd_center, hw)
    loopback = _histograms(idler, stream.times[DetectorId.RETURN_A], edges, bw, loop_center, hw)

    points = []
    usable = 0
    for k, (fwd_hist, loop_hist) in enumerate(zip(forward, loopback)):
        epoch_start = k * epoch_length_s
        try:
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
        usable += 1

    if usable == 0:
        raise EmptySeriesError("no epoch produced a usable clock-difference sample")
    return ClockDifferenceSeries(epoch_length_s=epoch_length_s, points=points)
