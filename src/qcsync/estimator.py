"""Clock-difference recovery from timestamp streams.

Pairwise detection-time differences between two detectors, histogrammed
over a window, peak at the propagation delay (plus clock offset) of the
photon path connecting them.  Per analysis epoch this module builds the
forward (IdlerA x SignalB) and loopback (IdlerA x ReturnA) coincidence
histograms, extracts both peak positions tau_AB and tau_ABA, and emits the
clock difference ``delta = tau_AB - tau_ABA / 2``.

Peak extraction is a background-subtracted centroid: the contiguous bin
region around the maximum that rises above ``background +
3*sqrt(background)`` seeds a fixed four-RMS integration span.  It is
deterministic, fit-free, and returns a calibrated counting-statistics
uncertainty.  Epochs where either peak cannot be found become explicit
gaps rather than fabricated values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    in absolute time-difference coordinates.
    """

    bin_width_ps: float
    window_center_ps: int
    window_halfwidth_ps: int
    counts: np.ndarray

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
                values = (float(c) if c else None for c in cells[1:])
                points.append(ClockDifferencePoint(float(cells[0]), *values))
        if len(points) < 2:
            epoch = 1.0
        else:
            epoch = points[1].epoch_start_s - points[0].epoch_start_s
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
        bin_width_ok = self.bin_width_ps > 0 and math.isfinite(self.bin_width_ps)
        if not (bin_width_ok and self.window_halfwidth_ps > 0):
            raise ConfigurationError("histogram parameters must be finite and positive")
        if not all(w > 0 and math.isfinite(w) for w in (self.coarse_bin_ps, self.refine_bin_ps)):
            raise ConfigurationError("acquisition bin widths must be finite and positive")
        if not (self.refine_halfwidth_ps > 0 and self.acquire_max_events > 0):
            raise ConfigurationError("acquisition parameters must be positive")


@dataclass(frozen=True)
class AcquisitionResult:
    forward_center_ps: int
    loopback_center_ps: int


def _check_sorted(name, arr):
    if arr.size > 1 and np.any(np.diff(arr) < 0):
        raise ContractViolation(f"{name} timestamps must be sorted ascending")


def _window_pair_indices(a, b, lo_ps, hi_ps):
    """Index arrays (ai, bj) of ordered pairs with b[j]-a[i] in [lo, hi)."""
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


def build_histogram(a, b, bin_width_ps, window_center_ps, window_halfwidth_ps):
    """Histogram of ordered time differences ``t_b - t_a`` within a window.

    Both inputs must be sorted ascending; the sweep enumerates only pairs
    whose difference falls inside the window, so cost is linear in the
    number of in-window pairs (plus the merge of the two sorted streams).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if bin_width_ps <= 0 or window_halfwidth_ps <= 0:
        raise ConfigurationError("bin width and window halfwidth must be positive")
    _check_sorted("a", a)
    _check_sorted("b", b)

    nbins = int(round(2.0 * window_halfwidth_ps / bin_width_ps))
    if nbins < 1:
        raise ConfigurationError("window narrower than one bin")
    lo = float(window_center_ps) - float(window_halfwidth_ps)
    span = nbins * float(bin_width_ps)

    ai, bj = _window_pair_indices(a, b, lo, lo + span)
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


def estimate_peak(histogram):
    """Locate the coincidence peak of a correlation histogram.

    Background is the mean count of the outer 10% of bins at each window
    edge.  The contiguous region around the maximum bin whose counts exceed
    ``background + 3*sqrt(background)`` seeds a centroid; the integration
    span is then fixed at four seed RMS widths around that centroid so the
    tail cut is deterministic and the counting-statistics uncertainty
    (RMS width, floored at the single-bin quantization width, over the
    square root of the net counts) is calibrated.

    Raises NoPeakError when no bin clears the threshold, which signals a
    broken channel or a mis-centered window.
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

    span = 4.0 * max(seed_rms, histogram.bin_width_ps)
    lo = int(np.searchsorted(centers, seed_tau - span, side="left"))
    hi = int(np.searchsorted(centers, seed_tau + span, side="right"))
    net = counts[lo:hi].astype(float) - background
    net_total = float(net.sum())
    if net_total <= 0:  # pragma: no cover - span always contains the seed
        raise NoPeakError("no net counts in the peak region")
    tau = float(np.dot(net, centers[lo:hi]) / net_total)
    rms = math.sqrt(max(float(np.dot(net, (centers[lo:hi] - tau) ** 2) / net_total), 0.0))
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


def coarse_acquire(stream, config=None, nominal_one_way_delay_ps=None):
    """Find histogram window centers for the forward and loopback pairs.

    Searches +-2x the nominal delay around it at coarse (1 ns) binning and
    refines the winning bin with a fine centroid.  The nominal one-way
    delay is taken from the stream metadata unless given explicitly.
    """
    config = config or EstimatorConfig()
    nominal = nominal_one_way_delay_ps or stream.nominal_one_way_delay_ps
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
    timestamp, builds the forward and loopback histograms per epoch,
    extracts both peaks and emits ``delta = tau_AB - tau_ABA/2``.  Epochs
    where either peak estimation fails are emitted as gaps.  The combined
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

    if config.forward_center_ps is None or config.loopback_center_ps is None:
        acq = coarse_acquire(stream, config)
        config = replace(
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
    usable = 0
    for k in range(n_epochs):
        epoch_start = k * epoch_length_s
        a = idler[idler_idx[k] : idler_idx[k + 1]]
        f = signal[signal_idx[k] : signal_idx[k + 1]]
        r = ret[ret_idx[k] : ret_idx[k + 1]]
        try:
            fwd_hist = build_histogram(
                a, f, config.bin_width_ps, config.forward_center_ps, config.window_halfwidth_ps
            )
            loop_hist = build_histogram(
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
        usable += 1

    if usable == 0:
        raise EmptySeriesError("no epoch produced a usable clock-difference sample")
    return ClockDifferenceSeries(epoch_length_s=epoch_length_s, points=points)
