"""Baseline countermeasures: threshold monitoring and a CUSUM drift detector.

Threshold monitoring flags any epoch whose clock difference deviates from a
calibration-window baseline by more than a fixed amount (by default four
times the scatter of that window); it is the mitigation that bounds how
much clock drift an attack can cause, but small steps and slow ramps sail
under it.  The two-sided CUSUM on per-epoch increments accumulates
evidence of a persistent drift and catches the slow ramps the threshold
misses.  Scoring compares alarms against the known attack onset of a
simulated scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ConfigurationError, number, store_number

__all__ = [
    "ThresholdConfig",
    "CusumConfig",
    "AlarmKind",
    "Alarm",
    "DetectionScore",
    "threshold_monitor",
    "cusum_drift",
    "collect_alarms",
    "score",
    "write_alarms_csv",
]


class AlarmKind(str, Enum):
    THRESHOLD = "threshold"
    DRIFT = "drift"


@dataclass(frozen=True)
class ThresholdConfig:
    """Threshold monitor settings.

    ``threshold_ps`` None sets the level to four times the std of the
    calibration window (1 ps if that window has no scatter).
    """

    baseline_window_epochs: int = 60
    threshold_ps: Optional[float] = None

    def __post_init__(self):
        store_number(self, "baseline_window_epochs", low=10, integer=True)
        store_number(self, "threshold_ps", low=0, above=True, optional=True)


@dataclass(frozen=True)
class CusumConfig:
    """Two-sided CUSUM on per-epoch increments.

    ``reference_drift_ps`` (k) is the per-epoch drift magnitude tolerated
    without accumulating; ``decision_limit_ps`` (h) is the alarm level.
    """

    reference_drift_ps: float = 0.05
    decision_limit_ps: float = 25.0

    def __post_init__(self):
        store_number(self, "reference_drift_ps", low=0)
        store_number(self, "decision_limit_ps", low=0, above=True)


@dataclass(frozen=True)
class Alarm:
    epoch_start_s: float
    kind: AlarmKind
    magnitude_ps: float


@dataclass(frozen=True)
class DetectionScore:
    detected: bool
    latency_s: Optional[float]
    false_alarms: int


def threshold_monitor(series, cfg):
    """Alarms for every epoch deviating from the baseline-window mean.

    The baseline is the mean clock difference over the first
    ``baseline_window_epochs`` usable epochs, so the monitor is invariant
    to a constant offset of the whole series.  Without a configured
    ``threshold_ps`` the level is four times the std of that window.
    """
    delta = series.deltas()
    usable = ~np.isnan(delta)
    times, delta = series.times()[usable], delta[usable]
    if delta.size <= cfg.baseline_window_epochs:
        raise ConfigurationError(
            f"series has {delta.size} usable epochs, need more than "
            f"the {cfg.baseline_window_epochs}-epoch baseline window"
        )
    window = delta[: cfg.baseline_window_epochs]
    baseline = float(np.mean(window))
    level = cfg.threshold_ps
    if level is None:
        level = 4.0 * float(np.std(window)) or 1.0
    deviation = delta - baseline
    beyond = np.abs(deviation) > level
    hits = zip(times[beyond].tolist(), deviation[beyond].tolist())
    return [Alarm(t, AlarmKind.THRESHOLD, d) for t, d in hits]


def cusum_drift(series, cfg):
    """Two-sided CUSUM over per-epoch clock-difference increments.

    S+ = max(0, S+ + (d - k)) and S- = max(0, S- - (d + k)) for each
    increment d; an alarm fires when either side exceeds the decision
    limit, after which both sides reset.  Because increments of a series
    with white measurement noise telescope, noise does not accumulate and
    a sub-noise per-epoch drift still integrates to a detection.

    Gap epochs are closed up: an increment spans from one usable epoch to
    the next, and one that spans ``s`` epochs is charged ``s * k``, the
    allowance of the ``s`` per-epoch increments it sums.  So the sums still
    telescope across a gap: the drift a gap hides still counts, and a drift
    below ``k`` per epoch does not add up to an alarm because gaps lengthen
    its steps.
    """
    delta = series.deltas()
    usable = np.flatnonzero(~np.isnan(delta))
    times = series.times()[usable[1:]].tolist()
    steps = np.diff(delta[usable]).tolist()
    allowances = (np.diff(usable) * cfg.reference_drift_ps).tolist()
    h = cfg.decision_limit_ps
    s_pos = 0.0
    s_neg = 0.0
    alarms = []
    for t, d, allowance in zip(times, steps, allowances):
        s_pos = max(0.0, s_pos + (d - allowance))
        s_neg = max(0.0, s_neg - (d + allowance))
        if s_pos > h or s_neg > h:
            magnitude = s_pos if s_pos > h else -s_neg
            alarms.append(Alarm(t, AlarmKind.DRIFT, magnitude))
            s_pos = 0.0
            s_neg = 0.0
    return alarms


def collect_alarms(series, detectors):
    """Alarms of every configured detector, in ``(epoch_start_s, kind)`` order.

    ``detectors`` holds ``(detector, config)`` pairs such as
    ``(threshold_monitor, ThresholdConfig(...))``; a pair whose config is
    None is skipped.  Callers pass the detector functions themselves, so the
    names they call are the ones that run (the benchmark tracer wraps the
    runner's).
    """
    alarms = [a for detect, cfg in detectors if cfg is not None for a in detect(series, cfg)]
    alarms.sort(key=lambda a: (a.epoch_start_s, a.kind.value))
    return alarms


def score(alarms, attack_onset_s, series_span_s):
    """Ground-truth detection score for a known attack onset, which must
    fall within ``[0, series_span_s]``."""
    series_span_s = number("series_span_s", series_span_s)
    attack_onset_s = number("attack_onset_s", attack_onset_s, low=0, high=series_span_s)
    false_alarms = sum(1 for a in alarms if a.epoch_start_s < attack_onset_s)
    hits = [a for a in alarms if a.epoch_start_s >= attack_onset_s]
    if not hits:
        return DetectionScore(detected=False, latency_s=None, false_alarms=false_alarms)
    latency = min(a.epoch_start_s for a in hits) - attack_onset_s
    return DetectionScore(detected=True, latency_s=latency, false_alarms=false_alarms)


def write_alarms_csv(alarms, path):
    """Write alarms as ``epoch_start_s,kind,magnitude_ps`` CSV rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch_start_s,kind,magnitude_ps\n")
        for a in alarms:
            fh.write(f"{a.epoch_start_s!r},{a.kind.value},{a.magnitude_ps!r}\n")
