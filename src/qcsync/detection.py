"""Baseline countermeasures: threshold monitoring and a CUSUM drift detector.

Threshold monitoring flags any epoch whose clock difference deviates from a
calibration-window baseline by more than a fixed amount; it is the
mitigation that bounds how much clock drift an attack can cause, but small
steps and slow ramps sail under it.  The two-sided CUSUM on per-epoch
increments accumulates evidence of a persistent drift and catches the slow
ramps the threshold misses.  Scoring compares alarms against the known
attack onset of a simulated scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ConfigurationError

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
    baseline_window_epochs: int = 60
    threshold_ps: float = 200.0

    def __post_init__(self):
        if self.baseline_window_epochs < 10:
            raise ConfigurationError("baseline_window_epochs must be >= 10")
        if not (self.threshold_ps > 0 and math.isfinite(self.threshold_ps)):
            raise ConfigurationError("threshold_ps must be > 0")


@dataclass(frozen=True)
class CusumConfig:
    """Two-sided CUSUM on per-epoch increments.

    ``reference_drift_ps`` (k) is the per-epoch drift magnitude tolerated
    without accumulating; ``decision_limit_ps`` (h) is the alarm level.
    """

    reference_drift_ps: float = 0.05
    decision_limit_ps: float = 25.0

    def __post_init__(self):
        if not (self.reference_drift_ps >= 0 and math.isfinite(self.reference_drift_ps)):
            raise ConfigurationError("reference_drift_ps must be >= 0")
        if not (self.decision_limit_ps > 0 and math.isfinite(self.decision_limit_ps)):
            raise ConfigurationError("decision_limit_ps must be > 0")


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


def _usable_points(series):
    return [p for p in series.points if not p.is_gap]


def threshold_monitor(series, cfg):
    """Alarms for every epoch deviating from the baseline-window mean.

    The baseline is the mean clock difference over the first
    ``baseline_window_epochs`` usable epochs, so the monitor is invariant
    to a constant offset of the whole series.
    """
    points = _usable_points(series)
    if len(points) <= cfg.baseline_window_epochs:
        raise ConfigurationError(
            f"series has {len(points)} usable epochs, need more than "
            f"the {cfg.baseline_window_epochs}-epoch baseline window"
        )
    baseline = float(np.mean([p.delta_ps for p in points[: cfg.baseline_window_epochs]]))
    alarms = []
    for p in points:
        deviation = p.delta_ps - baseline
        if abs(deviation) > cfg.threshold_ps:
            alarms.append(Alarm(p.epoch_start_s, AlarmKind.THRESHOLD, deviation))
    return alarms


def cusum_drift(series, cfg):
    """Two-sided CUSUM over per-epoch clock-difference increments.

    S+ = max(0, S+ + (d - k)) and S- = max(0, S- - (d + k)) for each
    increment d; an alarm fires when either side exceeds the decision
    limit, after which both sides reset.  Because increments of a series
    with white measurement noise telescope, noise does not accumulate and
    a sub-noise per-epoch drift still integrates to a detection.
    """
    points = _usable_points(series)
    if len(points) < 2:
        return []
    k = cfg.reference_drift_ps
    h = cfg.decision_limit_ps
    s_pos = 0.0
    s_neg = 0.0
    alarms = []
    for prev, cur in zip(points, points[1:]):
        d = cur.delta_ps - prev.delta_ps
        s_pos = max(0.0, s_pos + (d - k))
        s_neg = max(0.0, s_neg - (d + k))
        if s_pos > h or s_neg > h:
            magnitude = s_pos if s_pos > h else -s_neg
            alarms.append(Alarm(cur.epoch_start_s, AlarmKind.DRIFT, magnitude))
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
    """Ground-truth detection score for a known attack onset."""
    if not (0.0 <= attack_onset_s <= series_span_s):
        raise ConfigurationError("attack onset must fall within the series span")
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
