"""Correctness gate and trace checks of the benchmark.

A run fails when qcsync raises, or when any check here reports a problem.
Each check returns a list of problems, empty when the run passes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from qcsync import (
    ClockDifferenceSeries,
    estimate_step_shift,
    eval_trajectory,
    tampered_clock_difference,
)

BRIDGE_SIGMAS = 3.0
STEP_TOLERANCE_PS = 3.0
# Chance that a correct run fails the bridge, at most.
BRIDGE_FALSE_FAILURE = 1e-4


def allowed_outliers(n):
    """Outliers the bridge tolerates among ``n`` usable epochs.

    The larger of 1% of the epochs and the count that a correct estimator
    (Gaussian, so 0.27% of epochs beyond 3 sigma) exceeds with probability
    at most ``BRIDGE_FALSE_FAILURE``: 2 of 30, 7 of 500, 35 of 3500.
    """
    p = math.erfc(BRIDGE_SIGMAS / math.sqrt(2.0))
    k, below = 0, 0.0
    while True:
        below += math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
        if 1.0 - below <= BRIDGE_FALSE_FAILURE or k >= n:
            return max(k, n // 100)
        k += 1


def _closed_form(scenario, t_s):
    """Noise-free tampered clock difference at times ``t_s``."""
    clock = scenario.clock
    raw = clock.offset_ps + clock.drift_ps_per_s * t_s
    return tampered_clock_difference(
        raw,
        eval_trajectory(scenario.m_trajectory(), t_s),
        eval_trajectory(scenario.n_trajectory(), t_s),
        scenario.qcs_scheme(),
    )


def series_problems(scenario, series, split_s=None):
    """The analytic bridge and, given a jump onset, the step-recovery check.

    Bridge: usable epochs lie within 3 sigma of the closed form at the epoch
    midpoint, but for at most ``allowed_outliers`` of them.  A flat 99% rule
    fails correct runs by chance: ~8% of seeds on 30 epochs with no outlier
    allowed, ~0.3% on 500 epochs.
    """
    points = [p for p in series.points if not p.is_gap]
    t_mid = np.array([p.epoch_start_s for p in points]) + 0.5 * series.epoch_length_s
    delta = np.array([p.delta_ps for p in points])
    sigma = np.array([p.delta_sigma_ps for p in points])
    predicted = _closed_form(scenario, t_mid)

    problems = []
    outliers = int(np.count_nonzero(~(np.abs(delta - predicted) <= BRIDGE_SIGMAS * sigma)))
    allowed = allowed_outliers(len(points))
    if outliers > allowed:
        problems.append(
            f"bridge: {outliers} of {len(points)} usable epochs beyond "
            f"{BRIDGE_SIGMAS:g} sigma of the closed form (at most {allowed} allowed)"
        )
    if split_s is not None:
        shift = estimate_step_shift(series, split_s)
        after = t_mid - 0.5 * series.epoch_length_s >= split_s
        expected = float(np.mean(predicted[after]) - np.mean(predicted[~after]))
        if not abs(shift - expected) <= STEP_TOLERANCE_PS:
            problems.append(
                f"step: recovered {shift:.3f} ps, injected {expected:.3f} ps "
                f"(tolerance {STEP_TOLERANCE_PS:g} ps)"
            )
    return problems


def _rows(series):
    return [(p.epoch_start_s, p.tau_ab_ps, p.tau_aba_ps, p.delta_ps) for p in series.points]


def _data_lines(path):
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def bundle_problems(out_dir, result):
    """The written bundle must read back as the run's result.

    series.csv must hold the series row for row: epoch starts, both taus,
    delta and the gap pattern.  meta.json must equal the run's metadata, and
    tdev.csv and alarms.csv must hold one row per TDEV point and per alarm.
    """
    out = Path(out_dir)
    problems = []
    if _rows(ClockDifferenceSeries.from_csv(out / "series.csv")) != _rows(result.series):
        problems.append("bundle: series.csv does not read back as the run's series")
    with open(out / "meta.json", encoding="utf-8") as fh:
        if json.load(fh) != json.loads(json.dumps(result.meta)):
            problems.append("bundle: meta.json does not read back as the run's metadata")
    if _data_lines(out / "tdev.csv") != len(result.tdev.points):
        problems.append("bundle: tdev.csv does not hold one row per TDEV point")
    if _data_lines(out / "alarms.csv") != len(result.alarms):
        problems.append("bundle: alarms.csv does not hold one row per alarm")
    return problems


def trace_problems(traced_dir, plain_dir, missing_spans):
    """The traced run must open every span and reproduce the untraced series."""
    problems = [f"trace: span {name!r} not recorded" for name in missing_spans]
    traced = (Path(traced_dir) / "series.csv").read_bytes()
    plain = (Path(plain_dir) / "series.csv").read_bytes()
    if traced != plain:
        problems.append("trace: traced series differs from the untraced run's series")
    return problems
