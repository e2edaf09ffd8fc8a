"""The series readers outside the estimator against point-walking oracles.

The threshold monitor, CUSUM, the step shift and the rezeroed-row writer
read a series through ``times()`` and ``deltas()``, where a gap is NaN.
Each must give what its point-walking form gave: the same alarms, the same
shift and rows bit for bit, and the same exception with the same message.
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcsync import detection, runner, stability
from qcsync.detection import Alarm, AlarmKind, CusumConfig, ThresholdConfig
from qcsync.errors import ConfigurationError
from qcsync.estimator import ClockDifferencePoint, ClockDifferenceSeries
from qcsync.scenario import AttackScenario, builtin_scenario


# --------------------------------------------------------------------------
# Oracles: the point-walking readers of 0.26.0, verbatim.
# --------------------------------------------------------------------------


def _usable_points(series):
    return [p for p in series.points if not p.is_gap]


def threshold_monitor(series, cfg):
    points = _usable_points(series)
    if len(points) <= cfg.baseline_window_epochs:
        raise ConfigurationError(
            f"series has {len(points)} usable epochs, need more than "
            f"the {cfg.baseline_window_epochs}-epoch baseline window"
        )
    window = [p.delta_ps for p in points[: cfg.baseline_window_epochs]]
    baseline = float(np.mean(window))
    level = cfg.threshold_ps
    if level is None:
        level = 4.0 * float(np.std(window)) or 1.0
    alarms = []
    for p in points:
        deviation = p.delta_ps - baseline
        if abs(deviation) > level:
            alarms.append(Alarm(p.epoch_start_s, AlarmKind.THRESHOLD, deviation))
    return alarms


def cusum_drift(series, cfg):
    points = [(i, p.delta_ps) for i, p in enumerate(series.points) if not p.is_gap]
    if len(points) < 2:
        return []
    k = cfg.reference_drift_ps
    h = cfg.decision_limit_ps
    s_pos = 0.0
    s_neg = 0.0
    alarms = []
    for (i, prev), (j, cur) in zip(points, points[1:]):
        d = cur - prev
        allowance = (j - i) * k
        s_pos = max(0.0, s_pos + (d - allowance))
        s_neg = max(0.0, s_neg - (d + allowance))
        if s_pos > h or s_neg > h:
            magnitude = s_pos if s_pos > h else -s_neg
            alarms.append(Alarm(series.points[j].epoch_start_s, AlarmKind.DRIFT, magnitude))
            s_pos = 0.0
            s_neg = 0.0
    return alarms


def estimate_step_shift(series, split_time_s):
    before = [
        p.delta_ps
        for p in series.points
        if not p.is_gap and p.epoch_start_s < split_time_s
    ]
    after = [
        p.delta_ps
        for p in series.points
        if not p.is_gap and p.epoch_start_s >= split_time_s
    ]
    if len(before) < 10 or len(after) < 10:
        raise ConfigurationError(
            f"need >= 10 usable epochs on each side of the split "
            f"(got {len(before)} before, {len(after)} after)"
        )
    return float(np.mean(after) - np.mean(before))


def write_rezeroed(result, out):
    reference = result.scenario.reference_ps
    with open(out / "series_rezeroed.csv", "w", encoding="utf-8") as fh:
        fh.write("epoch_start_s,delta_rezeroed_ps\n")
        for p in result.series.points:
            if p.is_gap:
                fh.write(f"{p.epoch_start_s!r},\n")
            else:
                fh.write(f"{p.epoch_start_s!r},{p.delta_ps - reference!r}\n")


# --------------------------------------------------------------------------
# Generated series: gaps anywhere, at the start, inside the baseline window
# and in trailing all-gap runs, and series too short for any reader.
# --------------------------------------------------------------------------

_DELTAS = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def series(draw):
    n = draw(st.integers(0, 90))
    epoch_s = draw(st.sampled_from([1.0, 0.1, 1.0 / 3.0, 2.5]))
    gap_rate = draw(st.sampled_from([0.0, 0.05, 0.3, 0.9]))
    gaps = [draw(st.floats(0, 1)) < gap_rate for _ in range(n)]
    if n and draw(st.booleans()):
        gaps[0] = True
    tail = draw(st.integers(0, n))
    if draw(st.booleans()):
        gaps[n - tail :] = [True] * tail
    # A level with small steps on it, so that both detectors sometimes fire
    # and sometimes stay quiet.
    level = draw(_DELTAS)
    steps = draw(st.lists(st.floats(-50, 50), min_size=n, max_size=n))
    points = []
    for k, (gap, step) in enumerate(zip(gaps, steps)):
        level += step
        t = k * epoch_s
        points.append(
            ClockDifferencePoint(t, None, None, None)
            if gap
            else ClockDifferencePoint(t, level, 2.0 * level, level - 0.5)
        )
    return ClockDifferenceSeries(epoch_length_s=epoch_s, points=points)


def outcome(func, *args):
    """What ``func(*args)`` returns, as reprs so floats compare bit for bit,
    or the type and message of what it raises."""
    try:
        return "value", repr(func(*args))
    except Exception as exc:  # noqa: BLE001 - the oracle's exception is the contract
        return "raised", type(exc), str(exc)


@given(
    series(),
    st.integers(10, 40),
    st.one_of(st.none(), st.floats(0.01, 500)),
)
@settings(max_examples=400, deadline=None)
def test_threshold_monitor_matches_point_walk(s, window, level):
    cfg = ThresholdConfig(baseline_window_epochs=window, threshold_ps=level)
    assert outcome(detection.threshold_monitor, s, cfg) == outcome(threshold_monitor, s, cfg)


@given(series(), st.floats(0, 30), st.floats(0.01, 300))
@settings(max_examples=400, deadline=None)
def test_cusum_matches_point_walk(s, k, h):
    cfg = CusumConfig(reference_drift_ps=k, decision_limit_ps=h)
    assert outcome(detection.cusum_drift, s, cfg) == outcome(cusum_drift, s, cfg)


@st.composite
def split_times(draw, s):
    span = len(s) * s.epoch_length_s
    on_grid = st.integers(-1, len(s) + 1).map(lambda k: k * s.epoch_length_s)
    return draw(
        st.one_of(on_grid, st.floats(-5.0, span + 5.0), st.sampled_from([np.nan, np.inf]))
    )


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_step_shift_matches_point_walk(data):
    s = data.draw(series())
    split = data.draw(split_times(s))
    assert outcome(stability.estimate_step_shift, s, split) == outcome(
        estimate_step_shift, s, split
    )


_SCENARIO = AttackScenario.from_dict(builtin_scenario("baseline"))


@given(series(), _DELTAS)
@settings(max_examples=200, deadline=None)
def test_rezeroed_rows_match_point_walk(s, reference):
    scenario = dataclasses.replace(_SCENARIO, reference_ps=reference)
    result = runner.CampaignResult(scenario, s, None, None, None, {})
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp, "new"), Path(tmp, "old")
        old.mkdir()
        runner.write_campaign(result, new)
        write_rezeroed(result, old)
        name = "series_rezeroed.csv"
        assert (new / name).read_bytes() == (old / name).read_bytes()


def test_nan_split_leaves_both_sides_empty():
    # ``~(t < split)`` would put every epoch after a NaN split.
    points = [ClockDifferencePoint(float(k), 0.0, 0.0, 0.0) for k in range(30)]
    s = ClockDifferenceSeries(epoch_length_s=1.0, points=points)
    assert outcome(stability.estimate_step_shift, s, np.nan) == (
        "raised",
        ConfigurationError,
        "need >= 10 usable epochs on each side of the split (got 0 before, 0 after)",
    )
