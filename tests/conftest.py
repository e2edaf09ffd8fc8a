"""Shared test helpers."""

from __future__ import annotations

import numpy as np
import pytest

from qcsync.estimator import ClockDifferencePoint, ClockDifferenceSeries
from qcsync.scenario import builtin_scenario


def make_series(values, epoch_s=1.0, sigma=None):
    """Synthetic clock-difference series; None entries become gap epochs."""
    points = []
    for k, v in enumerate(values):
        t = k * epoch_s
        if v is None:
            points.append(ClockDifferencePoint(t, None, None, None))
        else:
            points.append(
                ClockDifferencePoint(
                    t, float(v), 0.0, float(v), delta_sigma_ps=sigma
                )
            )
    return ClockDifferenceSeries(epoch_length_s=epoch_s, points=points)


def gap_doc(duration_s, spike_width_s, start_s=60.0, pair_rate_hz=1000.0):
    """A campaign whose forward peak leaves its window for ``spike_width_s``
    whole epochs from ``start_s`` on.

    Under the default N = -M coordination a +20 ns spike of M moves the
    forward coincidences 20 ns outside the +-2 ns histogram window while the
    round trip stays put, so those epochs are gaps by construction, not by
    counting luck (one gap for width 1 on seeds 0-19 and 101).  At the
    default 1 kHz an accidental coincidence in the emptied window is rare,
    and a 1-5 s side peak does not move acquisition off the main one.
    """
    doc = builtin_scenario("baseline")
    doc["run"]["duration_s"] = duration_s
    doc["source"] = {"pair_rate_hz": pair_rate_hz}
    spike = {"pattern": "spike", "amplitude_ps": 20_000.0}
    doc["m_events"] = [dict(spike, start_s=start_s, width_s=spike_width_s)]
    del doc["detection"]
    return doc


@pytest.fixture
def rng():
    return np.random.default_rng(20250811)
