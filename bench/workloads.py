"""Seeded benchmark workloads, built as scenario documents from the builtins.

Only the returned scenario dict reaches qcsync; the seed is the one input
the benchmark varies between runs.  Why each workload was chosen is
recorded in ``BENCHMARK.json`` and ``bench/README.md``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from qcsync import builtin_scenario


def _highrate_deadtime(doc):
    # 100 kHz for 30 s with a 50 ns dead time: the fewest, densest epochs.
    # The threshold monitor's default 60-epoch baseline exceeds the run.
    doc["source"] = {"pair_rate_hz": 1.0e5}
    doc["run"]["duration_s"] = 30.0
    doc["m_events"][0]["start_s"] = 15.0
    doc["detectors"] = {"dead_time_ps": 50000.0}
    doc["detection"]["threshold"]["baseline_window_epochs"] = 10


class Workload(NamedTuple):
    builtin: str
    # Jump onset checked by the step-recovery gate; None when there is none.
    split_s: Optional[float]
    adjust: Optional[Callable[[dict], None]] = None


WORKLOADS = {
    "jump100": Workload("jump_-100ps", 250.0),
    "gradual3500": Workload("gradual_fast_reversing", None),
    "highrate_deadtime": Workload("jump_-100ps", 15.0, _highrate_deadtime),
}


def scenario_doc(name, seed=None):
    """Scenario document of one workload; ``seed=None`` keeps the builtin seed."""
    workload = WORKLOADS[name]
    doc = builtin_scenario(workload.builtin)
    doc["name"] = name
    if workload.adjust is not None:
        workload.adjust(doc)
    if seed is not None:
        doc["run"]["seed"] = int(seed)
    return doc
