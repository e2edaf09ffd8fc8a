"""Tests of the benchmark's own parts, on tiny scenarios.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import contextlib
import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import qcsync  # noqa: E402
from qcsync import builtin_scenario, validate_scenario_dict  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, scenario_doc  # noqa: E402


def _tiny_jump_doc(seed=5):
    doc = builtin_scenario("jump_-100ps")
    doc["run"].update(duration_s=24.0, seed=seed)
    doc["m_events"][0]["start_s"] = 12.0
    doc["detection"]["threshold"]["baseline_window_epochs"] = 10
    return doc


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    doc = _tiny_jump_doc()
    plain_dir = tmp_path_factory.mktemp("plain")
    return doc, plain_dir, qcsync.run_scenario(doc, plain_dir)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_scenarios_are_valid_and_seeded(name):
    for seed in (None, 7):
        doc = scenario_doc(name, seed)
        assert validate_scenario_dict(doc) == []
        assert doc == scenario_doc(name, seed)
    assert scenario_doc(name, 7)["run"]["seed"] == 7
    assert scenario_doc(name, 7) != scenario_doc(name, 8)


def test_highrate_workload_shape():
    doc = scenario_doc("highrate_deadtime", 3)
    scenario = qcsync.load_scenario(doc)
    assert scenario.source.pair_rate_hz == 1.0e5
    assert scenario.run.duration_s == 30.0
    assert scenario.detectors.dead_time_ps == 50000.0
    assert scenario.first_attack_onset_s() == WORKLOADS["highrate_deadtime"].split_s == 15.0


def test_gate_passes_a_good_run(tiny_run):
    _, plain_dir, result = tiny_run
    assert checks.series_problems(result.scenario, result.series, 12.0) == []
    assert checks.bundle_problems(plain_dir, result) == []


def _shifted(series, offset_ps, from_s=0.0):
    points = [
        dataclasses.replace(p, delta_ps=p.delta_ps + offset_ps)
        if not p.is_gap and p.epoch_start_s >= from_s
        else p
        for p in series.points
    ]
    return dataclasses.replace(series, points=points)


def test_gate_rejects_a_corrupted_series(tiny_run):
    _, plain_dir, result = tiny_run
    corrupt = _shifted(result.series, 50.0)
    assert any(p.startswith("bridge") for p in checks.series_problems(result.scenario, corrupt))
    assert checks.bundle_problems(plain_dir, dataclasses.replace(result, series=corrupt)) == [
        "bundle: series.csv does not read back as the run's series"
    ]


def test_bundle_check_sees_every_series_column_and_file(tiny_run):
    _, plain_dir, result = tiny_run
    first = result.series.points[0]
    for change in ({"epoch_start_s": 0.5}, {"tau_ab_ps": first.tau_ab_ps + 1.0}):
        points = [dataclasses.replace(first, **change)] + result.series.points[1:]
        series = dataclasses.replace(result.series, points=points)
        assert checks.bundle_problems(plain_dir, dataclasses.replace(result, series=series))
    gap = qcsync.ClockDifferencePoint(first.epoch_start_s, None, None, None)
    series = dataclasses.replace(result.series, points=[gap] + result.series.points[1:])
    assert checks.bundle_problems(plain_dir, dataclasses.replace(result, series=series))
    wrong = dataclasses.replace(
        result, meta={**result.meta, "seed": -1}, alarms=result.alarms + result.alarms[:1]
    )
    assert checks.bundle_problems(plain_dir, wrong) == [
        "bundle: meta.json does not read back as the run's metadata",
        "bundle: alarms.csv does not hold one row per alarm",
    ]


def test_gate_rejects_a_wrong_step(tiny_run):
    _, _, result = tiny_run
    corrupt = _shifted(result.series, 50.0, from_s=12.0)
    problems = checks.series_problems(result.scenario, corrupt, 12.0)
    assert any(p.startswith("step") for p in problems)


def test_bridge_tolerates_only_chance_outliers(tiny_run):
    _, _, result = tiny_run
    series = result.series
    allowed = checks.allowed_outliers(len(series))
    assert allowed == 2
    shifted = _shifted(series, 50.0).points

    def with_outliers(k):
        return dataclasses.replace(series, points=shifted[:k] + series.points[k:])

    assert checks.series_problems(result.scenario, with_outliers(allowed)) == []
    assert checks.series_problems(result.scenario, with_outliers(allowed + 1)) != []


def test_allowed_outliers_cover_one_percent():
    assert [checks.allowed_outliers(n) for n in (30, 500, 3500)] == [2, 7, 35]


def test_traced_campaign_times_the_real_run_scenario(tiny_run, tmp_path):
    doc, plain_dir, plain = tiny_run
    originals = [getattr(module, name) for module, name, _, _ in traced.LAYERS]
    tracer = Tracer()
    result = traced.traced_campaign(doc, tmp_path, tracer)
    assert [getattr(module, name) for module, name, _, _ in traced.LAYERS] == originals
    assert tracer.missing(traced.SPANS) == []
    assert checks.trace_problems(tmp_path, plain_dir, []) == []
    by_name = {s["name"]: s for s in tracer.spans}
    assert len(by_name) == len(tracer.spans) == len(traced.SPANS)
    nested_in = {"estimator.coarse_acquire": "estimator.per_epoch_series"}
    for name in traced.SPANS[2:]:
        span, parent = by_name[name], tracer.spans[by_name[name]["parent"]]
        assert parent["name"] == nested_in.get(name, "run_scenario")
        assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
    counts = by_name["estimator.per_epoch_series"]["counts"]
    assert counts == {"epochs": len(plain.series), "gap_epochs": plain.series.gap_count()}
    records = by_name["simulation.propagate_and_detect"]["counts"]["records"]
    assert records == len(qcsync.run_round_trip_sim(result.scenario))

    layers = run._layer_metrics({"spans": tracer.spans, "dir": tmp_path}, {"wall_s": 0.0})
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {(m["name"], m["unit"]) for m in declared} == {(n, u) for n, (_, u) in layers.items()}
    epochs = by_name["estimator.per_epoch_series"]
    both = layers["estimator.per_epoch_series_s"][0] + layers["estimator.coarse_acquire_s"][0]
    assert both == pytest.approx(epochs["end"] - epochs["start"])
    assert layers["detection.alarms"][0] == len(result.alarms)


class _SkippingTracer(Tracer):
    """Runs every block but leaves one span unrecorded."""

    def __init__(self, skip):
        super().__init__()
        self.skip = skip

    def span(self, name):
        if name == self.skip:
            return contextlib.nullcontext({})
        return super().span(name)


def test_trace_check_fails_when_a_span_is_skipped(tiny_run, tmp_path):
    doc, plain_dir, _ = tiny_run
    tracer = _SkippingTracer("stability.tdev")
    traced.traced_campaign(doc, tmp_path, tracer)
    problems = checks.trace_problems(tmp_path, plain_dir, tracer.missing(traced.SPANS))
    assert problems == ["trace: span 'stability.tdev' not recorded"]


def test_trace_check_fails_when_the_series_diverges(tiny_run, tmp_path, monkeypatch):
    doc, plain_dir, _ = tiny_run
    real = qcsync.runner.per_epoch_series
    monkeypatch.setattr(
        qcsync.runner, "per_epoch_series", lambda *args: _shifted(real(*args), 50.0)
    )
    tracer = Tracer()
    traced.traced_campaign(doc, tmp_path, tracer)
    problems = checks.trace_problems(tmp_path, plain_dir, tracer.missing(traced.SPANS))
    assert problems == ["trace: traced series differs from the untraced run's series"]
