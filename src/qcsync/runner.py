"""Campaign execution: run scenarios end to end and write result bundles.

A full-simulation run chains photon generation, attacked propagation,
per-epoch clock-difference estimation, TDEV and (optionally) the
detectors.  An analytic run replaces the photon chain with the closed-form
tampered clock difference plus per-epoch Gaussian noise, which makes the
two modes directly comparable on the same scenario.

Per-run outputs (all deterministic given scenario + seed):

    series.csv           epoch_start_s, tau_ab_ps, tau_aba_ps, delta_ps  (taus
                         empty in analytic runs, all three empty at gaps)
    series_rezeroed.csv  epoch_start_s, delta_rezeroed_ps  (delta minus the
                         configured reference, the plot convention)
    tdev.csv             tau_s, tdev_ps, m, n_terms
    alarms.csv           epoch_start_s, kind, magnitude_ps  (when detection
                         is configured)
    score.json           detection score vs the first attack onset
    meta.json            seed, config hash, resolved scenario echo, version
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .attacks import eval_trajectory, tampered_clock_difference
from .detection import (
    Alarm,
    DetectionScore,
    ThresholdConfig,
    collect_alarms,
    cusum_drift,
    score,
    threshold_monitor,
    write_alarms_csv,
)
from .errors import ConfigurationError, GapRateError
from .estimator import ClockDifferencePoint, ClockDifferenceSeries, per_epoch_series
from .scenario import (
    AttackScenario,
    RunMode,
    builtin_names,
    builtin_scenario,
    figure_bundle,
    load_scenario_file,
)
from .simulation import run_round_trip_sim
from .stability import TdevCurve, tdev

__all__ = ["CampaignResult", "load_scenario", "run_scenario", "reproduce", "write_campaign"]

# Fraction of gap epochs tolerated before a run is declared unusable.
MAX_GAP_FRACTION = 0.01


@dataclass
class CampaignResult:
    scenario: AttackScenario
    series: ClockDifferenceSeries
    tdev: Optional[TdevCurve]
    alarms: Optional[List[Alarm]]
    detection_score: Optional[DetectionScore]
    meta: dict


def load_scenario(source):
    """Resolve a scenario from a builtin name, file path, dict or instance."""
    if isinstance(source, AttackScenario):
        return source
    if isinstance(source, dict):
        return AttackScenario.from_dict(source)
    text = str(source)
    if text in builtin_names():
        return AttackScenario.from_dict(builtin_scenario(text))
    path = Path(text)
    if path.is_file():
        return load_scenario_file(path)
    raise ConfigurationError(
        f"{text!r} is neither a builtin scenario nor a scenario file; "
        f"builtins: {', '.join(builtin_names())}"
    )


def _apply_overrides(scenario, seed=None, mode=None, epoch_s=None):
    # dataclasses.replace re-runs each __post_init__, so overrides are
    # validated exactly like scenario documents.
    run = scenario.run
    if seed is not None:
        run = dataclasses.replace(run, seed=int(seed))
    if epoch_s is not None:
        run = dataclasses.replace(run, epoch_s=float(epoch_s))
    if run is not scenario.run:
        scenario = dataclasses.replace(scenario, run=run)
    if mode is not None:
        scenario = dataclasses.replace(scenario, mode=RunMode(mode))
    return scenario


def _run_analytic(scenario):
    run = scenario.run
    n_epochs = int(run.duration_s / run.epoch_s + 1e-9)
    if n_epochs < 1:
        raise ConfigurationError("run shorter than one epoch")
    rng = np.random.default_rng(run.seed)
    sigma = scenario.analytic.noise_sigma_ps
    noise = rng.normal(0.0, sigma, n_epochs) if sigma > 0 else np.zeros(n_epochs)
    t_mid = (np.arange(n_epochs) + 0.5) * run.epoch_s
    m_vals = eval_trajectory(scenario.m_trajectory(), t_mid)
    n_vals = eval_trajectory(scenario.n_trajectory(), t_mid)
    base = scenario.analytic.baseline_delta_ps + noise
    delta = tampered_clock_difference(base, m_vals, n_vals, scenario.qcs_scheme())
    points = [
        ClockDifferencePoint(
            epoch_start_s=k * run.epoch_s,
            tau_ab_ps=None,
            tau_aba_ps=None,
            delta_ps=float(delta[k]),
            delta_sigma_ps=sigma,
        )
        for k in range(n_epochs)
    ]
    return ClockDifferenceSeries(epoch_length_s=run.epoch_s, points=points)


def _run_detectors(scenario, series):
    settings = scenario.detection
    if settings is None:
        return None, None
    threshold = None
    if settings.threshold is not None:
        spec = settings.threshold
        level = spec.threshold_ps
        if level is None:
            # Default policy: four times the calibration-window scatter.
            deltas = [p.delta_ps for p in series.points if not p.is_gap]
            window = deltas[: spec.baseline_window_epochs]
            level = 4.0 * float(np.std(window))
            if level <= 0:
                level = 1.0
        threshold = ThresholdConfig(
            baseline_window_epochs=spec.baseline_window_epochs, threshold_ps=level
        )
    alarms = collect_alarms(
        series, ((threshold_monitor, threshold), (cusum_drift, settings.cusum))
    )

    onset = scenario.first_attack_onset_s()
    detection_score = None
    if onset is not None:
        span = scenario.run.duration_s
        detection_score = score(alarms, min(onset, span), span)
    return alarms, detection_score


def run_scenario(source, out_dir=None, *, seed=None, mode=None, epoch_s=None):
    """Execute one scenario and optionally write its result bundle."""
    scenario = _apply_overrides(load_scenario(source), seed=seed, mode=mode, epoch_s=epoch_s)
    started = time.perf_counter()

    if scenario.mode is RunMode.ANALYTIC:
        series = _run_analytic(scenario)
    else:
        stream = run_round_trip_sim(scenario)
        series = per_epoch_series(stream, scenario.run.epoch_s, scenario.estimator)

    gap_fraction = series.gap_count() / len(series)
    if gap_fraction > MAX_GAP_FRACTION:
        raise GapRateError(
            f"{series.gap_count()} of {len(series)} epochs are gaps "
            f"({100 * gap_fraction:.2f}% > {100 * MAX_GAP_FRACTION:.0f}% tolerated)"
        )

    # TDEV runs on the full epoch grid: gap epochs stay NaN and only terms
    # free of gaps are averaged, never interpolated or closed up.
    curve = tdev(series.deltas(), series.epoch_length_s) if len(series) >= 4 else None

    alarms, detection_score = _run_detectors(scenario, series)

    meta = {
        "tool": "qcsync",
        "version": __version__,
        "scenario_name": scenario.name,
        "mode": scenario.mode.value,
        "seed": scenario.run.seed,
        "config_hash": scenario.config_hash(),
        "reference_ps": scenario.reference_ps,
        "n_epochs": len(series),
        "gap_count": series.gap_count(),
        "wall_time_s": time.perf_counter() - started,
        "scenario": scenario.to_dict(),
    }
    result = CampaignResult(
        scenario=scenario,
        series=series,
        tdev=curve,
        alarms=alarms,
        detection_score=detection_score,
        meta=meta,
    )
    if out_dir is not None:
        write_campaign(result, out_dir)
    return result


def write_campaign(result, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result.series.to_csv(out / "series.csv")

    reference = result.scenario.reference_ps
    with open(out / "series_rezeroed.csv", "w", encoding="utf-8") as fh:
        fh.write("epoch_start_s,delta_rezeroed_ps\n")
        for p in result.series.points:
            if p.is_gap:
                fh.write(f"{p.epoch_start_s!r},\n")
            else:
                fh.write(f"{p.epoch_start_s!r},{p.delta_ps - reference!r}\n")

    if result.tdev is not None:
        result.tdev.to_csv(out / "tdev.csv")
    if result.alarms is not None:
        write_alarms_csv(result.alarms, out / "alarms.csv")
    if result.detection_score is not None:
        with open(out / "score.json", "w", encoding="utf-8") as fh:
            json.dump(dataclasses.asdict(result.detection_score), fh, indent=2, sort_keys=True)
            fh.write("\n")
    with open(out / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(result.meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def reproduce(figure_id, out_dir=None, seed=None) -> Dict[str, CampaignResult]:
    """Run the builtin scenario bundle reproducing one reference figure.

    Returns results keyed by scenario name.  When ``out_dir`` is given,
    each run writes under ``<out_dir>/<figure_id>/<name>/`` and a bundle
    summary CSV lands next to the run directories.  Bundle members are
    fully independent (own run directory, own seed, no shared state) and
    could be dispatched concurrently; they run sequentially here.
    """
    names = figure_bundle(figure_id)
    results: Dict[str, CampaignResult] = {}
    for name in names:
        run_out = None
        if out_dir is not None:
            run_out = Path(out_dir) / figure_id / name
        results[name] = run_scenario(name, run_out, seed=seed)

    if out_dir is not None:
        summary = Path(out_dir) / figure_id / "summary.csv"
        with open(summary, "w", encoding="utf-8") as fh:
            fh.write("name,seed,n_epochs,gap_count,mean_delta_ps,tdev_tau0_ps,tdev_max_tau_ps\n")
            for name, result in results.items():
                deltas = result.series.deltas()
                mean_delta = float(np.nanmean(deltas))
                t0 = result.tdev.points[0].tdev_ps if result.tdev else float("nan")
                tmax = result.tdev.points[-1].tdev_ps if result.tdev else float("nan")
                fh.write(
                    f"{name},{result.scenario.run.seed},{len(result.series)},"
                    f"{result.series.gap_count()},{mean_delta!r},{t0!r},{tmax!r}\n"
                )
    return results
