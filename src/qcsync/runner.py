"""Campaign execution: run scenarios end to end and write result bundles.

A full-simulation run chains photon generation, attacked propagation,
per-epoch clock-difference estimation, TDEV and (optionally) the
detectors.  An analytic run replaces the photon chain with the closed-form
tampered clock difference plus the Gaussian noise that the scenario's own
photon chain gives, so the two modes of one scenario agree by construction.

Per-run outputs (all deterministic given scenario + seed):

    series.csv           epoch_start_s, tau_ab_ps, tau_aba_ps, delta_ps  (taus
                         empty in analytic runs, all three empty at gaps)
    series_rezeroed.csv  epoch_start_s, delta_rezeroed_ps  (delta minus the
                         configured reference, the plot convention)
    tdev.csv             tau_s, tdev_ps, m, n_terms
    alarms.csv           epoch_start_s, kind, magnitude_ps  (when detection
                         is configured)
    score.json           detection score vs the first attack onset
    meta.json            seed, config hash, scenario echo, version, analytic_sigma_ps
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import __version__, simulation
from .attacks import eval_trajectory, tampered_clock_difference
from .detection import (
    Alarm,
    DetectionScore,
    collect_alarms,
    cusum_drift,
    score,
    threshold_monitor,
    write_alarms_csv,
)
from .errors import ConfigurationError, GapRateError
from .estimator import (
    ClockDifferencePoint,
    ClockDifferenceSeries,
    acquisition_reach,
    epoch_count,
    epoch_edges,
    joined_series,
    per_epoch_series,
)
from .scenario import (
    AttackScenario,
    RunMode,
    builtin_names,
    builtin_scenario,
    figure_bundle,
    load_scenario_file,
)
from .simulation import TimestampStream, chain_model
from .stability import TdevCurve, tdev

__all__ = ["CampaignResult", "load_scenario", "run_scenario", "reproduce", "write_campaign"]

# Fraction of gap epochs tolerated before a run is declared unusable.
MAX_GAP_FRACTION = 0.01

# A full simulation is simulated and estimated in blocks of whole epochs
# that hold at most about this many records each, by the records per epoch
# that ``chain_model`` expects (8 MB of int64 times), so that it holds one
# block's records at a time however long the run is.  On a 2-core box the
# benchmark's ``gradual3500`` runs in 19 blocks and peaks at ~54 MB,
# against ~76 MB in blocks of 4 M records and ~194 MB in one.  Each block
# ends with the workers drained, so the run takes ~5% longer than in
# blocks of 4 M records.
_BLOCK_RECORDS = 1 << 20


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
        run = dataclasses.replace(run, seed=seed)
    if epoch_s is not None:
        run = dataclasses.replace(run, epoch_s=epoch_s)
    if run is not scenario.run:
        scenario = dataclasses.replace(scenario, run=run)
    if mode is not None:
        scenario = dataclasses.replace(scenario, mode=mode)
    return scenario


def _run_analytic(scenario):
    """The closed-form delta at each epoch midpoint (Bob's clock offset and
    drift, tampered by the attack) plus Gaussian noise, and the noise sigma:
    ``sigma**2 = (s_i**2 + s_b**2)/N_f + (s_i**2 + s_r**2)/(4*N_l)``, as the
    photon chain (``chain_model``) gives one epoch's ``tau_ab - tau_aba/2``
    from ``N_f = R*T*eff*p_bob`` forward and ``N_l = R*T*eff*(p_signal -
    p_bob)`` loopback coincidences, each peak centroid having its pair
    differences' sigma over ``sqrt(N)``."""
    run = scenario.run
    n_epochs = epoch_count(run.duration_s, run.epoch_s)
    if n_epochs < 1:
        raise ConfigurationError("run shorter than one epoch")
    s_i, s_b, s_r, eff, p_bob, p_signal = chain_model(
        scenario.source, scenario.channel, scenario.detectors, scenario.tdc, scenario.clock
    )
    idlers = scenario.source.pair_rate_hz * run.epoch_s * eff
    n_f, n_l = idlers * p_bob, idlers * (p_signal - p_bob)
    empty = " and ".join(path for path, n in (("forward", n_f), ("loopback", n_l)) if not n > 0)
    if empty:
        raise ConfigurationError(f"analytic mode: no coincidences on the {empty} path")
    sigma = math.sqrt((s_i**2 + s_b**2) / n_f + 0.25 * (s_i**2 + s_r**2) / n_l)
    rng = np.random.default_rng(run.seed)
    noise = rng.normal(0.0, sigma, n_epochs) if sigma > 0 else np.zeros(n_epochs)
    t_mid = (np.arange(n_epochs) + 0.5) * run.epoch_s
    m_vals = eval_trajectory(scenario.m_trajectory(), t_mid)
    n_vals = eval_trajectory(scenario.n_trajectory(), t_mid)
    base = scenario.clock.offset_ps + scenario.clock.drift_ps_per_s * t_mid + noise
    delta = tampered_clock_difference(base, m_vals, n_vals, scenario.scheme)
    points = [
        ClockDifferencePoint(k * run.epoch_s, None, None, d, delta_sigma_ps=sigma)
        for k, d in enumerate(delta.tolist())
    ]
    return ClockDifferenceSeries(epoch_length_s=run.epoch_s, points=points), sigma


def _block_count(scenario, n_epochs):
    """How many blocks of whole epochs a full simulation runs in: the fewest
    that hold at most about ``_BLOCK_RECORDS`` records each, by the records
    per epoch that ``chain_model`` expects, and at most one per epoch."""
    s = scenario
    _, _, _, eff, _, p_signal = chain_model(s.source, s.channel, s.detectors, s.tdc, s.clock)
    records = s.source.pair_rate_hz * s.run.epoch_s * (eff + p_signal) * n_epochs
    return max(1, min(n_epochs, math.ceil(records / _BLOCK_RECORDS)))


def _joined(stream, more):
    """The records of two consecutive blocks' streams, as one stream."""
    times = tuple(np.concatenate(t) for t in zip(stream.times, more.times))
    return TimestampStream(times, stream.duration_s, stream.nominal_one_way_delay_ps)


def _simulated_series(scenario):
    """The full simulation's series, simulated and estimated in blocks of
    whole epochs (``_block_count`` of them, of equal length to within one
    epoch), so that one block's records are held at a time.

    Each block ends on an edge of the run's epochs (``epoch_edges``), and
    the last one takes every record left.  The first block takes in the
    blocks after it until it holds every record acquisition reads
    (``acquisition_reach``), and the later blocks are estimated with its
    centres, so each block's epochs are the whole run's, bit for bit.  The
    run's errors are raised after the last block (``joined_series``).
    """
    run, config = scenario.run, scenario.estimator
    n_epochs = epoch_count(run.duration_s, run.epoch_s)
    n_blocks = _block_count(scenario, n_epochs)
    pairs, link = simulation.plan_run(scenario)
    held = simulation.HeldRecords()

    def end(last):
        """Where the block that ends with epoch ``last`` ends, ps: None for
        the last block."""
        return int(epoch_edges(last, last, run.epoch_s)[0]) if last < n_epochs else None

    parts = []
    first, stream = 0, None
    for last in (n_epochs * (k + 1) // n_blocks for k in range(n_blocks)):
        block = simulation.propagate_and_detect(pairs, *link, end(last), held)
        stream = block if stream is None else _joined(stream, block)
        del block
        if not parts and end(last) is not None and acquisition_reach(stream, config) > end(last):
            continue
        parts.append(per_epoch_series(stream, run.epoch_s, config, range(first, last)))
        # Dropped before the next block is simulated.
        first, stream = last, None
        config = dataclasses.replace(config, **dataclasses.asdict(parts[0].acquisition))
    return joined_series(parts)


def _run_detectors(scenario, series):
    settings = scenario.detection
    if settings is None:
        return None, None
    alarms = collect_alarms(
        series, ((threshold_monitor, settings.threshold), (cusum_drift, settings.cusum))
    )

    onset = scenario.first_attack_onset_s()
    detection_score = None
    if onset is not None:
        span = scenario.run.duration_s
        detection_score = score(alarms, min(onset, span), span)
    return alarms, detection_score


def _make_out_dir(out_dir):
    """Create ``out_dir`` before anything runs, so that a directory no bundle
    could be written to is refused with a ConfigurationError naming it."""
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot create output directory {out_dir}: {exc.strerror or exc}"
        ) from exc


def run_scenario(source, out_dir=None, *, seed=None, mode=None, epoch_s=None):
    """Execute one scenario and optionally write its result bundle.

    A full simulation is simulated and estimated in blocks of whole epochs
    of at most about ``_BLOCK_RECORDS`` records each
    (``_simulated_series``), so its memory does not grow with the run's
    records; only the series, the TDEV curve and the alarms grow with its
    epochs.  Each block calls ``simulation.propagate_and_detect`` (the
    first block once more for each block it grows by) and
    ``per_epoch_series`` once, and the bundle is byte-identical to that of
    one block for the whole run.
    """
    scenario = _apply_overrides(load_scenario(source), seed=seed, mode=mode, epoch_s=epoch_s)
    if out_dir is not None:
        _make_out_dir(out_dir)
    started = time.perf_counter()

    sigma = None
    if scenario.mode is RunMode.ANALYTIC:
        series, sigma = _run_analytic(scenario)
    else:
        series = _simulated_series(scenario)

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
    if sigma is not None:
        meta["analytic_sigma_ps"] = sigma
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

    rezeroed = result.series.deltas() - result.scenario.reference_ps
    with open(out / "series_rezeroed.csv", "w", encoding="utf-8") as fh:
        fh.write("epoch_start_s,delta_rezeroed_ps\n")
        for t, d in zip(result.series.times().tolist(), rezeroed.tolist()):
            fh.write(f"{t!r},\n" if math.isnan(d) else f"{t!r},{d!r}\n")

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
    if out_dir is not None:
        _make_out_dir(Path(out_dir) / figure_id)
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
