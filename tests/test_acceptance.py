"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.

The heavy fixtures (the 500 s jump grid with 5 seeds per amplitude, the
spike train and the two gradual campaigns) are shared across criteria.
"""

import math
import sys
import time

import numpy as np
import pytest

from qcsync.attacks import (
    AttackEvent,
    AttackPattern,
    CoordinationMode,
    CoordinationRule,
    DelayTrajectory as _DT,
    LinearBehavior,
    SchemeKind,
    derive_n_from_m,
    eval_event,
    eval_trajectory,
    tampered_clock_difference,
)
from qcsync.detection import AlarmKind
from qcsync.runner import run_scenario
from qcsync.stability import default_m_grid, estimate_step_shift, tdev

from test_stability import tdev_brute

JUMP_AMPLITUDES = (-10.0, -50.0, -100.0, -200.0, -500.0)
SEEDS_PER_AMPLITUDE = 5
SPIKE_ONSETS = (330.0, 662.0, 1022.0, 1376.0, 1709.0)
SPIKE_AMPLITUDES = (-500.0, -400.0, -300.0, -200.0, -100.0)


@pytest.fixture
def report(capfd):
    """Emit one PASS/FAIL line per criterion on the real terminal."""

    def _report(criterion, name, ok, detail=""):
        suffix = f"  ({detail})" if detail else ""
        line = f"[ACCEPTANCE {criterion}] {name}: {'PASS' if ok else 'FAIL'}{suffix}"
        with capfd.disabled():
            sys.stdout.write(f"\n{line}\n")
            sys.stdout.flush()
        assert ok, f"criterion {criterion} ({name}) failed: {detail}"

    return _report


def slope_with_se(t, y):
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    tc = t - t.mean()
    sxx = float(np.dot(tc, tc))
    slope = float(np.dot(tc, y - y.mean())) / sxx
    resid = y - y.mean() - slope * tc
    se = math.sqrt(float(np.dot(resid, resid)) / (y.size - 2) / sxx)
    return slope, se


@pytest.fixture(scope="module")
def fig3_grid():
    """5 amplitudes x 5 seeds of the 500 s hidden-jump scenario."""
    runs = {}
    started = time.perf_counter()
    for i, amp in enumerate(JUMP_AMPLITUDES):
        for j in range(SEEDS_PER_AMPLITUDE):
            seed = 20_000 + 100 * i + j
            runs[(amp, j)] = run_scenario(f"jump_{int(amp)}ps", seed=seed)
    wall = time.perf_counter() - started
    return runs, wall


@pytest.fixture(scope="module")
def fig4_results():
    return {name: run_scenario(name) for name in ("baseline_1800s", "spike_train")}


@pytest.fixture(scope="module")
def fig5_results():
    names = ("baseline_3500s", "gradual_slow", "gradual_fast_reversing")
    return {name: run_scenario(name) for name in names}


class TestCriterion1JumpRecovery:
    def test_injected_amplitude_recovered(self, fig3_grid, report):
        runs, wall = fig3_grid
        worst = 0.0
        for (amp, j), result in runs.items():
            shift = estimate_step_shift(result.series, 250.0)
            worst = max(worst, abs(shift - amp))
        ok = worst <= 3.0 and wall < 120.0
        report(
            1,
            "jump recovery",
            ok,
            f"worst |shift - A| = {worst:.2f} ps, grid wall time {wall:.0f} s",
        )


class TestCriterion2RoundTripConservation:
    def test_tau_aba_slope_consistent_with_zero(self, fig3_grid, fig4_results, report):
        runs, _ = fig3_grid
        series_list = [r.series for r in runs.values()]
        series_list += [r.series for r in fig4_results.values()]
        worst_z = 0.0
        for series in series_list:
            taba = series.tau_abas()
            t = series.times()
            keep = ~np.isnan(taba)
            slope, se = slope_with_se(t[keep], taba[keep])
            worst_z = max(worst_z, abs(slope) / se)
        ok = worst_z <= 3.0
        report(2, "round-trip conservation", ok, f"worst |slope|/SE = {worst_z:.2f}")


class TestCriterion3SpikeSignature:
    def test_five_single_epoch_excursions_and_tdev_shape(self, fig4_results, report):
        spike = fig4_results["spike_train"].series
        base = fig4_results["baseline_1800s"].series
        deltas = spike.deltas()
        sigmas = np.array(
            [p.delta_sigma_ps if p.delta_sigma_ps else np.nan for p in spike.points]
        )
        baseline_mean = np.nanmean(deltas[:300])

        excursions = [int(k) for k in np.flatnonzero(np.abs(deltas - baseline_mean) > 50.0)]
        expected_epochs = [int(t) for t in SPIKE_ONSETS]
        placement_ok = excursions == expected_epochs

        magnitude_ok = True
        worst = 0.0
        for epoch, amp in zip(expected_epochs, SPIKE_AMPLITUDES):
            measured = deltas[epoch] - baseline_mean
            tol = 3.0 * sigmas[epoch]
            worst = max(worst, abs(measured - amp))
            if not abs(measured - amp) <= tol:
                magnitude_ok = False

        spike_curve = tdev(deltas[~np.isnan(deltas)], 1.0)
        base_curve = tdev(base.deltas()[~np.isnan(base.deltas())], 1.0)
        small_tau_ratio = spike_curve.points[0].tdev_ps / base_curve.points[0].tdev_ps
        decay_ratio = spike_curve.points[-1].tdev_ps / spike_curve.points[0].tdev_ps
        tdev_ok = small_tau_ratio >= 5.0 and decay_ratio < 0.2

        ok = placement_ok and magnitude_ok and tdev_ok
        report(
            3,
            "spike signature",
            ok,
            f"excursions at {excursions}, worst magnitude error {worst:.1f} ps, "
            f"TDEV small-tau ratio {small_tau_ratio:.1f}x, decay ratio {decay_ratio:.3f}",
        )


class TestCriterion4GradualOrdering:
    def test_tdev_ordering_near_1000s(self, fig5_results, report):
        values = {}
        for name, result in fig5_results.items():
            point = result.tdev.nearest(1000.0)
            values[name] = point.tdev_ps
        attack2 = values["gradual_fast_reversing"]
        attack1 = values["gradual_slow"]
        base = values["baseline_3500s"]
        ok = attack2 > attack1 > base and attack2 >= 10.0 * base
        report(
            4,
            "gradual ordering",
            ok,
            f"TDEV@~1000s: attack2 {attack2:.2f} ps > attack1 {attack1:.2f} ps > "
            f"baseline {base:.3f} ps, ratio {attack2 / base:.0f}x",
        )


def closed_form(result, t_mid):
    """The noise-free clock difference of ``result``'s scenario at ``t_mid``."""
    scenario = result.scenario
    clock = scenario.clock
    return tampered_clock_difference(
        clock.offset_ps + clock.drift_ps_per_s * t_mid,
        eval_trajectory(scenario.m_trajectory(), t_mid),
        eval_trajectory(scenario.n_trajectory(), t_mid),
        scenario.scheme,
    )


class TestCriterion5AnalyticBridge:
    def test_full_sim_matches_closed_form(self, fig3_grid, report):
        runs, _ = fig3_grid
        scheme = SchemeKind.ROUND_TRIP
        total = 0
        within = 0
        for result in runs.values():
            scenario = result.scenario
            clock = scenario.clock
            m_traj = scenario.m_trajectory()
            n_traj = scenario.n_trajectory()
            for p in result.series.points:
                if p.is_gap:
                    continue
                t_mid = p.epoch_start_s + 0.5 * result.series.epoch_length_s
                raw = clock.offset_ps + clock.drift_ps_per_s * t_mid
                predicted = tampered_clock_difference(
                    raw,
                    eval_trajectory(m_traj, t_mid),
                    eval_trajectory(n_traj, t_mid),
                    scheme,
                )
                total += 1
                if abs(p.delta_ps - predicted) <= 3.0 * p.delta_sigma_ps:
                    within += 1
        fraction = within / total
        ok = fraction >= 0.99
        report(
            5,
            "analytic-simulation bridge",
            ok,
            f"{within}/{total} epochs within 3 sigma ({100 * fraction:.2f}%)",
        )


class TestCriterion6TdevOracle:
    def test_against_definition_and_known_limits(self, rng, report):
        worst_rel = 0.0
        for _ in range(100):
            n = int(rng.integers(12, 2001))
            scale = float(rng.uniform(0.1, 100.0))
            x = rng.normal(0.0, scale, n) + float(rng.uniform(-1e4, 1e4))
            grid = default_m_grid(n)
            fast = tdev(x, 1.0, grid).values()
            brute = np.asarray(tdev_brute(x, 1.0, grid))
            rel = np.max(np.abs(fast - brute) / brute)
            worst_rel = max(worst_rel, float(rel))
        oracle_ok = worst_rel <= 1e-12

        const_ok = np.all(tdev(np.full(256, 3.75), 1.0).values() == 0.0)
        i = np.arange(256, dtype=float)
        ramp_ok = np.all(tdev(2.0 + 0.5 * i, 1.0).values() == 0.0)

        white = rng.normal(0.0, 3.0, 10_000)
        curve = tdev(white, 1.0)
        slope = np.polyfit(np.log(curve.taus()), np.log(curve.values()), 1)[0]
        slope_ok = abs(slope + 0.5) <= 0.1

        ok = oracle_ok and const_ok and ramp_ok and slope_ok
        report(
            6,
            "TDEV oracle",
            ok,
            f"worst rel err {worst_rel:.2e}, white-noise slope {slope:.3f}",
        )


class TestCriterion7AttackAlgebra:
    def test_randomized_property_suite(self, report):
        rng = np.random.default_rng(7777)
        failures = 0
        cases = 10_000
        rule = CoordinationRule(CoordinationMode.PROPORTIONAL, -1.0)
        for _ in range(cases):
            t0 = float(rng.uniform(0.0, 1e3))
            if eval_event(AttackEvent(AttackPattern.JUMP, 1.0, t0), t0) != 1.0:
                failures += 1

            events = []
            for _ in range(int(rng.integers(1, 4))):
                kind = int(rng.integers(0, 3))
                amp = float(rng.uniform(-500.0, 500.0))
                start = float(rng.uniform(0.0, 100.0))
                if kind == 0:
                    events.append(AttackEvent(AttackPattern.JUMP, amp, start))
                elif kind == 1:
                    events.append(
                        AttackEvent(
                            AttackPattern.SPIKE, amp, start, width_s=float(rng.uniform(0.5, 10.0))
                        )
                    )
                else:
                    events.append(
                        AttackEvent(
                            AttackPattern.GRADUAL,
                            amp,
                            start,
                            behavior=LinearBehavior(float(rng.uniform(0.1, 2.0))),
                            step_interval_s=float(rng.choice([0.0, 10.0])),
                        )
                    )
            split = int(rng.integers(0, len(events) + 1))
            traj_a = _DT(tuple(events[:split]))
            traj_b = _DT(tuple(events[split:]))
            both = _DT(tuple(events))
            t = float(rng.uniform(0.0, 150.0))
            if abs(
                eval_trajectory(both, t)
                - (eval_trajectory(traj_a, t) + eval_trajectory(traj_b, t))
            ) > 1e-9:
                failures += 1

            # Dyadic start/width keep start + width exactly representable,
            # so the half-open closing boundary is testable exactly.
            amp = float(rng.uniform(-500.0, 500.0))
            start = float(rng.integers(0, 6400)) / 64.0
            width = float(rng.integers(32, 640)) / 64.0
            pulse = AttackEvent(AttackPattern.SPIKE, amp, start, width_s=width)
            inside = eval_event(pulse, start + 0.5 * width)
            at_open = eval_event(pulse, start)
            before = eval_event(pulse, start - 1e-6)
            at_close = eval_event(pulse, start + width)
            if not (inside == amp and at_open == amp and before == 0.0 and at_close == 0.0):
                failures += 1

            n_traj = derive_n_from_m(both, rule)
            if abs(eval_trajectory(both, t) + eval_trajectory(n_traj, t)) > 1e-9:
                failures += 1
        ok = failures == 0
        report(7, "attack algebra", ok, f"{cases} randomized cases, {failures} failures")


class TestCriterion8StealthDetectionGap:
    def test_threshold_and_cusum_split(self, fig3_grid, report):
        runs, _ = fig3_grid

        # A -500 ps jump must trip the 200 ps threshold monitor at onset.
        big = runs[(-500.0, 0)]
        threshold_alarms = [
            a for a in big.alarms if a.kind is AlarmKind.THRESHOLD
        ]
        big_ok = bool(threshold_alarms) and threshold_alarms[0].epoch_start_s - 250.0 <= 1.0

        # A -10 ps jump must never trip it, across 20 seeds.
        quiet = 0
        total = 0
        for j in range(SEEDS_PER_AMPLITUDE):
            result = runs[(-10.0, j)]
            total += 1
            if not [a for a in result.alarms if a.kind is AlarmKind.THRESHOLD]:
                quiet += 1
        for j in range(20 - total):
            result = run_scenario("jump_-10ps", seed=30_000 + j)
            total += 1
            if not [a for a in result.alarms if a.kind is AlarmKind.THRESHOLD]:
                quiet += 1
        small_ok = quiet == total == 20

        # The slow -4 ps / 35 s ramp must be caught by CUSUM while the
        # threshold monitor is still silent and the accumulated shift is
        # below 50 ps.
        gradual = run_scenario("gradual_fast_reversing")
        drift_alarms = [a for a in gradual.alarms if a.kind is AlarmKind.DRIFT]
        threshold_times = [
            a.epoch_start_s for a in gradual.alarms if a.kind is AlarmKind.THRESHOLD
        ]
        cusum_ok = False
        detect_time = None
        shift_at_detect = None
        if drift_alarms:
            detect_time = drift_alarms[0].epoch_start_s
            shift_at_detect = eval_trajectory(
                gradual.scenario.m_trajectory(), detect_time
            )
            threshold_silent = not [t for t in threshold_times if t <= detect_time]
            cusum_ok = abs(shift_at_detect) < 50.0 and threshold_silent

        ok = big_ok and small_ok and cusum_ok
        report(
            8,
            "stealth/detection gap",
            ok,
            f"-500 ps alarm at onset: {big_ok}; -10 ps silent {quiet}/{total}; "
            f"CUSUM detect at {detect_time} s with shift {shift_at_detect} ps",
        )


class TestCriterion9Determinism:
    def test_rerun_byte_identical(self, tmp_path, report):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        run_scenario("jump_-100ps", out1)
        run_scenario("jump_-100ps", out2)
        files = ("series.csv", "series_rezeroed.csv", "tdev.csv", "alarms.csv")
        same = {
            name: (out1 / name).read_bytes() == (out2 / name).read_bytes()
            for name in files
        }
        ok = all(same.values())
        report(9, "determinism", ok, f"byte-identical: {same}")


class TestCriterion10SigmaBridge:
    def test_full_sim_scatter_matches_analytic_sigma(self, fig4_results, fig5_results, report):
        """Full simulation scatters about the closed form as analytic runs do.

        The five runs share the default photon chain at 5 kHz.  An epoch
        then holds N_f = 5e3 * 0.8 * (0.5 * 0.5 * 0.8) = 800 forward and
        N_l = 5e3 * 0.8 * (0.5 * 0.5 * 0.5 * 0.8) = 400 loopback
        coincidences.  Detector (110 ps FWHM) and TDC (8 ps FWHM) jitter
        give every record s**2 = 2193.64 ps**2, and the idler adds the 1 ps
        correlation jitter, so delta = tau_ab - tau_aba / 2 has
        sigma**2 = (2 s**2 + 1) / N_f + (2 s**2 + 1) / (4 N_l) = 8.2278 ps**2,
        sigma = 2.868 ps.
        """
        fwhm = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        pair_sigma2 = 2.0 * ((110.0 * fwhm) ** 2 + (8.0 * fwhm) ** 2) + 1.0
        n_f = 5e3 * 0.8 * (0.5 * 0.5 * 0.8)
        n_l = 5e3 * 0.8 * (0.5 * 0.5 * 0.5 * 0.8)
        expected = math.sqrt(pair_sigma2 / n_f + pair_sigma2 / (4.0 * n_l))
        ok = abs(expected - 2.868) <= 1e-3
        details = [f"formula sigma {expected:.4f} ps"]
        for name, result in {**fig4_results, **fig5_results}.items():
            analytic = run_scenario(name, mode="analytic")
            sigma = analytic.meta["analytic_sigma_ps"]
            usable = [p for p in result.series.points if not p.is_gap]
            t_mid = np.array([p.epoch_start_s for p in usable]) + 0.5
            residuals = np.array([p.delta_ps for p in usable]) - closed_form(result, t_mid)
            worst_z = float(np.max(np.abs(residuals) / [p.delta_sigma_ps for p in usable]))
            scatter = float(np.std(residuals)) / sigma
            tdev_ratio = analytic.tdev.points[0].tdev_ps / result.tdev.points[0].tdev_ps
            ok = ok and abs(sigma - 2.868) <= 1e-3 and worst_z <= 5.5
            ok = ok and abs(scatter - 1.0) <= 0.05 and abs(tdev_ratio - 1.0) <= 0.05
            details.append(
                f"{name}: max |z| {worst_z:.1f}, residual std / sigma {scatter:.3f}, "
                f"TDEV(1 s) analytic / full {tdev_ratio:.3f}"
            )
        report(10, "sigma-level bridge", ok, "; ".join(details))
