"""Campaign runner: modes, overrides, failure paths, bundle layout."""

import concurrent.futures
import dataclasses
import hashlib
import json
import re
import threading
import time

import numpy as np
import pytest

from qcsync import estimator, runner, simulation
from qcsync.attacks import AttackEvent, CoordinationRule
from qcsync.cli import main
from qcsync.errors import (
    AcquisitionError,
    ConfigurationError,
    ContractViolation,
    EmptySeriesError,
    GapRateError,
    SchemaError,
)
from qcsync.runner import load_scenario, reproduce, run_scenario
from qcsync.scenario import builtin_scenario, validate_scenario_dict

from conftest import gap_doc


def analytic_doc(**overrides):
    doc = builtin_scenario("jump_-100ps")
    doc["mode"] = "analytic"
    doc.update(overrides)
    return doc


def noise_free(doc):
    """``doc`` with every jitter of its photon chain at zero."""
    doc["source"] = {"intrinsic_correlation_jitter_ps": 0.0}
    doc["detectors"] = {"jitter_sigma_ps": 0.0}
    doc["tdc"] = {"jitter_sigma_ps": 0.0}
    doc["clock"] = {"white_phase_noise_sigma_ps": 0.0}
    return doc


class TestAnalyticMode:
    def test_jump_appears_in_delta(self):
        result = run_scenario(analytic_doc())
        deltas = result.series.deltas()
        assert np.mean(deltas[250:]) - np.mean(deltas[:250]) == pytest.approx(
            -100.0, abs=1.0
        )

    def test_noise_free_equals_closed_form(self):
        result = run_scenario(noise_free(analytic_doc()))
        deltas = result.series.deltas()
        assert result.meta["analytic_sigma_ps"] == 0.0
        assert deltas[0] == -9900.0
        assert deltas[-1] == -10000.0

    def test_baseline_follows_clock_offset_and_drift(self):
        doc = noise_free(analytic_doc())
        doc["clock"].update(offset_ps=-500.0, drift_ps_per_s=0.25)
        deltas = run_scenario(doc).series.deltas()
        t_mid = np.arange(500) + 0.5
        expected = -500.0 + 0.25 * t_mid - np.where(t_mid >= 250.0, 100.0, 0.0)
        np.testing.assert_array_equal(deltas, expected)

    def test_sigma_from_photon_chain(self):
        # 10 kHz pairs, efficiency 0.8, survival 0.5, loopback 0.5: an epoch
        # holds N_f = 1e4*0.8*0.2 = 1600 forward and N_l = 1e4*0.8*0.1 = 800
        # loopback coincidences.  Detector (110 ps FWHM) and TDC (8 ps FWHM)
        # jitter and the 1 ps correlation jitter give s_i**2 = 2194.64 and
        # s_b**2 = s_r**2 = 2193.64 ps**2, so sigma**2 = (s_i**2 + s_b**2)/N_f
        # + (s_i**2 + s_r**2)/(4*N_l) = 4.1139 ps**2.
        result = run_scenario(analytic_doc())
        assert result.meta["analytic_sigma_ps"] == pytest.approx(2.028, abs=1e-3)
        assert {p.delta_sigma_ps for p in result.series.points} == {
            result.meta["analytic_sigma_ps"]
        }
        steps = np.diff(result.series.deltas())
        steps = np.delete(steps, 249)  # the jump
        assert np.std(steps) / np.sqrt(2.0) == pytest.approx(2.028, rel=0.1)

    @pytest.mark.parametrize(
        "chain, path",
        [
            ({"detectors": {"efficiency": 0.0}}, "forward and loopback"),
            ({"channel": {"splitter_loopback_prob": 0.0}}, "loopback"),
            ({"channel": {"splitter_loopback_prob": 1.0}}, "forward"),
        ],
        ids=["efficiency_0", "loopback_0", "loopback_1"],
    )
    def test_empty_path_refused(self, chain, path):
        with pytest.raises(ConfigurationError, match=f"no coincidences on the {path} path"):
            run_scenario(analytic_doc(**chain))

    def test_deterministic_per_seed(self):
        r1 = run_scenario(analytic_doc(), seed=5)
        r2 = run_scenario(analytic_doc(), seed=5)
        np.testing.assert_array_equal(r1.series.deltas(), r2.series.deltas())

    def test_series_csv_leaves_taus_empty(self, tmp_path):
        # No photon measured a tau in an analytic run, so none is written.
        result = run_scenario(analytic_doc(), out_dir=tmp_path)
        rows = (tmp_path / "series.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[1:3] == ["", ""] for row in rows)
        back = type(result.series).from_csv(tmp_path / "series.csv")
        assert back.gap_count() == 0
        assert [p.delta_ps for p in back.points] == list(result.series.deltas())
        assert all(p.tau_ab_ps is None and p.tau_aba_ps is None for p in back.points)

    def test_epoch_override(self):
        result = run_scenario(analytic_doc(), epoch_s=2.0)
        assert len(result.series) == 250
        assert result.series.epoch_length_s == 2.0

    @pytest.mark.parametrize(
        "override",
        [{"seed": 2.9}, {"seed": True}, {"seed": "7"}, {"epoch_s": "0.5"}, {"epoch_s": True}],
        ids=["fractional-seed", "bool-seed", "text-seed", "text-epoch", "bool-epoch"],
    )
    def test_inexact_override_refused(self, override):
        # Refused as given, never rounded or parsed: 2.9 is not seed 2.
        with pytest.raises(ConfigurationError, match=next(iter(override))):
            run_scenario(analytic_doc(), **override)

    @pytest.mark.parametrize(
        "field, build",
        [
            ("mode", lambda: run_scenario(analytic_doc(), mode="bogus")),
            ("pattern", lambda: AttackEvent(pattern="bogus", amplitude_ps=1.0, start_s=0.0)),
            ("mode", lambda: CoordinationRule(mode="bogus")),
            ("scheme", lambda: dataclasses.replace(load_scenario("baseline"), scheme="bogus")),
        ],
        ids=["run-mode", "event-pattern", "coordination-mode", "scenario-scheme"],
    )
    def test_unknown_enum_value_refused(self, field, build):
        # The message starts with the field, so a scenario document's error
        # lands on that field's path.
        with pytest.raises(ConfigurationError, match=f"^{field} must be one of .*'bogus'"):
            build()

    def test_two_way_scheme_symmetric_attack_cancels(self):
        # Identical delays on both directions preserve reciprocity in the
        # two-way scheme (alpha=1, beta=-1), so delta stays at baseline.
        doc = analytic_doc(scheme="two_way")
        doc["coordination"] = {"mode": "independent"}
        doc["n_events"] = [dict(e) for e in doc["m_events"]]
        result = run_scenario(noise_free(doc))
        deltas = result.series.deltas()
        assert np.all(deltas == -9900.0)


class TestFailurePaths:
    def test_gap_rate_failure(self):
        # Five gap epochs out of 120 (4% > 1%).
        with pytest.raises(GapRateError):
            run_scenario(gap_doc(120.0, spike_width_s=5.0))

    @staticmethod
    def _one_gap_run():
        # One gap epoch out of 200 (0.5% <= 1%).
        return run_scenario(gap_doc(200.0, spike_width_s=1.0))

    def test_small_gap_fraction_tolerated(self):
        # The gap is never interpolated, and TDEV still computes.
        result = self._one_gap_run()
        assert result.series.gap_count() == 1
        assert result.tdev is not None
        assert result.meta["gap_count"] == 1

    def test_tdev_skips_gap_terms_on_full_epoch_grid(self):
        # TDEV keeps the gap epoch on the grid: at m = 1 every term holds
        # three consecutive epochs, and those touching the gap are skipped.
        result = self._one_gap_run()
        present = ~np.isnan(result.series.deltas())
        complete = present[:-2] & present[1:-1] & present[2:]
        first = result.tdev.points[0]
        assert first.m == 1
        assert first.n_terms == int(complete.sum()) < len(result.series) - 2

    def test_acquisition_failure_when_forward_channel_dark(self):
        doc = builtin_scenario("baseline")
        doc["run"]["duration_s"] = 20.0
        doc["channel"] = {"splitter_loopback_prob": 1.0}
        del doc["detection"]
        with pytest.raises(AcquisitionError):
            run_scenario(doc)

    def test_run_within_baseline_window_refused_before_simulating(self, monkeypatch):
        # The threshold monitor needs more epochs than its 60-epoch window:
        # a shorter run is refused as it is built, not after simulating.
        def simulate(scenario):
            raise AssertionError("simulated a run the threshold monitor cannot judge")

        # The runner's full simulation starts with the run's emission plan.
        monkeypatch.setattr(simulation, "plan_run", simulate)
        window = "detection.threshold.baseline_window_epochs"
        doc = builtin_scenario("baseline")
        for duration_s, issues in ((60.0, [window]), (61.0, [])):
            doc["run"]["duration_s"] = duration_s
            assert [path for path, _ in validate_scenario_dict(doc)] == issues
        doc["run"]["duration_s"] = 20.0
        with pytest.raises(SchemaError) as err:
            run_scenario(doc)
        assert err.value.issues == [(window, "must be less than the run's 20 epochs")]
        # 500 s in 10 s epochs: a run override that leaves 50 epochs.
        with pytest.raises(SchemaError) as err:
            run_scenario(builtin_scenario("baseline"), epoch_s=10.0)
        assert [path for path, _ in err.value.issues] == [window]

    def test_cli_exit_codes_for_failures(self, tmp_path):
        doc = builtin_scenario("baseline")
        doc["run"]["duration_s"] = 20.0
        doc["channel"] = {"splitter_loopback_prob": 1.0}
        del doc["detection"]
        path = tmp_path / "dark.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 2

        path = tmp_path / "gaps.json"
        path.write_text(json.dumps(gap_doc(120.0, spike_width_s=5.0)))
        assert main(["run", str(path)]) == 3

    @pytest.mark.parametrize(
        "command", [["run", "baseline"], ["reproduce", "fig4"]], ids=["run", "reproduce"]
    )
    def test_unwritable_out_dir_refused_before_simulating(
        self, tmp_path, monkeypatch, capsys, command
    ):
        # A file where the output directory would go is found before the
        # campaign runs, not when its finished bundle is written.
        def simulate(scenario):
            raise AssertionError("simulated a run whose bundle cannot be written")

        monkeypatch.setattr(simulation, "plan_run", simulate)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out"
        run = run_scenario if command[0] == "run" else reproduce
        with pytest.raises(ConfigurationError, match=re.escape(str(out))):
            run(command[1], out)
        capsys.readouterr()
        assert main([*command, "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(out) in err[0]


def unrepresentable_delay_doc(mode, event):
    """A 40 s ``jump_-100ps`` variant whose M trajectory is ``event``."""
    doc = builtin_scenario("jump_-100ps")
    doc["mode"] = mode
    doc["run"]["duration_s"] = 40.0
    # The threshold window must leave the 40 epochs more to judge.
    doc["detection"]["threshold"]["baseline_window_epochs"] = 10
    doc["m_events"] = [event]
    return doc


# exp(100/s * u) overflows float64 about 7 s after the onset.
OVERFLOWING_RAMP = {
    "pattern": "gradual",
    "amplitude_ps": -100.0,
    "start_s": 20.0,
    "behavior": {"kind": "exponential", "rate_per_s": 100.0},
}
# Finite, but far beyond the exact int64 picosecond range of a timestamp.
HUGE_JUMP = {"pattern": "jump", "amplitude_ps": 1e300, "start_s": 20.0}


class TestUnrepresentableDelay:
    @pytest.mark.parametrize("mode", ["full_sim", "analytic"])
    def test_overflowing_ramp_refused(self, mode):
        with pytest.raises(ConfigurationError, match="not finite"):
            run_scenario(unrepresentable_delay_doc(mode, OVERFLOWING_RAMP))

    def test_huge_jump_refused_in_full_sim(self):
        with pytest.raises(ConfigurationError, match="int64"):
            run_scenario(unrepresentable_delay_doc("full_sim", HUGE_JUMP))

    @pytest.mark.parametrize("event", [OVERFLOWING_RAMP, HUGE_JUMP], ids=["ramp", "jump"])
    def test_cli_run_exits_config(self, tmp_path, event):
        path = tmp_path / "unrepresentable.json"
        path.write_text(json.dumps(unrepresentable_delay_doc("full_sim", event)))
        assert main(["run", str(path)]) == 1

    @staticmethod
    def analytic_huge_jump_doc():
        # Without a detection section nothing after TDEV would notice its
        # overflow: the run would return an infinite TDEV curve.
        doc = unrepresentable_delay_doc("analytic", HUGE_JUMP)
        del doc["detection"]
        return doc

    def test_huge_jump_refused_in_analytic(self):
        with pytest.raises(ConfigurationError, match="int64"):
            run_scenario(self.analytic_huge_jump_doc())

    def test_cli_run_analytic_huge_jump_exits_config(self, tmp_path):
        path = tmp_path / "unrepresentable.json"
        path.write_text(json.dumps(self.analytic_huge_jump_doc()))
        assert main(["run", str(path)]) == 1


class TestDetectionPolicies:
    def test_auto_threshold_from_baseline_std(self):
        # threshold_ps omitted: level is 4x the calibration-window scatter,
        # so a 100 ps step fires while sub-noise steps stay quiet.
        doc = analytic_doc()
        doc["detection"] = {"threshold": {"baseline_window_epochs": 60}}
        result = run_scenario(doc)
        assert result.alarms
        assert result.detection_score.detected
        assert result.detection_score.latency_s == 0.0

        quiet_doc = analytic_doc()
        quiet_doc["m_events"] = []
        quiet_doc["detection"] = {"threshold": {"baseline_window_epochs": 60}}
        quiet = run_scenario(quiet_doc)
        assert quiet.detection_score is None  # no attack onset to score
        assert len(quiet.alarms) <= 2  # 4-sigma tail of 500 epochs

    def test_no_detection_section_means_no_alarms(self):
        doc = analytic_doc()
        del doc["detection"]
        result = run_scenario(doc)
        assert result.alarms is None
        assert result.detection_score is None


class TestReproduceBundles:
    def test_fig4_bundle_layout(self, tmp_path):
        results = reproduce("fig4", tmp_path)
        assert set(results) == {"baseline_1800s", "spike_train"}
        for name in results:
            run_dir = tmp_path / "fig4" / name
            for fname in ("series.csv", "series_rezeroed.csv", "tdev.csv", "meta.json"):
                assert (run_dir / fname).is_file(), (name, fname)
        summary = (tmp_path / "fig4" / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("name,seed,n_epochs")
        assert len(summary) == 3

    def test_unknown_figure(self):
        with pytest.raises(ConfigurationError):
            reproduce("fig12")

    def test_reproduce_via_cli(self, tmp_path, capsys):
        assert main(["reproduce", "fig4", "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fig4/spike_train" in out
        assert (tmp_path / "fig4" / "summary.csv").is_file()


class TestBuiltinFullSimExamples:
    def test_baseline_tdev_falls_as_white_noise(self):
        # White-noise-dominated baseline: TDEV falls as m^-1/2 on the octave
        # grid.  The fitted log-log slope of 500-sample white-noise series
        # spreads about -0.53 +- 0.06, and a random-walk phase reads about
        # +0.4.  Requiring every octave to fall instead fails a fifth of
        # white-noise series, on the few terms left at the largest m.
        result = run_scenario("baseline")
        m = np.array([p.m for p in result.tdev.points], dtype=float)
        slope = np.polyfit(np.log(m), np.log(result.tdev.values()), 1)[0]
        assert -0.8 <= slope <= -0.25

    def test_builtin_jump_recovers_injected_skew(self):
        from qcsync.stability import estimate_step_shift

        result = run_scenario("jump_-100ps")
        shift = estimate_step_shift(result.series, 250.0)
        assert shift == pytest.approx(-100.0, abs=3.0)


def digest_doc():
    """A 3 s, 100 kHz full simulation in 10 ms epochs at seed 31, with a
    -100 ps jump of M at 1.5 s: 300 epochs, none a gap."""
    doc = builtin_scenario("jump_-100ps")
    doc["source"] = {"pair_rate_hz": 1.0e5}
    doc["run"] = {"duration_s": 3.0, "epoch_s": 0.01, "seed": 31}
    doc["m_events"] = [{"pattern": "jump", "amplitude_ps": -100.0, "start_s": 1.5}]
    del doc["detection"]
    return doc


def counted_blocks(monkeypatch, records):
    """The series each ``per_epoch_series`` call of the next runs returns,
    with the runner's block budget set to ``records``."""
    monkeypatch.setattr(runner, "_BLOCK_RECORDS", records)
    parts = []
    series = runner.per_epoch_series

    def counting(*args):
        parts.append(series(*args))
        return parts[-1]

    monkeypatch.setattr(runner, "per_epoch_series", counting)
    return parts


class TestSeriesDigest:
    # SHA-256 of ``series.csv`` from ``digest_doc``.  Computed at 0.35.0.
    SERIES_DIGEST = "ba30cac206830daa38df0ee5f59af8768ab3a1a1a36fd0f268adccb3c858567b"

    def test_series_csv_digest_pinned(self, tmp_path):
        # Any change to a count, a peak, a sigma or the file's format shows.
        result = run_scenario(digest_doc(), tmp_path)
        # More epochs than one row block holds, so the series crosses a
        # block edge whatever the number of workers.
        config = result.scenario.estimator
        bins = round(2 * config.window_halfwidth_ps / config.bin_width_ps)
        assert len(result.series) == 300 > 8 * estimator._B_SLICE // bins
        assert result.series.gap_count() <= 3
        digest = hashlib.sha256((tmp_path / "series.csv").read_bytes()).hexdigest()
        assert digest == self.SERIES_DIGEST

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_digest_holds_in_blocks(self, tmp_path, monkeypatch, workers):
        # 330 000 records in 30 blocks of 10 epochs.  Acquisition reads the
        # first 200 000 idlers, about 2.5 s of the run, so the first block
        # takes in the blocks up to 2.5 s and five blocks follow it.
        monkeypatch.setattr(simulation, "_WORKERS", workers)
        parts = counted_blocks(monkeypatch, 11_000)
        run_scenario(digest_doc(), tmp_path)
        assert [len(part) for part in parts] == [250, 10, 10, 10, 10, 10]
        digest = hashlib.sha256((tmp_path / "series.csv").read_bytes()).hexdigest()
        assert digest == self.SERIES_DIGEST


def dead_time_doc():
    doc = digest_doc()
    doc["detectors"] = {"dead_time_ps": 50_000.0}
    return doc


def jitter_doc():
    """100 Hz for 400 s in 10 s epochs with a 100 us (1e8 ps) detector
    jitter, on a 1 ms link, with an estimator wide enough to find peaks
    that wide; a -30 us jump at 200 s."""
    doc = builtin_scenario("jump_-100ps")
    doc["source"] = {"pair_rate_hz": 100.0}
    doc["run"] = {"duration_s": 400.0, "epoch_s": 10.0, "seed": 5}
    doc["channel"] = {"one_way_delay_ps": 1e9}
    doc["detectors"] = {"jitter_sigma_ps": 1e8}
    doc["estimator"] = {
        "bin_width_ps": 2e7,
        "window_halfwidth_ps": 500_000_000,
        "coarse_bin_ps": 1e8,
        "refine_bin_ps": 1e7,
        "refine_halfwidth_ps": 500_000_000,
        "acquire_max_events": 2000,
    }
    doc["m_events"] = [{"pattern": "jump", "amplitude_ps": -3e7, "start_s": 200.0}]
    del doc["detection"]
    return doc


def offset_doc():
    """10 kHz for 40 s in 5 s epochs, Bob's clock 1 s behind: the forward
    centre is set, since the forward peak lies outside its search."""
    doc = builtin_scenario("jump_-100ps")
    doc["run"] = {"duration_s": 40.0, "epoch_s": 5.0, "seed": 3}
    doc["clock"] = {"offset_ps": -1e12}
    doc["estimator"] = {"forward_center_ps": 49_000_000 - 10**12, "acquire_max_events": 20_000}
    doc["m_events"] = [{"pattern": "jump", "amplitude_ps": -100.0, "start_s": 20.0}]
    del doc["detection"]
    return doc


class TestBlocks:
    """A full simulation run in blocks of epochs gives the series of the
    whole stream."""

    # Each document and the block budget that cuts its records into 10 to
    # 30 blocks.
    CASES = {
        "dead-50ns": (dead_time_doc, 11_000),
        "jitter-1e8": (jitter_doc, 4_400),
        "offset-1s": (offset_doc, 55_000),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_series_equals_the_whole_stream(self, monkeypatch, case):
        doc, records = self.CASES[case]
        scenario = load_scenario(doc())
        stream = simulation.run_round_trip_sim(scenario)
        want = estimator.per_epoch_series(stream, scenario.run.epoch_s, scenario.estimator)
        del stream
        assert want.gap_count() < len(want) / 4
        parts = counted_blocks(monkeypatch, records)
        # ``run_scenario``'s series, before its gap check: the 100 us
        # jitter leaves more than 1% of its epochs gaps.
        got = runner._simulated_series(scenario)
        assert len(parts) >= 3
        assert got == want

    def test_run_past_2_53_ps(self):
        # 10**4 s at 1 kHz in 10 s epochs: the epochs after 2**53 ps (about
        # 9007 s) are estimated like the others.
        doc = builtin_scenario("baseline")
        doc["source"] = {"pair_rate_hz": 1000.0}
        doc["run"].update(duration_s=1e4, epoch_s=10.0)
        del doc["detection"]
        series = run_scenario(doc).series
        assert len(series) == 1000 and series.gap_count() == 0
        assert series.points[-1].epoch_start_s * 1e12 > 2**53

    @pytest.mark.parametrize(
        "path, fields",
        [
            ("m_events", {"m_events": [{"pattern": "jump", "amplitude_ps": 1.2e15, "start_s": 10.0}]}),
            ("clock.offset_ps", {"m_events": [], "clock": {"offset_ps": 7e14}}),
        ],
    )
    def test_margin_past_the_offset_range_refused_at_load(self, monkeypatch, path, fields):
        # A +1.2e15 ps jump, or a 700 s clock offset, gives a release margin
        # of 2**49 ps or more: refused when the scenario is loaded, under the
        # field that sets the margin's largest term, before any chunk is
        # drawn, not partway through the run.
        doc = builtin_scenario("jump_-100ps")
        doc["run"].update(duration_s=20.0, epoch_s=1.0)
        doc.update(fields)
        del doc["detection"]
        assert [issue[0] for issue in validate_scenario_dict(doc)] == [path]
        started, _ = chunk_starts(monkeypatch)
        with pytest.raises(ConfigurationError, match=f"{path}: the release margin .* 2\\*\\*49 ps"):
            run_scenario(doc)
        assert started == []

    def test_zero_margin_refused(self, monkeypatch):
        # Without a margin, Bob's readings 1 s behind their emissions arrive
        # after the block they belong to was released: chunks of 0.1 s put
        # a chunk's start within 1 s above every block's end.
        monkeypatch.setattr(simulation, "_PAIR_CHUNK", 997)
        monkeypatch.setattr(simulation, "_release_margin", lambda *args: 0.0)
        counted_blocks(monkeypatch, 55_000)
        with pytest.raises(ContractViolation, match="release margin"):
            run_scenario(offset_doc())

    @pytest.mark.parametrize(
        "centre, error",
        [(None, GapRateError), (48_990_100 + 10_000, EmptySeriesError)],
        ids=["gap-rate", "empty"],
    )
    def test_gap_block_fails_as_one_block(self, monkeypatch, centre, error):
        # The +20 ns spike of M empties the forward window in epochs 60-64:
        # one whole block of 5 epochs, at 1 kHz for 120 s.  A forward centre
        # 10 ns off the peak empties it in every epoch instead.
        doc = gap_doc(120.0, spike_width_s=5.0)
        doc["estimator"] = {"acquire_max_events": 5000, "forward_center_ps": centre}
        with pytest.raises(error) as one_block:
            run_scenario(doc)
        parts = counted_blocks(monkeypatch, 5_500)
        with pytest.raises(error) as blocks:
            run_scenario(doc)
        assert str(blocks.value) == str(one_block.value)
        # Acquisition's 5000 idlers span 6.25 s, so the first block takes
        # in the second.
        assert [len(part) for part in parts] == [10] + [5] * 22
        assert parts[11].gap_count() == 5


def chunk_starts(monkeypatch, pause_s=0.0):
    """``(started, ended)``: the indices of the chunks of the next runs whose
    emission times were drawn, as each starts and as each ends, each taking
    at least ``pause_s``."""
    started, ended = [], []
    times = simulation.EmissionPlan.times

    def recording(plan, i):
        started.append(i)
        time.sleep(pause_s)
        value = times(plan, i)
        ended.append(i)
        return value

    monkeypatch.setattr(simulation.EmissionPlan, "times", recording)
    return started, ended


class TestCampaignPool:
    """A campaign's blocks, and the campaigns of one process, run on one pool
    of threads, and a failed block leaves no work on it."""

    def test_runs_share_one_pool(self, monkeypatch):
        made = []

        class Counting(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counting)
        monkeypatch.setattr(simulation, "_pool", None, raising=False)
        parts = counted_blocks(monkeypatch, 11_000)
        try:
            run_scenario(digest_doc())
            threads = threading.active_count()
            run_scenario(digest_doc())
            assert threading.active_count() <= threads
        finally:
            for pool in made:
                pool.shutdown()
        assert len(parts) == 12
        assert len(made) == 1

    @staticmethod
    def failing_runs(monkeypatch):
        """What each failure case sets up, and the error it raises."""

        def zero_margin():
            # As TestBlocks.test_zero_margin_refused.
            monkeypatch.setattr(simulation, "_release_margin", lambda *args: 0.0)
            return offset_doc(), ContractViolation

        def refused_chunk():
            # Chunks from 2 s on refuse their readings on a worker thread.
            quantize = simulation._quantize

            def refusing(times, resolution_ps, origin):
                if origin >= 2 * 10**12:
                    raise ConfigurationError("readings refused")
                return quantize(times, resolution_ps, origin)

            monkeypatch.setattr(simulation, "_quantize", refusing)
            return digest_doc(), ConfigurationError

        def refused_block():
            # The third block's estimate fails after its chunks have run.
            series = runner.per_epoch_series
            calls = []

            def refusing(*args):
                calls.append(None)
                if len(calls) == 3:
                    raise AcquisitionError("block refused")
                return series(*args)

            monkeypatch.setattr(runner, "per_epoch_series", refusing)
            return digest_doc(), AcquisitionError

        return {"zero-margin": zero_margin, "chunk": refused_chunk, "block": refused_block}

    @pytest.mark.parametrize("case", ["zero-margin", "chunk", "block"])
    def test_failed_run_leaves_no_queued_work(self, monkeypatch, tmp_path, case):
        # Chunks of 997 pairs, each taking at least 10 ms: a chunk still
        # running or queued when the error is raised would show.
        monkeypatch.setattr(simulation, "_PAIR_CHUNK", 997)
        monkeypatch.setattr(runner, "_BLOCK_RECORDS", 11_000)
        doc, error = self.failing_runs(monkeypatch)[case]()
        started, ended = chunk_starts(monkeypatch, pause_s=0.01)
        with pytest.raises(error):
            run_scenario(doc)
        assert sorted(ended) == sorted(started)
        count = len(started)
        time.sleep(0.2)
        assert len(started) == count
        # The next run in the process is untouched.
        monkeypatch.undo()
        run_scenario(digest_doc(), tmp_path)
        digest = hashlib.sha256((tmp_path / "series.csv").read_bytes()).hexdigest()
        assert digest == TestSeriesDigest.SERIES_DIGEST


class TestMetadata:
    def test_meta_echoes_resolved_scenario(self, tmp_path):
        result = run_scenario(analytic_doc(), tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        echoed = meta["scenario"]
        # Defaults are filled in so divergence from the reference setup is
        # auditable.
        assert echoed["source"]["pair_rate_hz"] == 10_000.0
        assert echoed["detectors"]["efficiency"] == 0.8
        assert echoed["tdc"]["resolution_ps"] == 1.0
        assert meta["config_hash"] == result.scenario.config_hash()
        assert meta["reference_ps"] == -9900.0
        assert "analytic" not in echoed
        assert meta["analytic_sigma_ps"] == result.series.points[0].delta_sigma_ps
