"""Campaign runner: modes, overrides, failure paths, bundle layout."""

import json

import numpy as np
import pytest

from qcsync.cli import main
from qcsync.errors import AcquisitionError, ConfigurationError, GapRateError
from qcsync.runner import reproduce, run_scenario
from qcsync.scenario import builtin_scenario

from conftest import gap_doc


def analytic_doc(**overrides):
    doc = builtin_scenario("jump_-100ps")
    doc["mode"] = "analytic"
    doc.update(overrides)
    return doc


class TestAnalyticMode:
    def test_jump_appears_in_delta(self):
        result = run_scenario(analytic_doc())
        deltas = result.series.deltas()
        assert np.mean(deltas[250:]) - np.mean(deltas[:250]) == pytest.approx(
            -100.0, abs=1.0
        )

    def test_noise_free_equals_closed_form(self):
        doc = analytic_doc()
        doc["analytic"]["noise_sigma_ps"] = 0.0
        result = run_scenario(doc)
        deltas = result.series.deltas()
        assert deltas[0] == -9900.0
        assert deltas[-1] == -10000.0

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

    def test_mode_override_needs_noise_model(self):
        doc = builtin_scenario("baseline")
        del doc["analytic"]
        with pytest.raises(ConfigurationError):
            run_scenario(doc, mode="analytic")

    def test_epoch_override(self):
        result = run_scenario(analytic_doc(), epoch_s=2.0)
        assert len(result.series) == 250
        assert result.series.epoch_length_s == 2.0

    def test_two_way_scheme_symmetric_attack_cancels(self):
        # Identical delays on both directions preserve reciprocity in the
        # two-way scheme (alpha=1, beta=-1), so delta stays at baseline.
        doc = analytic_doc(scheme="two_way")
        doc["coordination"] = {"mode": "independent"}
        doc["n_events"] = [dict(e) for e in doc["m_events"]]
        doc["analytic"]["noise_sigma_ps"] = 0.0
        result = run_scenario(doc)
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
    def test_baseline_tdev_monotone_on_octave_grid(self):
        # White-noise-dominated baseline: TDEV falls with averaging time.
        result = run_scenario("baseline")
        values = result.tdev.values()
        assert np.all(np.diff(values) < 0)

    def test_builtin_jump_recovers_injected_skew(self):
        from qcsync.stability import estimate_step_shift

        result = run_scenario("jump_-100ps")
        shift = estimate_step_shift(result.series, 250.0)
        assert shift == pytest.approx(-100.0, abs=3.0)


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
