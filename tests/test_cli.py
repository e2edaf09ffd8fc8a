"""CLI surface: subcommands, exit codes, output files."""

import json
import re
from pathlib import Path

import pytest

import qcsync
from qcsync import cli
from qcsync.cli import main
from qcsync.detection import ThresholdConfig
from qcsync.scenario import builtin_scenario


@pytest.fixture
def analytic_scenario_file(tmp_path):
    doc = builtin_scenario("jump_-100ps")
    doc["mode"] = "analytic"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


class TestVersion:
    def test_package_version_matches_pyproject(self):
        # Both are bumped by hand; a regex instead of tomllib runs on 3.10.
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
        assert match is not None
        assert match.group(1) == qcsync.__version__


class TestRun:
    def test_analytic_run_writes_bundle(self, analytic_scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", str(analytic_scenario_file), "--out-dir", str(out)])
        assert code == 0
        for name in ("series.csv", "series_rezeroed.csv", "tdev.csv", "alarms.csv",
                     "score.json", "meta.json"):
            assert (out / name).is_file(), name
        meta = json.loads((out / "meta.json").read_text())
        assert meta["mode"] == "analytic"
        assert meta["gap_count"] == 0
        assert "config_hash" in meta

    def test_mode_override_and_seed(self, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        args = ["run", "jump_-100ps", "--mode", "analytic", "--seed", "9"]
        assert main(args + ["--out-dir", str(out1)]) == 0
        assert main(args + ["--out-dir", str(out2)]) == 0
        assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()
        assert (out1 / "tdev.csv").read_bytes() == (out2 / "tdev.csv").read_bytes()

    def test_negative_seed_exits_config(self, capsys):
        assert main(["run", "baseline", "--seed", "-1", "--mode", "analytic"]) == 1
        assert "seed" in capsys.readouterr().err

    def test_full_sim_override_needs_round_trip(self, tmp_path, capsys):
        doc = builtin_scenario("jump_-100ps")
        doc.update(scheme="two_way", mode="analytic")
        path = tmp_path / "two_way.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--mode", "full_sim"]) == 1
        assert "round_trip" in capsys.readouterr().err

    def test_unknown_scenario_exits_config(self, capsys):
        assert main(["run", "definitely_not_a_scenario"]) == 1
        assert "builtin" in capsys.readouterr().err

    def test_rezeroed_series_applies_reference(self, analytic_scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["run", str(analytic_scenario_file), "--out-dir", str(out)])
        lines = (out / "series_rezeroed.csv").read_text().splitlines()
        assert lines[0] == "epoch_start_s,delta_rezeroed_ps"
        first = float(lines[1].split(",")[1])
        assert abs(first) < 50.0  # raw sits near -9900, reference removes it


class TestValidate:
    def test_valid_file(self, analytic_scenario_file, capsys):
        assert main(["validate", str(analytic_scenario_file)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_file_lists_issues(self, tmp_path, capsys):
        doc = builtin_scenario("baseline")
        doc["m_events"] = [
            {"pattern": "spike", "amplitude_ps": -1.0, "start_s": 1.0, "width_s": 0.0}
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        assert "width_s" in capsys.readouterr().err

    def test_nan_reference_refused(self, tmp_path, capsys):
        doc = builtin_scenario("baseline")
        doc["reference_ps"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        assert "NaN" in path.read_text()
        assert main(["validate", str(path)]) == 1
        assert f"{path}: reference_ps: must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("window_halfwidth_ps", 10**300),
            ("bin_width_ps", 1e-300),
            ("bin_width_ps", 1e-9),
            ("forward_center_ps", 10**300),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_unusable_estimator_window_fails_closed(self, tmp_path, capsys, command, field, value):
        # The document validated, and a full-simulation run then died in a
        # raw ValueError or OverflowError.
        doc = builtin_scenario("jump_-100ps")
        doc["run"]["duration_s"] = 80.0
        doc["estimator"] = {field: value}
        path = tmp_path / "window.json"
        path.write_text(json.dumps(doc))
        out = ["--out-dir", str(tmp_path / "out")] if command == "run" else []
        assert main([command, str(path), *out]) == 1
        err = capsys.readouterr().err
        assert f"estimator.{field}: {field} " in err and "Traceback" not in err

    def test_delay_beyond_the_coarse_window_fails_closed(self, tmp_path, capsys):
        # The document validated, and a run exited 1 at acquisition only
        # after simulating.
        doc = builtin_scenario("jump_-100ps")
        doc["channel"] = {"one_way_delay_ps": 5e9}
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "channel.one_way_delay_ps: coarse_bin_ps makes a window of more than 2**24" in err
        assert "Traceback" not in err

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["validate", str(path)]) == 1

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_not_utf8_fails_closed(self, tmp_path, capsys, command):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"a": "\xff"}')
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]


class TestTdevAndDetect:
    def test_tdev_from_series_csv(self, analytic_scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", str(analytic_scenario_file), "--out-dir", str(out)])
        curve_path = tmp_path / "curve.csv"
        assert main(["tdev", str(out / "series.csv"), "--out", str(curve_path)]) == 0
        lines = curve_path.read_text().splitlines()
        assert lines[0] == "tau_s,tdev_ps,m,n_terms"
        assert len(lines) > 3

    def test_tdev_printed_equals_written(self, analytic_scenario_file, tmp_path, capsysbinary):
        out = tmp_path / "out"
        main(["run", str(analytic_scenario_file), "--out-dir", str(out)])
        curve_path = tmp_path / "curve.csv"
        assert main(["tdev", str(out / "series.csv"), "--out", str(curve_path)]) == 0
        capsysbinary.readouterr()
        assert main(["tdev", str(out / "series.csv")]) == 0
        assert capsysbinary.readouterr().out == curve_path.read_bytes()

    def test_tdev_nearest_tau_report(self, analytic_scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", str(analytic_scenario_file), "--out-dir", str(out)])
        capsys.readouterr()
        assert main(["tdev", str(out / "series.csv"), "--tau", "100", "--tau", "10"]) == 0
        report = capsys.readouterr().out
        assert "tau 100 s -> nearest m=128" in report
        assert "tau 10 s -> nearest m=8" in report

    def test_detect_threshold_and_score(self, analytic_scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", str(analytic_scenario_file), "--out-dir", str(out)])
        code = main(
            [
                "detect",
                str(out / "series.csv"),
                "--threshold-ps",
                "50",
                "--onset-s",
                "250",
                "--out-dir",
                str(tmp_path / "det"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert '"detected": true' in captured
        assert (tmp_path / "det" / "alarms.csv").is_file()

    @pytest.mark.parametrize(
        "flags, window",
        [
            (["--threshold-ps", "50"], ThresholdConfig().baseline_window_epochs),
            (["--threshold-ps", "50", "--baseline-window", "20"], 20),
            (["--baseline-window", "30", "--cusum-k", "0.02", "--cusum-h", "15"], 30),
            (["--baseline-window", "30"], 30),
        ],
    )
    def test_detect_baseline_window(self, analytic_scenario_file, tmp_path, monkeypatch,
                                    flags, window):
        # Without the flag the window is ThresholdConfig's own default; without
        # --threshold-ps the window still runs the monitor at its default level.
        out = tmp_path / "out"
        main(["run", str(analytic_scenario_file), "--out-dir", str(out)])
        seen = []
        monkeypatch.setattr(cli, "collect_alarms", lambda s, d: seen.extend(d) or [])
        assert main(["detect", str(out / "series.csv"), *flags]) == 0
        level = 50.0 if "--threshold-ps" in flags else None
        assert seen[0][1] == ThresholdConfig(baseline_window_epochs=window, threshold_ps=level)

    def test_detect_requires_a_detector(self, analytic_scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["run", str(analytic_scenario_file), "--out-dir", str(out)])
        assert main(["detect", str(out / "series.csv")]) == 1

    @pytest.mark.parametrize("tau", ["nan", "inf", "-5", "0"])
    def test_tdev_tau_must_be_positive_and_finite(self, analytic_scenario_file, tmp_path,
                                                  capsys, tau):
        # An argmin over NaN distances used to report the m = 1 point.
        out = tmp_path / "out"
        main(["run", str(analytic_scenario_file), "--out-dir", str(out)])
        capsys.readouterr()
        curve_path = tmp_path / "curve.csv"
        args = ["tdev", str(out / "series.csv"), "--tau", "10", "--tau", tau]
        assert main(args + ["--out", str(curve_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not curve_path.exists()
        assert re.fullmatch(r"error: tau_s must be a finite number > 0: .*\n", captured.err)

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_series_fails_closed(self, tmp_path, capsys, kind):
        path = tmp_path / "series.csv"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"epoch_start_s,tau_ab_ps,tau_aba_ps,delta_ps\n0.0,\xff\xfe,,\n")
        for command in (["tdev"], ["detect", "--threshold-ps", "50"]):
            assert main([command[0], str(path), *command[1:]]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]
