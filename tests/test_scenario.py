"""Scenario schema validation, builtins and trajectory wiring."""

import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from qcsync.attacks import eval_trajectory
from qcsync.errors import ConfigurationError, SchemaError
from qcsync.estimator import EstimatorConfig
from qcsync.runner import load_scenario
from qcsync.scenario import (
    FIGURE_IDS,
    AttackScenario,
    builtin_names,
    builtin_scenario,
    figure_bundle,
    validate_scenario,
    validate_scenario_dict,
)


def minimal_doc(**overrides):
    doc = {
        "schema_version": 1,
        "name": "unit",
        "scheme": "round_trip",
        "mode": "analytic",
        "run": {"duration_s": 100.0, "epoch_s": 1.0, "seed": 3},
        "coordination": {"mode": "proportional", "n": -1.0},
        "m_events": [],
        "analytic": {"noise_sigma_ps": 2.0, "baseline_delta_ps": -9900.0},
    }
    doc.update(overrides)
    return doc


def _bench_workload_docs():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: module.scenario_doc(name) for name in module.WORKLOADS}


def _gradual(behavior):
    event = {"pattern": "gradual", "amplitude_ps": -2.0, "start_s": 5.0, "behavior": behavior}
    return minimal_doc(m_events=[event])


_ROUNDTRIP_DOCS = {
    **{name: builtin_scenario(name) for name in builtin_names()},
    **_bench_workload_docs(),
    "threshold_without_level": minimal_doc(
        detection={"threshold": {"baseline_window_epochs": 30}}
    ),
    "independent_with_n_events": minimal_doc(
        coordination={"mode": "independent"},
        n_events=[{"pattern": "jump", "amplitude_ps": 5.0, "start_s": 1.0}],
    ),
    "linear": _gradual({"kind": "linear", "rate_per_step": 0.5}),
    "logarithmic": _gradual({"kind": "logarithmic", "scale_s": 50.0}),
    "exponential": _gradual({"kind": "exponential", "rate_per_s": 0.002}),
    "polynomial": _gradual({"kind": "polynomial", "coefficients": [0.01, 0.0001]}),
    "spike": minimal_doc(
        m_events=[{"pattern": "spike", "amplitude_ps": -300.0, "start_s": 40.0, "width_s": 2.0}]
    ),
}

# One changed value per hashed setting: the seed and every estimator field.
_HASHED_CHANGES = [("run", "seed", 4)] + [
    ("estimator", f.name, 1234 if f.default is None else 2 * f.default)
    for f in dataclasses.fields(EstimatorConfig)
]


class TestBuiltins:
    def test_all_builtins_validate(self):
        for name in builtin_names():
            issues = validate_scenario_dict(builtin_scenario(name))
            assert issues == [], f"{name}: {issues}"

    def test_builtin_names_cover_reference_grid(self):
        names = builtin_names()
        for amp in (-10, -50, -100, -200, -500):
            assert f"jump_{amp}ps" in names
        assert "baseline" in names
        assert "spike_train" in names
        assert "gradual_slow" in names
        assert "gradual_fast_reversing" in names

    def test_figure_bundles_reference_builtins(self):
        for fig in FIGURE_IDS:
            for name in figure_bundle(fig):
                assert name in builtin_names()

    def test_unknown_builtin(self):
        with pytest.raises(ConfigurationError):
            builtin_scenario("nope")
        with pytest.raises(ConfigurationError):
            figure_bundle("fig9")

    def test_spike_train_amplitude_ordering(self):
        doc = builtin_scenario("spike_train")
        onsets = [e["start_s"] for e in doc["m_events"]]
        amps = [e["amplitude_ps"] for e in doc["m_events"]]
        assert onsets == [330.0, 662.0, 1022.0, 1376.0, 1709.0]
        assert amps == [-500.0, -400.0, -300.0, -200.0, -100.0]


class TestValidation:
    def test_minimal_document_valid(self):
        assert validate_scenario_dict(minimal_doc()) == []

    def test_unknown_top_level_field(self):
        issues = validate_scenario_dict(minimal_doc(fooo=1))
        assert ("fooo", "unknown field") in issues

    def test_unknown_nested_field(self):
        doc = minimal_doc()
        doc["channel"] = {"one_way_delay_ps": 1e6, "badkey": 1}
        issues = validate_scenario_dict(doc)
        assert any(path == "channel.badkey" for path, _ in issues)

    def test_spike_zero_width_names_field(self):
        doc = minimal_doc()
        doc["m_events"] = [
            {"pattern": "spike", "amplitude_ps": -100.0, "start_s": 10.0, "width_s": 0.0}
        ]
        issues = validate_scenario_dict(doc)
        assert any("m_events[0].width_s" == path for path, _ in issues)

    def test_proportional_with_explicit_n_events_conflicts(self):
        doc = minimal_doc()
        doc["n_events"] = [{"pattern": "jump", "amplitude_ps": 5.0, "start_s": 1.0}]
        issues = validate_scenario_dict(doc)
        assert any(path == "n_events" and "conflict" in msg for path, msg in issues)

    def test_full_sim_requires_round_trip(self):
        doc = minimal_doc(scheme="two_way", mode="full_sim")
        issues = validate_scenario_dict(doc)
        assert any(path == "scheme" for path, _ in issues)

    def test_analytic_mode_requires_noise_model(self):
        doc = minimal_doc()
        del doc["analytic"]
        issues = validate_scenario_dict(doc)
        assert any(path == "analytic" for path, _ in issues)

    def test_bad_schema_version(self):
        issues = validate_scenario_dict(minimal_doc(schema_version=99))
        assert any(path == "schema_version" for path, _ in issues)

    def test_bad_behavior_kind(self):
        doc = minimal_doc()
        doc["m_events"] = [
            {
                "pattern": "gradual",
                "amplitude_ps": -2.0,
                "start_s": 0.0,
                "behavior": {"kind": "quadratic"},
            }
        ]
        issues = validate_scenario_dict(doc)
        assert any("behavior" in path for path, _ in issues)

    def test_from_dict_raises_schema_error(self):
        with pytest.raises(SchemaError) as err:
            AttackScenario.from_dict(minimal_doc(fooo=1))
        assert any(path == "fooo" for path, _ in err.value.issues)

    def test_negative_seed_rejected(self):
        doc = minimal_doc()
        doc["run"]["seed"] = -1
        issues = validate_scenario_dict(doc)
        assert any(path == "run.seed" for path, _ in issues)

    @pytest.mark.parametrize(
        "path",
        [
            "source.intrinsic_correlation_jitter_ps",
            "detectors.jitter_sigma_ps",
            "detectors.dead_time_ps",
            "tdc.jitter_sigma_ps",
            "clock.white_phase_noise_sigma_ps",
            "estimator.bin_width_ps",
            "estimator.coarse_bin_ps",
            "estimator.refine_bin_ps",
        ],
    )
    def test_infinite_value_rejected(self, path):
        # JSON ``Infinity`` parses to float("inf"); it must fail the schema.
        section, key = path.split(".")
        doc = minimal_doc()
        doc[section] = {key: float("inf")}
        issues = validate_scenario_dict(json.loads(json.dumps(doc)))
        assert any(p in (section, path) for p, _ in issues), issues

    def test_validate_scenario_file(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(minimal_doc()))
        assert validate_scenario(good) == []

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        issues = validate_scenario(bad)
        assert issues and "JSON" in issues[0][1]

        with pytest.raises(ConfigurationError):
            validate_scenario(tmp_path / "missing.json")


class TestScenarioObject:
    @pytest.mark.parametrize("doc", _ROUNDTRIP_DOCS.values(), ids=_ROUNDTRIP_DOCS.keys())
    def test_roundtrip_through_dict(self, doc):
        scenario = AttackScenario.from_dict(doc)
        # Through JSON, as the meta.json echo is read back.
        resolved = json.loads(json.dumps(scenario.to_dict()))
        again = AttackScenario.from_dict(resolved)
        assert again == scenario
        assert again.to_dict() == resolved
        assert again.config_hash() == scenario.config_hash()

    def test_trajectories_proportional(self):
        scenario = AttackScenario.from_dict(builtin_scenario("jump_-100ps"))
        t = np.array([100.0, 300.0])
        m = eval_trajectory(scenario.m_trajectory(), t)
        n = eval_trajectory(scenario.n_trajectory(), t)
        np.testing.assert_array_equal(m, [0.0, -100.0])
        np.testing.assert_array_equal(n, [0.0, 100.0])

    def test_one_way_attack_has_empty_backward_path(self):
        scenario = AttackScenario.from_dict(builtin_scenario("gradual_slow"))
        assert eval_trajectory(scenario.n_trajectory(), 1000.0) == 0.0
        assert eval_trajectory(scenario.m_trajectory(), 1000.0) < 0.0

    def test_first_attack_onset(self):
        scenario = AttackScenario.from_dict(builtin_scenario("spike_train"))
        assert scenario.first_attack_onset_s() == 330.0
        baseline = AttackScenario.from_dict(builtin_scenario("baseline"))
        assert baseline.first_attack_onset_s() is None

    def test_load_scenario_sources(self, tmp_path):
        by_name = load_scenario("baseline")
        assert by_name.name == "baseline"
        by_dict = load_scenario(minimal_doc())
        assert by_dict.name == "unit"
        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal_doc(name="fromfile")))
        assert load_scenario(str(path)).name == "fromfile"
        with pytest.raises(ConfigurationError):
            load_scenario("no_such_thing")

    @pytest.mark.parametrize(
        "section,key,value", _HASHED_CHANGES, ids=[key for _, key, _ in _HASHED_CHANGES]
    )
    def test_config_hash_tracks_seed(self, section, key, value):
        a = AttackScenario.from_dict(minimal_doc())
        doc = minimal_doc()
        doc.setdefault(section, {})[key] = value
        b = AttackScenario.from_dict(doc)
        assert a.config_hash() != b.config_hash()

    @pytest.mark.parametrize(
        "behavior,shape",
        [
            ({"kind": "logarithmic", "scale_s": 50.0}, lambda u: np.log1p(u / 50.0)),
            ({"kind": "exponential", "rate_per_s": 0.002}, lambda u: np.expm1(0.002 * u)),
            (
                {"kind": "polynomial", "coefficients": [0.01, 0.0001]},
                lambda u: 0.01 * u + 0.0001 * u**2,
            ),
        ],
    )
    def test_nonlinear_gradual_behaviors_through_scenario(self, behavior, shape):
        from qcsync.runner import run_scenario

        doc = minimal_doc()
        doc["analytic"]["noise_sigma_ps"] = 0.0
        doc["analytic"]["baseline_delta_ps"] = 0.0
        doc["run"]["duration_s"] = 300.0
        doc["m_events"] = [
            {
                "pattern": "gradual",
                "amplitude_ps": -20.0,
                "start_s": 100.0,
                "behavior": behavior,
            }
        ]
        deltas = run_scenario(doc).series.deltas()
        # Hidden attack (N = -M): delta tracks M at the epoch midpoint.
        assert deltas[250] == pytest.approx(-20.0 * shape(150.5), rel=1e-12)
        assert deltas[99] == 0.0
