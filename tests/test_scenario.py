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
    RunConfig,
    builtin_names,
    builtin_scenario,
    figure_bundle,
    validate_scenario,
    validate_scenario_dict,
)


# Every setting of every reference campaign, as 0.18.0 resolved it.
BUILTIN_DIGESTS = {
    "baseline": "142c516148f93fd27add28c14b74f687e1ddb491c1262b2014a1fd41b846c22d",
    "baseline_1800s": "6033d88cc4006efd556f00373f44ffaed69ce97ab93f91c65b54d32a4003ecda",
    "baseline_3500s": "a4f76a622886a5c4fcdaa376a784accb64bb5790b3cb581d1d4081a7bdeefd65",
    "jump_-10ps": "2fc04e9a60075c84639a26c3414d78e015b167e9e09dbfd81bf706cede1aee3e",
    "jump_-50ps": "6acf8162ea3a00fca6ce353d2fa97db5528e20bac9542306a00d048bbeaacd53",
    "jump_-100ps": "6240c51ceaece4f54b521d96cce7caad0b9b4da3d93ebabe06032b2f1724da11",
    "jump_-200ps": "3fe422cb68f8c4ae73244c69313469ce8f55cf0e7e8cecc8638d8babe6ba41ba",
    "jump_-500ps": "4eadb95d66acdcfdaecc759fd998c9234e5264d5f92f02686acd0cc3d5432bef",
    "spike_train": "47dd303e2c54b8c0d07975639e72d8f206bd4aa0f78c5ff57706ef3cadb98d64",
    "gradual_slow": "cdecd2d3b2e4b9d0cdd3ac4dc4d4a2174041032c98d5ed643e3059298c9b4e6b",
    "gradual_fast_reversing": "5a64acfa01a120409312eba43feefb46c1a2036722105b9aa45f1b0411d4e468",
}


def minimal_doc(**overrides):
    doc = {
        "schema_version": 1,
        "name": "unit",
        "scheme": "round_trip",
        "mode": "analytic",
        "run": {"duration_s": 100.0, "epoch_s": 1.0, "seed": 3},
        "coordination": {"mode": "proportional", "n": -1.0},
        "m_events": [],
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

    @pytest.mark.parametrize("name, digest", sorted(BUILTIN_DIGESTS.items()))
    def test_config_hash_pinned(self, name, digest):
        assert AttackScenario.from_dict(builtin_scenario(name)).config_hash() == digest

    def test_every_builtin_pinned(self):
        assert sorted(BUILTIN_DIGESTS) == builtin_names()

    def test_returned_documents_are_copies(self):
        for name in builtin_names():
            doc = builtin_scenario(name)
            pristine = json.dumps(doc)
            doc["run"]["seed"] = 999
            doc["detection"]["threshold"]["threshold_ps"] = 1.0
            doc["coordination"]["mode"] = "edited"
            doc["m_events"].append({"pattern": "jump"})
            for event in doc["m_events"]:
                event["amplitude_ps"] = 0.0
            doc.get("source", {})["pair_rate_hz"] = 1.0
            assert json.dumps(builtin_scenario(name)) == pristine

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

    WIDE = ("channel.one_way_delay_ps", "coarse_bin_ps makes a window of more than 2**24 bins")
    LONG = (
        "run.duration_s",
        "duration_s must end the run at most 2**62 - 2**50 ps after it starts",
    )

    @pytest.mark.parametrize(
        "changes, issues",
        [
            ({"channel": {"one_way_delay_ps": 5e9}}, [WIDE]),
            # The loopback search spans two hops: 2.4e7 coarse bins at 3e9 ps.
            ({"channel": {"one_way_delay_ps": 3e9}, "estimator": {"forward_center_ps": 3 * 10**9}},
             [WIDE]),
            ({"channel": {"one_way_delay_ps": 3e9}, "estimator": {"loopback_center_ps": 6 * 10**9}},
             []),
            ({"channel": {"one_way_delay_ps": 5e9}, "mode": "analytic"}, []),
            ({"run": {"duration_s": 4.7e6}}, [LONG]),
            ({"run": {"duration_s": 4.7e6}, "mode": "analytic"}, []),
            # Within 2**62 ps, but its last readings could lie past it.
            ({"run": {"duration_s": 4.611e6}}, [LONG]),
            ({"run": {"duration_s": 4.61e6}}, []),
        ],
        ids=[
            "wide", "wide-loopback", "forward-only", "wide-analytic",
            "long", "long-analytic", "long-margin", "longest",
        ],
    )
    def test_full_simulation_limits_checked_on_load(self, changes, issues):
        # A full simulation refused these only after simulating: acquisition's
        # coarse window, +-2x each searched path's delay, above 2**24 bins,
        # and a run whose last readings could lie past 2**62 ps.
        doc = builtin_scenario("jump_-100ps")
        doc.update(changes)
        assert validate_scenario_dict(doc) == issues

    def test_analytic_section_refused(self):
        # Analytic runs take their noise and baseline from the photon chain
        # and the clock, so no section sets them.
        doc = minimal_doc(analytic={"noise_sigma_ps": 2.0, "baseline_delta_ps": -9900.0})
        assert validate_scenario_dict(doc) == [("analytic", "unknown field")]

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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", 2.5),
            ("seed", True),
            ("seed", "7"),
            ("duration_s", "1.0"),
            ("duration_s", True),
            ("epoch_s", "0.5"),
            ("epoch_s", False),
            ("epoch_s", float("nan")),
        ],
        ids=["fractional-seed", "bool-seed", "text-seed", "text-duration", "bool-duration",
             "text-epoch", "bool-epoch", "nan-epoch"],
    )
    def test_run_config_refuses_inexact_values(self, field, value):
        # Refused as given: none is rounded, parsed or left to fail later.
        with pytest.raises(ConfigurationError, match=field):
            RunConfig(**{"duration_s": 1.0, field: value})

    def test_run_config_stores_plain_numbers(self):
        run = RunConfig(duration_s=np.int64(2), epoch_s=1, seed=np.uint8(3))
        assert (run.duration_s, run.epoch_s, run.seed) == (2.0, 1.0, 3)
        assert (type(run.duration_s), type(run.epoch_s), type(run.seed)) == (float, float, int)

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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_reference_rejected(self, tmp_path, value):
        # ``json.load`` reads the literals NaN and Infinity as floats; a NaN
        # reference used to write ``nan`` rows and a bare NaN token into the
        # bundle.
        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal_doc(reference_ps=value)))
        assert [p for p, _ in validate_scenario(path)] == ["reference_ps"]
        scenario = AttackScenario.from_dict(minimal_doc())
        with pytest.raises(SchemaError) as excinfo:
            dataclasses.replace(scenario, reference_ps=value)
        assert [p for p, _ in excinfo.value.issues] == ["reference_ps"]

    @pytest.mark.parametrize("path", ["run.duration_s", "reference_ps"])
    def test_integer_beyond_float_range_rejected(self, path):
        # JSON integers have no size limit, so ``json.load`` reads this one
        # as a Python int that ``float`` cannot convert.
        doc = json.loads(json.dumps(minimal_doc()))
        section = doc
        *parents, key = path.split(".")
        for name in parents:
            section = section[name]
        section[key] = 10**400
        assert [p for p, _ in validate_scenario_dict(doc)] == [path]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("bin_width_ps", float("inf")),
            ("window_halfwidth_ps", 0),
            ("coarse_bin_ps", -1.0),
            ("refine_bin_ps", 0.0),
            ("refine_halfwidth_ps", 0),
            ("acquire_max_events", 0),
        ],
    )
    def test_estimator_error_names_field(self, key, value):
        doc = minimal_doc(estimator={key: value})
        issues = validate_scenario_dict(json.loads(json.dumps(doc)))
        assert [p for p, _ in issues] == [f"estimator.{key}"], issues

    def test_readme_schema_example_validates(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text(encoding="utf-8").split("```jsonc\n", 1)[1].split("```", 1)[0]
        doc = json.loads("\n".join(line.split("//", 1)[0] for line in block.splitlines()))
        assert doc["m_events"] and doc["detection"]
        assert validate_scenario_dict(doc) == []

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
        # No jitter in the photon chain and no clock offset: delta is the
        # attack's closed form alone.
        doc["source"] = {"intrinsic_correlation_jitter_ps": 0.0}
        doc["detectors"] = {"jitter_sigma_ps": 0.0}
        doc["tdc"] = {"jitter_sigma_ps": 0.0}
        doc["clock"] = {"offset_ps": 0.0}
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
