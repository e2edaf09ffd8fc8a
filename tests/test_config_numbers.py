"""One rule for every config number: constructors and scenario documents
refuse the same values, each refusal named by its field."""

import dataclasses
import math
import typing

import numpy as np
import pytest

from qcsync.attacks import (
    AttackEvent,
    CoordinationRule,
    ExponentialBehavior,
    LinearBehavior,
    LogarithmicBehavior,
    PolynomialBehavior,
)
from qcsync.detection import CusumConfig, ThresholdConfig, score
from qcsync.errors import ConfigurationError
from qcsync.estimator import EstimatorConfig, per_epoch_series
from qcsync.scenario import AttackScenario, RunConfig, validate_scenario_dict
from qcsync.simulation import (
    ChannelConfig,
    ClockConfig,
    DetectorConfig,
    SourceConfig,
    TdcConfig,
    TimestampStream,
    generate_pairs,
)
from qcsync.stability import tdev

_JUMP = {"pattern": "jump", "amplitude_ps": 1.0, "start_s": 0.0}
_SPIKE = {"pattern": "spike", "amplitude_ps": 1.0, "start_s": 0.0}
_GRADUAL = {"pattern": "gradual", "amplitude_ps": 1.0, "start_s": 0.0}

# Every config class: (class, the other arguments it needs, the scenario
# path of its object or None, the fields to try with those arguments or
# None for every numeric field).
_CLASSES = [
    (SourceConfig, {}, "source", None),
    (DetectorConfig, {}, "detectors", None),
    (TdcConfig, {}, "tdc", None),
    (ChannelConfig, {}, "channel", None),
    (ClockConfig, {}, "clock", None),
    (EstimatorConfig, {}, "estimator", None),
    (RunConfig, {"duration_s": 100.0}, "run", None),
    (ThresholdConfig, {}, "detection.threshold", None),
    (CusumConfig, {}, "detection.cusum", None),
    (CoordinationRule, {"mode": "proportional"}, "coordination", None),
    (AttackEvent, _JUMP, "m_events[0]", ("amplitude_ps", "start_s")),
    (AttackEvent, _SPIKE, "m_events[0]", ("width_s",)),
    (AttackEvent, _GRADUAL, "m_events[0]", ("step_interval_s", "end_s")),
    (LinearBehavior, {}, "m_events[0].behavior", None),
    (LogarithmicBehavior, {}, "m_events[0].behavior", None),
    (ExponentialBehavior, {}, "m_events[0].behavior", None),
    (PolynomialBehavior, {}, "m_events[0].behavior", None),
    (TimestampStream, {"times": [[], [], []], "duration_s": 1.0}, None, None),
]


def _numeric(tp):
    """``(optional, sequence)`` of a numeric field's annotation, else None."""
    members = [a for a in typing.get_args(tp) if a is not type(None)]
    if typing.get_origin(tp) is typing.Union and len(members) == 1:
        kind = _numeric(members[0])
        return kind and (True, kind[1])
    if typing.get_origin(tp) is tuple and typing.get_args(tp)[0] is float:
        return False, True
    return (False, False) if tp in (int, float) else None


def _fields():
    for cls, kwargs, section, names in _CLASSES:
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            kind = _numeric(hints[f.name])
            if kind and (names is None or f.name in names):
                name = f"{cls.__name__}.{f.name}"
                yield pytest.param(cls, kwargs, section, f.name, *kind, id=name)


FIELDS = list(_fields())


def _construct(cls, kwargs, name, sequence, value):
    return cls(**{**kwargs, name: (value,) if sequence else value})


@pytest.mark.parametrize("value", [True, "1", None, math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("cls, kwargs, section, name, optional, sequence", FIELDS)
def test_unusable_value_refused_by_field_name(
    cls, kwargs, section, name, optional, sequence, value
):
    if value is None and optional:
        _construct(cls, kwargs, name, sequence, value)
        return
    with pytest.raises(ConfigurationError, match=f"^{name} "):
        _construct(cls, kwargs, name, sequence, value)


def test_table_covers_every_numeric_field():
    names = {(p.values[0], p.values[3]) for p in FIELDS}
    assert (EstimatorConfig, "forward_center_ps") in names
    assert (PolynomialBehavior, "coefficients") in names
    assert (TimestampStream, "nominal_one_way_delay_ps") in names
    assert len(FIELDS) == 40


def _minimal_doc():
    return {
        "schema_version": 1,
        "name": "unit",
        "scheme": "round_trip",
        "mode": "analytic",
        "run": {"duration_s": 100.0, "epoch_s": 1.0, "seed": 3},
        "coordination": {"mode": "proportional", "n": -1.0},
        "m_events": [],
    }


def _doc_with(section, body):
    """The minimal document with ``body`` as the object at ``section``."""
    doc = _minimal_doc()
    if section == "m_events[0]":
        doc["m_events"] = [body]
    elif section == "m_events[0].behavior":
        doc["m_events"] = [dict(_GRADUAL, behavior=body)]
    elif "." in section:
        outer, inner = section.split(".")
        doc[outer] = {inner: body}
    else:
        doc[section] = body
    return doc


_KINDS = {
    LinearBehavior: "linear",
    LogarithmicBehavior: "logarithmic",
    ExponentialBehavior: "exponential",
    PolynomialBehavior: "polynomial",
}

# JSON's values (null aside, which a document reads as omitted), plus the
# numbers that sit on or beside a bound or need an integer.
_DOCUMENT_VALUES = [
    True, "1", math.nan, math.inf, -math.inf, 2.5, pytest.param(10**400, id="10**400"),
    -1, 0, 0.5, 1, 20,
]


@pytest.mark.parametrize("value", _DOCUMENT_VALUES, ids=repr)
@pytest.mark.parametrize(
    "cls, kwargs, section, name, optional, sequence",
    [p for p in FIELDS if p.values[2] is not None],
)
def test_document_refuses_what_the_constructor_refuses(
    cls, kwargs, section, name, optional, sequence, value
):
    try:
        _construct(cls, kwargs, name, sequence, value)
        refused = False
    except ConfigurationError:
        refused = True
    body = dict(kwargs, **{name: [value] if sequence else value})
    if cls in _KINDS:
        body["kind"] = _KINDS[cls]
    path = f"{section}.{name}" + ("[0]" if sequence else "")
    issues = validate_scenario_dict(_doc_with(section, body))
    assert [p for p, _ in issues] == ([path] if refused else []), issues


@pytest.mark.parametrize("value", _DOCUMENT_VALUES + [1.0], ids=repr)
@pytest.mark.parametrize("name", ["reference_ps", "schema_version"])
def test_document_refuses_the_reference_the_scenario_refuses(name, value):
    scenario = AttackScenario.from_dict(_minimal_doc())
    try:
        dataclasses.replace(scenario, **{name: value})
        refused = False
    except ConfigurationError:
        refused = True
    issues = validate_scenario_dict(dict(_minimal_doc(), **{name: value}))
    assert [p for p, _ in issues] == ([name] if refused else [])


@pytest.mark.parametrize("value", [True, "1"], ids=repr)
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda v: generate_pairs(SourceConfig(), v, 0), "duration_s"),
        (lambda v: per_epoch_series(TimestampStream([[1], [2], [3]], 1.0), v), "epoch_length_s"),
        (lambda v: tdev(np.arange(20.0), v), "tau0_s"),
        (lambda v: score([], v, 10.0), "attack_onset_s"),
        (lambda v: score([], 1.0, v), "series_span_s"),
    ],
    ids=["generate_pairs", "per_epoch_series", "tdev", "score-onset", "score-span"],
)
def test_numeric_argument_refused_by_name(call, name, value):
    # A bool was taken as 0 or 1, and a string raised a raw TypeError.
    with pytest.raises(ConfigurationError, match=f"^{name} "):
        call(value)


def test_numbers_stored_plain():
    config = EstimatorConfig(bin_width_ps=np.float32(2.0), forward_center_ps=np.int64(7))
    assert (type(config.bin_width_ps), type(config.forward_center_ps)) == (float, int)
    event = AttackEvent("gradual", np.int64(-2), 0, behavior=PolynomialBehavior((1, 2)))
    values = (event.amplitude_ps, event.start_s, *event.behavior.coefficients)
    assert values == (-2.0, 0.0, 1.0, 2.0)
    assert all(type(v) is float for v in values)
