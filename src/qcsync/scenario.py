"""Attack scenario documents: schema, validation and builtin campaigns.

A scenario is a JSON object (version field ``schema_version: 1``) that
fully determines one campaign: the synchronization scheme, run length and
seed, the attack events on each channel direction (or a coordination rule
deriving one from the other), the photon-chain configuration (analytic
runs derive their noise and baseline from it too), estimator settings and
optional detector settings.

The schema is the config dataclasses themselves: every section is an
object whose keys are exactly the fields of its dataclass (``run`` is
``RunConfig``, ``estimator`` is ``EstimatorConfig``, an event is
``AttackEvent``, ``detection.threshold`` is ``ThresholdConfig``, ...),
typed by the field annotations, with the gradual ``behavior`` union tagged
by each member class's ``kind``.  One walker over ``fields()``
parses documents and serializes scenarios, so ``to_dict`` writes every
field and ``config_hash`` covers every setting.  Field names carry
explicit units (_ps, _s, _hz).  Omitted (or null) fields take the
dataclass defaults; fields without a default are required.

Validation is fail-closed: unknown fields are rejected, the dataclasses'
own ``__post_init__`` checks are the only value rules, every problem is
reported with its field path, and a scenario only constructs if no issue
was found.  One rule, ``errors.number``, decides every number: the walker
reads each numeric field through it (an ``int`` field needs an integer),
and each ``__post_init__`` applies it with the field's bounds, so a
document and a constructor refuse the same values.

The builtin registry encodes the reference experiments: a no-attack
baseline, the jump grid {-10, -50, -100, -200, -500} ps with N = -M over
500 s, a five-spike train at onsets {330, 662, 1022, 1376, 1709} s with
amplitudes rising -500..-100 ps, and the two staircase gradual attacks
(-2 ps per 35 s one-way, frozen after 2100 s; -4 ps per 35 s with N = -M,
direction-reversed after 1750 s) over 3500 s.  Every parameter not pinned
by the reference experiments takes the module default and is echoed into
run metadata so divergence stays auditable.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
import typing
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional, Tuple, Union

from .attacks import (
    AttackEvent,
    CoordinationMode,
    CoordinationRule,
    DelayTrajectory,
    SchemeKind,
    derive_n_from_m,
    enum_member,
)
from .detection import CusumConfig, ThresholdConfig
from .errors import ConfigurationError, SchemaError, number, store_number
from .estimator import EstimatorConfig, coarse_reach, epoch_count
from .simulation import (
    ChannelConfig,
    ClockConfig,
    DetectorConfig,
    SourceConfig,
    TdcConfig,
    run_end_ps,
)

__all__ = [
    "RunMode",
    "RunConfig",
    "ScenarioDetection",
    "AttackScenario",
    "validate_scenario_dict",
    "validate_scenario",
    "load_scenario_file",
    "builtin_scenario",
    "builtin_names",
    "figure_bundle",
    "FIGURE_IDS",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1


class RunMode(str, Enum):
    FULL_SIM = "full_sim"
    ANALYTIC = "analytic"


@dataclass(frozen=True)
class RunConfig:
    duration_s: float
    epoch_s: float = 1.0
    seed: int = 0

    def __post_init__(self):
        store_number(self, "duration_s", low=0, above=True)
        store_number(self, "epoch_s", low=0, above=True)
        store_number(self, "seed", low=0, integer=True)


@dataclass(frozen=True)
class ScenarioDetection:
    threshold: Optional[ThresholdConfig] = None
    cusum: Optional[CusumConfig] = None


@dataclass
class AttackScenario:
    """Validated campaign description; construct via ``from_dict``."""

    name: str
    scheme: SchemeKind
    mode: RunMode
    run: RunConfig
    coordination: CoordinationRule
    m_events: Tuple[AttackEvent, ...]
    n_events: Optional[Tuple[AttackEvent, ...]] = None
    source: SourceConfig = field(default_factory=SourceConfig)
    detectors: DetectorConfig = field(default_factory=DetectorConfig)
    tdc: TdcConfig = field(default_factory=TdcConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    clock: ClockConfig = field(default_factory=ClockConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    reference_ps: float = 0.0
    detection: Optional[ScenarioDetection] = None
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        self.scheme = enum_member(SchemeKind, self.scheme, "scheme")
        self.mode = enum_member(RunMode, self.mode, "mode")
        # Cross-field rules, all reported together with their field paths.
        issues = []
        try:
            store_number(self, "schema_version", integer=True)
            if self.schema_version != SCHEMA_VERSION:
                raise ConfigurationError(
                    f"unsupported version {self.schema_version}, expected {SCHEMA_VERSION}"
                )
        except ConfigurationError as exc:
            issues.append(("schema_version", str(exc)))
        try:
            store_number(self, "reference_ps")
        except ConfigurationError as exc:
            issues.append(("reference_ps", str(exc)))
        epochs = epoch_count(self.run.duration_s, self.run.epoch_s)
        threshold = self.detection.threshold if self.detection else None
        rules = (
            (
                self.mode == RunMode.FULL_SIM and self.scheme != SchemeKind.ROUND_TRIP,
                "scheme",
                "full_sim mode supports round_trip only (others are analytic-only)",
            ),
            (
                self.coordination.mode is CoordinationMode.PROPORTIONAL and bool(self.n_events),
                "n_events",
                "conflicts with proportional coordination (N is derived from M)",
            ),
            (
                threshold is not None and epochs <= threshold.baseline_window_epochs,
                "detection.threshold.baseline_window_epochs",
                f"must be less than the run's {epochs} epochs",
            ),
        )
        issues += [(path, message) for broken, path, message in rules if broken]
        if self.mode == RunMode.FULL_SIM:
            # What a run would refuse only after simulating.
            delay = self.channel.one_way_delay_ps
            for path, check, *args in (
                ("run.duration_s", run_end_ps, self.run.duration_s),
                ("channel.one_way_delay_ps", coarse_reach, delay, self.estimator),
            ):
                try:
                    check(*args)
                except ConfigurationError as exc:
                    issues.append((path, str(exc)))
        if issues:
            raise SchemaError(issues)

    def qcs_scheme(self):
        """The scheme, ``self.scheme``; kept only for the benchmark's checks."""
        return self.scheme

    def m_trajectory(self):
        return DelayTrajectory(self.m_events)

    def n_trajectory(self):
        independent = DelayTrajectory(self.n_events) if self.n_events else None
        return derive_n_from_m(self.m_trajectory(), self.coordination, independent)

    def first_attack_onset_s(self):
        starts = [e.start_s for e in self.m_events]
        if self.n_events:
            starts.extend(e.start_s for e in self.n_events)
        return min(starts) if starts else None

    def to_dict(self):
        """Fully resolved JSON-shaped dict: every field, defaults filled in."""
        return _dump(AttackScenario, self)

    def config_hash(self):
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, doc):
        scenario, issues = _parse_scenario(doc)
        if issues:
            raise SchemaError(issues)
        return scenario


# --------------------------------------------------------------------------
# The schema walker: parses documents into the config dataclasses and dumps
# them back, both driven by the dataclass fields and their type hints.
# --------------------------------------------------------------------------

# Returned in place of a value that failed and was reported as an issue.
_BAD = object()


@functools.lru_cache(maxsize=None)
def _schema(cls):
    """``(name, type, required)`` of each init field of a dataclass."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            hints[f.name],
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
        if f.init
    )


def _members(tp):
    """Non-None members of a Union type."""
    return [a for a in typing.get_args(tp) if a is not type(None)]


def _join(path, key):
    return f"{path}.{key}" if path else key


def _fail(issues, path, message):
    issues.append((path, message))
    return _BAD


def _parse(tp, value, path, issues):
    """Value of type ``tp`` parsed from JSON ``value``, or ``_BAD``."""
    origin = typing.get_origin(tp)
    if origin is Union:
        members = _members(tp)
        if len(members) == 1:
            return _parse(members[0], value, path, issues)
        return _parse_tagged(members, value, path, issues)
    if origin is tuple:
        if not isinstance(value, list):
            return _fail(issues, path, "must be a list")
        item = typing.get_args(tp)[0]
        items = tuple(_parse(item, v, f"{path}[{i}]", issues) for i, v in enumerate(value))
        return _BAD if any(v is _BAD for v in items) else items
    if dataclasses.is_dataclass(tp):
        return _parse_object(tp, value, path, issues)
    if issubclass(tp, Enum):
        choices = sorted(m.value for m in tp)
        if not isinstance(value, str):
            return _fail(issues, path, "must be a string")
        if value not in choices:
            return _fail(issues, path, f"must be one of {choices}")
        return tp(value)
    if tp is bool or tp is str:
        if not isinstance(value, tp):
            return _fail(issues, path, f"must be a {'boolean' if tp is bool else 'string'}")
        return value
    try:
        return number(path, value, integer=tp is int)
    except ConfigurationError as exc:
        # The message starts with the name that the issue's path gives.
        return _fail(issues, path, str(exc).removeprefix(f"{path} "))


def _parse_tagged(members, value, path, issues):
    if not isinstance(value, dict):
        return _fail(issues, path, "must be an object")
    by_kind = {cls.kind: cls for cls in members}
    kind = value.get("kind")
    if kind is None:
        return _fail(issues, _join(path, "kind"), "required field missing")
    if not isinstance(kind, str) or kind not in by_kind:
        return _fail(issues, _join(path, "kind"), f"must be one of {sorted(by_kind)}")
    body = {k: v for k, v in value.items() if k != "kind"}
    return _parse_object(by_kind[kind], body, path, issues)


def _parse_object(cls, doc, path, issues):
    """Construct dataclass ``cls`` from a JSON object, collecting all issues.

    Null counts as omitted.  The dataclass's own validation error becomes
    an issue on the field its message starts with, else on the object.
    """
    if not isinstance(doc, dict):
        return _fail(issues, path, "must be an object")
    schema = _schema(cls)
    names = {name for name, _, _ in schema}
    issues.extend((_join(path, key), "unknown field") for key in doc if key not in names)
    kwargs = {}
    ok = True
    for name, tp, required in schema:
        value = doc.get(name)
        if value is None:
            if required:
                missing = "section" if dataclasses.is_dataclass(tp) else "field"
                issues.append((_join(path, name), f"required {missing} missing"))
                ok = False
            continue
        kwargs[name] = _parse(tp, value, _join(path, name), issues)
        ok = ok and kwargs[name] is not _BAD
    if not ok:
        return _BAD
    try:
        return cls(**kwargs)
    except SchemaError as exc:
        issues.extend((_join(path, key), message) for key, message in exc.issues)
    except ConfigurationError as exc:
        message = str(exc)
        key = message.split(" ", 1)[0]
        issues.append((_join(path, key) if key in names else path, message))
    return _BAD


def _dump(tp, value):
    """JSON-shaped form of ``value`` of type ``tp``; inverse of ``_parse``."""
    if value is None:
        return None
    origin = typing.get_origin(tp)
    if origin is Union:
        members = _members(tp)
        if len(members) == 1:
            return _dump(members[0], value)
        return {"kind": value.kind, **_dump(type(value), value)}
    if origin is tuple:
        item = typing.get_args(tp)[0]
        return [_dump(item, v) for v in value]
    if dataclasses.is_dataclass(tp):
        return {name: _dump(t, getattr(value, name)) for name, t, _ in _schema(tp)}
    if issubclass(tp, Enum):
        return tp(value).value
    return float(value) if tp is float else value


def _parse_scenario(doc):
    if not isinstance(doc, dict):
        return None, [("", "scenario document must be a JSON object")]
    issues = []
    # The version is never defaulted: a document must say which schema it is.
    if doc.get("schema_version") is None:
        issues.append(("schema_version", "required field missing"))
    scenario = _parse_object(AttackScenario, doc, "", issues)
    return (None, issues) if issues else (scenario, [])


def validate_scenario_dict(doc):
    """All schema issues of a scenario document (empty list when valid)."""
    _, issues = _parse_scenario(doc)
    return issues


def load_scenario_file(path):
    """Load and validate a scenario JSON file.  A file that is not UTF-8
    text raises ConfigurationError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError([("", f"not valid JSON: {exc}")]) from exc
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"scenario file {path} is not UTF-8 text") from exc
    return AttackScenario.from_dict(doc)


def validate_scenario(path):
    """Validate a scenario file without executing it; returns issue list."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"no such scenario file: {path}")
    try:
        load_scenario_file(path)
    except SchemaError as exc:
        return exc.issues
    return []


# --------------------------------------------------------------------------
# Builtin scenarios.
# --------------------------------------------------------------------------

# Runs longer than 500 s halve the source rate so they stay within
# desk-scale memory and runtime; everything else uses module defaults.
_LONG_RUN_RATE_HZ = 5.0e3


def _staircase(amplitude_ps, end_s, reverse):
    return [
        {
            "pattern": "gradual",
            "amplitude_ps": amplitude_ps,
            "start_s": 0.0,
            "behavior": {"kind": "linear", "rate_per_step": 1.0},
            "step_interval_s": 35.0,
            "end_s": end_s,
            "reverse_after_end": reverse,
        }
    ]


def _jump(amplitude_ps):
    return [{"pattern": "jump", "amplitude_ps": amplitude_ps, "start_s": 250.0}]


# name -> (duration_s, seed, m_events[, coordination]); the event dicts are
# shared, so ``builtin_scenario`` hands out deep copies.
_BUILTINS = {
    "baseline": (500.0, 101, []),
    "baseline_1800s": (1800.0, 141, []),
    "baseline_3500s": (3500.0, 152, []),
    "jump_-10ps": (500.0, 111, _jump(-10.0)),
    "jump_-50ps": (500.0, 112, _jump(-50.0)),
    "jump_-100ps": (500.0, 113, _jump(-100.0)),
    "jump_-200ps": (500.0, 114, _jump(-200.0)),
    "jump_-500ps": (500.0, 115, _jump(-500.0)),
    "spike_train": (
        1800.0,
        140,
        [
            {"pattern": "spike", "amplitude_ps": a, "start_s": t, "width_s": 1.0}
            for t, a in zip(
                (330.0, 662.0, 1022.0, 1376.0, 1709.0),
                (-500.0, -400.0, -300.0, -200.0, -100.0),
            )
        ],
    ),
    # One-way ramp only: the backward path is untouched, so the measured
    # clock difference drifts at half the injected rate.
    "gradual_slow": (3500.0, 150, _staircase(-2.0, 2100.0, False), {"mode": "independent"}),
    # Faster two-sided ramp with N = -M; the reversal flag sends the ramp
    # back toward zero after the hold point.  An alternative reading of the
    # reference description keeps ramping positive instead; flip
    # reverse_after_end off and add a second event to model that.
    "gradual_fast_reversing": (3500.0, 151, _staircase(-4.0, 1750.0, True)),
}


def _builtin_doc(name, duration_s, seed, m_events, coordination=None):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "scheme": "round_trip",
        "mode": "full_sim",
        "run": {"duration_s": duration_s, "epoch_s": 1.0, "seed": seed},
        "coordination": coordination or {"mode": "proportional", "n": -1.0},
        "m_events": m_events,
        "reference_ps": -9900.0,
        "detection": {
            "threshold": {"baseline_window_epochs": 60, "threshold_ps": 200.0},
            "cusum": {"reference_drift_ps": 0.02, "decision_limit_ps": 15.0},
        },
    }
    if duration_s > 500.0:
        doc["source"] = {"pair_rate_hz": _LONG_RUN_RATE_HZ}
    return doc


_FIGURE_BUNDLES = {
    # TDEV overlay of the four regimes.
    "fig2": ("baseline", "jump_-500ps", "spike_train", "gradual_fast_reversing"),
    # Jump grid including the no-attack control group.
    "fig3": (
        "baseline",
        "jump_-10ps",
        "jump_-50ps",
        "jump_-100ps",
        "jump_-200ps",
        "jump_-500ps",
    ),
    # Spike train with its same-length control.
    "fig4": ("baseline_1800s", "spike_train"),
    # Gradual attacks with their same-length control.
    "fig5": ("baseline_3500s", "gradual_slow", "gradual_fast_reversing"),
}

FIGURE_IDS = tuple(_FIGURE_BUNDLES)


def builtin_names():
    return sorted(_BUILTINS)


def builtin_scenario(name):
    """Builtin scenario document (deep copy) by name."""
    try:
        entry = _BUILTINS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown builtin scenario {name!r}; available: {', '.join(builtin_names())}"
        ) from None
    return copy.deepcopy(_builtin_doc(name, *entry))


def figure_bundle(figure_id):
    """Scenario names reproducing one reference figure."""
    try:
        return list(_FIGURE_BUNDLES[figure_id])
    except KeyError:
        raise ConfigurationError(
            f"unknown figure id {figure_id!r}; available: {', '.join(FIGURE_IDS)}"
        ) from None
