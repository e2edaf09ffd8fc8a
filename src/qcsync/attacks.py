"""Adversarial delay trajectories and the tampered clock-difference algebra.

A delay trajectory is the attacker-controlled extra propagation delay, in
picoseconds, inserted on one direction of a synchronization link as a
function of wall-clock time in seconds.  Trajectories are linear
superpositions of three event shapes:

* jump: step to a fixed value at the onset and hold it,
* spike: rectangular pulse supported on ``[start_s, start_s + width_s)``,
* gradual: slow ramp (linear, logarithmic, exponential or polynomial)
  gated at the onset, optionally staircase-quantized in time, and
  optionally frozen or direction-reversed after a hold point.  Each ramp
  is one behaviour class of the ``GradualBehavior`` union that carries its
  own schema tag (``kind``) and ramp function (``shape``), so adding a
  behaviour means adding one class to the union.

With directional delays ``m`` (forward) and ``n`` (backward), the victim
computes the tampered clock difference
``delta = raw_delta - (alpha * m + beta * n) / 2``, where each
``SchemeKind`` carries its own coefficient pair ``(alpha, beta)``.  Every
event is gated on at its onset by ``eval_event``, the one onset gate.

Sign convention: positive delay values lengthen the optical path in the
corresponding direction.  All evaluation functions accept scalars or numpy
arrays of times and are pure.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, replace
from enum import Enum
from typing import ClassVar, Optional, Union

import numpy as np

from .errors import ConfigurationError, number, store_number

__all__ = [
    "AttackPattern",
    "SchemeKind",
    "CoordinationMode",
    "LinearBehavior",
    "LogarithmicBehavior",
    "ExponentialBehavior",
    "PolynomialBehavior",
    "GradualBehavior",
    "AttackEvent",
    "DelayTrajectory",
    "CoordinationRule",
    "eval_event",
    "eval_trajectory",
    "derive_n_from_m",
    "tampered_clock_difference",
]


# Picosecond values stay exact in float64 arithmetic up to 2**53: the
# bound for every delay (a simulated reading's offset from its chunk's
# origin has the tighter bound ``simulation.MAX_OFFSET_PS``).
MAX_EXACT_PS = float(2**53)


class AttackPattern(str, Enum):
    JUMP = "jump"
    SPIKE = "spike"
    GRADUAL = "gradual"


class SchemeKind(str, Enum):
    """Synchronization scheme with its coefficient pair ``(alpha, beta)``."""

    TWO_WAY = "two_way"
    HOM_INTERFERENCE = "hom_interference"
    ROUND_TRIP = "round_trip"

    @property
    def alpha(self):
        return 1 if self is SchemeKind.TWO_WAY else -1

    @property
    def beta(self):
        return -self.alpha


class CoordinationMode(str, Enum):
    INDEPENDENT = "independent"
    PROPORTIONAL = "proportional"


def enum_member(enum, value, name):
    """``enum(value)``, an unknown value refused with a ConfigurationError
    whose message starts with the field ``name``."""
    try:
        return enum(value)
    except ValueError:
        choices = sorted(m.value for m in enum)
        raise ConfigurationError(f"{name} must be one of {choices}: {value!r}") from None


# --------------------------------------------------------------------------
# Gradual ramp shapes ``shape(u, basis_s)`` of elapsed time ``u`` (array,
# seconds).  Every shape satisfies f(0) = 0 so the onset step is controlled
# solely by the amplitude gate.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearBehavior:
    """Ramp advancing ``rate_per_step`` amplitude units per step interval.

    The step basis is ``step_interval_s`` of the owning event when the event
    is staircase-quantized, and 1 s in continuous mode, so with the default
    rate the value grows by one amplitude unit per step (or per second).
    """

    kind: ClassVar[str] = "linear"
    rate_per_step: float = 1.0

    def __post_init__(self):
        store_number(self, "rate_per_step")

    def shape(self, u, basis_s):
        return self.rate_per_step * (u / basis_s)


@dataclass(frozen=True)
class LogarithmicBehavior:
    """Ramp ``log(1 + u / scale_s)`` of elapsed time ``u``."""

    kind: ClassVar[str] = "logarithmic"
    scale_s: float = 1.0

    def __post_init__(self):
        store_number(self, "scale_s", low=0, above=True)

    def shape(self, u, basis_s):
        return np.log1p(u / self.scale_s)


@dataclass(frozen=True)
class ExponentialBehavior:
    """Ramp ``exp(rate_per_s * u) - 1`` of elapsed time ``u``."""

    kind: ClassVar[str] = "exponential"
    rate_per_s: float = 0.01

    def __post_init__(self):
        store_number(self, "rate_per_s")

    def shape(self, u, basis_s):
        return np.expm1(self.rate_per_s * u)


@dataclass(frozen=True)
class PolynomialBehavior:
    """Ramp ``sum_k c_k * u**(k+1)``; coefficients start at the linear term."""

    kind: ClassVar[str] = "polynomial"
    coefficients: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if not self.coefficients:
            raise ConfigurationError("coefficients must be non-empty")
        coefficients = tuple(number("coefficients", c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coefficients)

    def shape(self, u, basis_s):
        out = np.zeros_like(u)
        for k, c in enumerate(self.coefficients):
            out += c * u ** (k + 1)
        return out


GradualBehavior = Union[
    LinearBehavior, LogarithmicBehavior, ExponentialBehavior, PolynomialBehavior
]

_BEHAVIOR_TYPES = typing.get_args(GradualBehavior)


# --------------------------------------------------------------------------
# Events and trajectories.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AttackEvent:
    """One delay event: a jump, a spike, or a gradual ramp.

    ``width_s`` applies to spikes only (default one measurement epoch, 1 s).
    ``behavior``, ``step_interval_s``, ``end_s`` and ``reverse_after_end``
    apply to gradual events only.  ``step_interval_s > 0`` staircase-
    quantizes the ramp: the value advances only at integer multiples of the
    step interval past the onset.  ``end_s`` freezes the ramp at its value
    there; with ``reverse_after_end`` the per-step increment is negated
    instead, mirroring the ramp back toward zero.
    """

    pattern: AttackPattern
    amplitude_ps: float
    start_s: float
    width_s: Optional[float] = None
    behavior: Optional[GradualBehavior] = None
    step_interval_s: float = 0.0
    end_s: Optional[float] = None
    reverse_after_end: bool = False

    def __post_init__(self):
        pattern = enum_member(AttackPattern, self.pattern, "pattern")
        object.__setattr__(self, "pattern", pattern)
        store_number(self, "amplitude_ps")
        store_number(self, "start_s", low=0)
        store_number(self, "width_s", low=0, above=True, optional=True)
        store_number(self, "step_interval_s", low=0)
        store_number(self, "end_s", low=self.start_s, above=True, optional=True)
        reverse = self.reverse_after_end
        if not isinstance(reverse, bool):
            raise ConfigurationError(f"reverse_after_end must be a bool: {reverse!r}")

        gradual_only = {
            "behavior": self.behavior is not None,
            "step_interval_s": self.step_interval_s != 0.0,
            "end_s": self.end_s is not None,
            "reverse_after_end": self.reverse_after_end,
        }
        if pattern is AttackPattern.SPIKE:
            if self.width_s is None:
                object.__setattr__(self, "width_s", 1.0)
        elif self.width_s is not None:
            raise ConfigurationError(f"width_s not allowed for {pattern.value} events")

        if pattern is AttackPattern.GRADUAL:
            if self.behavior is None:
                object.__setattr__(self, "behavior", LinearBehavior())
            if not isinstance(self.behavior, _BEHAVIOR_TYPES):
                raise ConfigurationError(f"unsupported gradual behavior: {self.behavior!r}")
        else:
            offending = [k for k, v in gradual_only.items() if v]
            if offending:
                raise ConfigurationError(
                    f"{', '.join(offending)} only allowed for gradual events"
                )


@dataclass(frozen=True)
class DelayTrajectory:
    """Superposition of attack events; evaluates to their sum."""

    events: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        for e in self.events:
            if not isinstance(e, AttackEvent):
                raise ConfigurationError(f"not an AttackEvent: {e!r}")


@dataclass(frozen=True)
class CoordinationRule:
    """How the backward delay relates to the forward delay.

    Proportional coordination sets N(t) = n * M(t); n = -1 keeps the
    round-trip transit time constant, hiding the attack from round-trip
    monitoring.
    """

    mode: CoordinationMode
    n: Optional[float] = None

    def __post_init__(self):
        mode = enum_member(CoordinationMode, self.mode, "mode")
        object.__setattr__(self, "mode", mode)
        store_number(self, "n", optional=True)
        if mode is CoordinationMode.PROPORTIONAL:
            if self.n is None:
                object.__setattr__(self, "n", -1.0)
        elif self.n is not None:
            raise ConfigurationError("n only allowed for proportional coordination")


# --------------------------------------------------------------------------
# Evaluation.
# --------------------------------------------------------------------------


def _quantize_elapsed(u, step_s):
    if step_s <= 0:
        return u
    return np.floor(u / step_s) * step_s


def _gradual_value(event, u):
    """Gradual ramp value for clipped elapsed time ``u >= 0`` (array)."""
    basis = event.step_interval_s if event.step_interval_s > 0 else 1.0
    amp = event.amplitude_ps

    def g(v):
        return amp * event.behavior.shape(_quantize_elapsed(v, event.step_interval_s), basis)

    out = g(u)
    if event.end_s is not None:
        u_end = event.end_s - event.start_s
        held = g(np.asarray(u_end, dtype=float))
        if event.reverse_after_end:
            out = np.where(u > u_end, 2.0 * held - out, out)
        else:
            out = np.where(u > u_end, held, out)
    return out


def eval_event(event, t_s):
    """Delay contribution of one event at time(s) ``t_s`` (seconds) in ps."""
    t = np.asarray(t_s, dtype=float)
    scalar = t.ndim == 0
    u = t - event.start_s
    gate = u >= 0.0
    if event.pattern is AttackPattern.JUMP:
        out = event.amplitude_ps * gate
    elif event.pattern is AttackPattern.SPIKE:
        out = event.amplitude_ps * (gate & (u < event.width_s))
    elif event.pattern is AttackPattern.GRADUAL:
        out = _gradual_value(event, np.clip(u, 0.0, None)) * gate
    else:  # pragma: no cover - enum exhausts patterns
        raise ConfigurationError(f"unsupported attack pattern: {event.pattern!r}")
    return float(out) if scalar else out


def _piece(event, t):
    """The constant piece of ``event`` that holds the time ``t`` (seconds),
    or None for a continuous ramp, which has no pieces.

    Each entry is a quantity that ``eval_event`` computes from ``t`` with
    the same float operations, and which never falls as ``t`` grows: the
    onset gate, a spike's end, a staircase's step count and the hold point.
    So two times with equal pieces give every time between them the same
    inputs, hence the same delay bit for bit.
    """
    u = t - event.start_s
    if event.pattern is AttackPattern.JUMP:
        return (u >= 0.0,)
    if event.pattern is AttackPattern.SPIKE:
        return u >= 0.0, u >= event.width_s
    if event.step_interval_s <= 0:
        return None
    u_clipped = max(u, 0.0)
    held = event.end_s is not None and u_clipped > event.end_s - event.start_s
    return u >= 0.0, np.floor(u_clipped / event.step_interval_s), held


def _one_piece(traj, t):
    """Whether every time of the array ``t`` lies in one constant piece of
    every event of ``traj``: its earliest and latest times do."""
    lo, hi = float(t.min()), float(t.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return False
    for event in traj.events:
        piece = _piece(event, lo)
        if piece is None or piece != _piece(event, hi):
            return False
    return True


def _event_sum(traj, t):
    out = np.zeros_like(t)
    with np.errstate(over="ignore", invalid="ignore"):
        for event in traj.events:
            out = out + eval_event(event, t)
    # One comparison refuses NaN and infinities too, so which of the two
    # shows first in an array cannot change the message.
    if not np.all(np.abs(out) <= MAX_EXACT_PS):
        raise ConfigurationError(
            "delay trajectory is not finite or exceeds the exact int64/float64 range"
        )
    return out


def eval_trajectory(traj, t_s):
    """Sum of event contributions at time(s) ``t_s``; empty trajectory is 0.

    When an array's earliest and latest times lie in one constant piece
    of every event (see ``_piece``: onset gates, spike ends, staircase
    steps and hold points split pieces), the sum is evaluated at its first
    time only and filled in: the same bits as evaluating it at each time,
    since every time between shares that piece.  A continuous ramp has no
    pieces, so an array meeting one is evaluated element by element.

    A delay no timestamp or clock difference can carry is refused here
    with a ``ConfigurationError``: an overflowing ramp (infinite or NaN),
    or a finite value beyond ``MAX_EXACT_PS``.  Full simulation and
    analytic runs both evaluate their trajectories here.
    """
    t = np.asarray(t_s, dtype=float)
    if t.ndim == 0:
        return float(_event_sum(traj, t))
    if t.size > 1 and _one_piece(traj, t):
        return np.full_like(t, _event_sum(traj, t.reshape(-1)[:1])[0])
    return _event_sum(traj, t)


def derive_n_from_m(m, rule, independent_n=None):
    """Backward trajectory implied by the coordination rule.

    Proportional mode scales every event amplitude by ``n`` so that the
    backward delay equals ``n * M(t)`` at all times.  Independent mode
    passes through the separately supplied trajectory (empty when absent).
    """
    if rule.mode is CoordinationMode.PROPORTIONAL:
        scaled = tuple(
            replace(e, amplitude_ps=rule.n * e.amplitude_ps) for e in m.events
        )
        return DelayTrajectory(scaled)
    return independent_n if independent_n is not None else DelayTrajectory()


def tampered_clock_difference(delta_t_ps, m_ps, n_ps, scheme):
    """Clock difference the victim computes under directional delays.

    Evaluates ``delta_t - (alpha * m + beta * n) / 2`` with the coefficient
    pair of ``scheme``, a ``SchemeKind`` or its value string.  Accepts
    scalars or arrays.
    """
    scheme = enum_member(SchemeKind, scheme, "scheme")
    delta_t = np.asarray(delta_t_ps, dtype=float)
    m = np.asarray(m_ps, dtype=float)
    n = np.asarray(n_ps, dtype=float)
    if not (np.all(np.isfinite(delta_t)) and np.all(np.isfinite(m)) and np.all(np.isfinite(n))):
        raise ConfigurationError("tampered_clock_difference requires finite inputs")
    out = delta_t - (scheme.alpha * m + scheme.beta * n) / 2.0
    return float(out) if out.ndim == 0 else out
