"""Attack event algebra: shapes, superposition, coordination, tampering."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcsync import attacks
from qcsync.attacks import (
    AttackEvent,
    AttackPattern,
    CoordinationMode,
    CoordinationRule,
    DelayTrajectory,
    ExponentialBehavior,
    LinearBehavior,
    LogarithmicBehavior,
    PolynomialBehavior,
    SchemeKind,
    derive_n_from_m,
    eval_event,
    eval_trajectory,
    tampered_clock_difference,
)
from qcsync.errors import ConfigurationError


def jump(amplitude, start):
    return AttackEvent(AttackPattern.JUMP, amplitude, start)


def spike(amplitude, start, width):
    return AttackEvent(AttackPattern.SPIKE, amplitude, start, width_s=width)


def gradual(amplitude, start, **kwargs):
    return AttackEvent(AttackPattern.GRADUAL, amplitude, start, **kwargs)


class TestJump:
    def test_holds_after_onset(self):
        assert eval_event(jump(-100.0, 100.0), 400.0) == -100.0

    def test_zero_before_onset(self):
        assert eval_event(jump(-100.0, 100.0), 99.999) == 0.0

    def test_onset_included(self):
        assert eval_event(jump(-100.0, 100.0), 100.0) == -100.0

    def test_constant_for_random_times(self, rng):
        event = jump(-37.5, 12.0)
        t = rng.uniform(12.0, 1e4, 200)
        assert np.all(eval_event(event, t) == -37.5)
        t_before = rng.uniform(0.0, 11.999, 200)
        assert np.all(eval_event(event, t_before) == 0.0)


class TestSpike:
    def test_closed_after_width(self):
        assert eval_event(spike(-500.0, 330.0, 10.0), 345.0) == 0.0

    def test_support_half_open(self):
        event = spike(-500.0, 330.0, 10.0)
        assert eval_event(event, 330.0) == -500.0
        assert eval_event(event, 339.999) == -500.0
        assert eval_event(event, 340.0) == 0.0
        assert eval_event(event, 329.999) == 0.0

    def test_default_width_is_one_epoch(self):
        assert spike(-500.0, 330.0, None).width_s == 1.0

    def test_integral_equals_amplitude_times_width(self):
        # Quadrature oracle over a dense grid spanning the pulse.
        event = spike(-240.0, 3.0, 7.0)
        t = np.linspace(0.0, 15.0, 300_001)
        area = np.trapezoid(eval_event(event, t), t)
        assert area == pytest.approx(-240.0 * 7.0, rel=1e-3)

    def test_zero_width_rejected(self):
        with pytest.raises(ConfigurationError):
            spike(-500.0, 330.0, 0.0)


class TestGradual:
    def test_staircase_linear_two_steps(self):
        # Two full step intervals elapsed at a per-step amplitude of -2 ps.
        event = gradual(-2.0, 0.0, step_interval_s=35.0)
        assert eval_event(event, 70.0) == -4.0

    def test_staircase_flat_between_steps(self):
        event = gradual(-2.0, 0.0, step_interval_s=35.0)
        assert eval_event(event, 34.999) == 0.0
        assert eval_event(event, 35.0) == -2.0
        assert eval_event(event, 69.999) == -2.0

    def test_continuous_linear(self):
        event = gradual(-2.0, 0.0, behavior=LinearBehavior(rate_per_step=1.0 / 35.0))
        assert eval_event(event, 70.0) == pytest.approx(-4.0)

    def test_staircase_agrees_with_continuous_at_boundaries(self, rng):
        for _ in range(50):
            step = float(rng.choice([5.0, 10.0, 25.0, 35.0]))
            rate = float(rng.uniform(0.5, 3.0))
            amn = float(rng.uniform(-10.0, 10.0))
            stair = gradual(
                amn, 0.0, behavior=LinearBehavior(rate), step_interval_s=step
            )
            cont = gradual(amn, 0.0, behavior=LinearBehavior(rate / step))
            k = int(rng.integers(0, 40))
            t = k * step
            assert eval_event(stair, t) == pytest.approx(eval_event(cont, t), abs=1e-9)

    def test_continuous_linear_is_lipschitz(self):
        event = gradual(3.0, 1.0, behavior=LinearBehavior(2.0))
        t = np.linspace(0.0, 10.0, 10_001)
        v = eval_event(event, t)
        slope = np.abs(np.diff(v) / np.diff(t))
        assert slope.max() <= 6.0 + 1e-9

    def test_logarithmic_shape(self):
        event = gradual(10.0, 0.0, behavior=LogarithmicBehavior(scale_s=5.0))
        assert eval_event(event, 5.0) == pytest.approx(10.0 * np.log(2.0))
        assert eval_event(event, 0.0) == 0.0

    def test_exponential_shape(self):
        event = gradual(10.0, 0.0, behavior=ExponentialBehavior(rate_per_s=0.1))
        assert eval_event(event, 5.0) == pytest.approx(10.0 * (np.exp(0.5) - 1.0))
        assert eval_event(event, 0.0) == 0.0

    def test_polynomial_shape(self):
        event = gradual(2.0, 0.0, behavior=PolynomialBehavior((2.0, 1.0)))
        assert eval_event(event, 3.0) == pytest.approx(2.0 * (6.0 + 9.0))
        assert eval_event(event, 0.0) == 0.0

    def test_freeze_after_end(self):
        event = gradual(-2.0, 0.0, step_interval_s=35.0, end_s=2100.0)
        assert eval_event(event, 2100.0) == -120.0
        assert eval_event(event, 3000.0) == -120.0

    def test_reverse_after_end(self):
        event = gradual(
            -4.0, 0.0, step_interval_s=35.0, end_s=1750.0, reverse_after_end=True
        )
        assert eval_event(event, 1750.0) == -200.0
        assert eval_event(event, 1785.0) == -196.0
        assert eval_event(event, 2100.0) == -160.0
        assert eval_event(event, 3500.0) == 0.0

    def test_unsupported_behavior_rejected(self):
        class Bogus:
            pass

        with pytest.raises(ConfigurationError):
            gradual(1.0, 0.0, behavior=Bogus())

    def test_gradual_fields_rejected_on_jump(self):
        with pytest.raises(ConfigurationError):
            AttackEvent(AttackPattern.JUMP, 1.0, 0.0, step_interval_s=35.0)

    @pytest.mark.parametrize("value", ["yes", 1, 0, None, np.bool_(True)], ids=repr)
    def test_reverse_flag_must_be_a_bool(self, value):
        # A truthy value passed the constructor, which a document refuses.
        with pytest.raises(ConfigurationError, match="^reverse_after_end "):
            gradual(-4.0, 0.0, end_s=10.0, reverse_after_end=value)


def random_events(rng, max_events=3):
    events = []
    for _ in range(int(rng.integers(0, max_events + 1))):
        kind = rng.integers(0, 3)
        amp = float(rng.uniform(-500.0, 500.0))
        start = float(rng.uniform(0.0, 100.0))
        if kind == 0:
            events.append(jump(amp, start))
        elif kind == 1:
            events.append(spike(amp, start, float(rng.uniform(0.5, 20.0))))
        else:
            events.append(
                gradual(
                    amp,
                    start,
                    behavior=LinearBehavior(float(rng.uniform(0.1, 2.0))),
                    step_interval_s=float(rng.choice([0.0, 5.0, 35.0])),
                )
            )
    return events


class TestTrajectory:
    def test_empty_is_zero(self):
        assert eval_trajectory(DelayTrajectory(), 123.0) == 0.0

    def test_two_jumps_sum(self):
        traj = DelayTrajectory((jump(-100.0, 10.0), jump(-50.0, 20.0)))
        assert eval_trajectory(traj, 30.0) == -150.0

    def test_jump_spike_cancellation(self):
        # Cancellation cross-checked against the per-event oracle.
        e1 = jump(-100.0, 10.0)
        e2 = spike(100.0, 10.0, 5.0)
        traj = DelayTrajectory((e1, e2))
        t = 12.0
        assert eval_trajectory(traj, t) == eval_event(e1, t) + eval_event(e2, t)
        assert eval_trajectory(traj, t) == 0.0

    def test_additivity_over_random_event_sets(self, rng):
        for _ in range(100):
            ev1 = random_events(rng)
            ev2 = random_events(rng)
            t = rng.uniform(0.0, 200.0, 16)
            combined = eval_trajectory(DelayTrajectory(tuple(ev1 + ev2)), t)
            split = eval_trajectory(DelayTrajectory(tuple(ev1)), t) + eval_trajectory(
                DelayTrajectory(tuple(ev2)), t
            )
            np.testing.assert_allclose(combined, split, rtol=1e-12, atol=1e-9)


    def test_overflowing_ramp_refused(self):
        ramp = gradual(-100.0, 20.0, behavior=ExponentialBehavior(rate_per_s=100.0))
        traj = DelayTrajectory((ramp,))
        assert eval_trajectory(traj, 20.1) == pytest.approx(-100.0 * np.expm1(10.0))
        # Finite but beyond 2**53 ps, where timestamps stop being exact.
        with pytest.raises(ConfigurationError, match="int64"):
            eval_trajectory(traj, 21.0)
        with pytest.raises(ConfigurationError, match="not finite"):
            eval_trajectory(traj, np.array([10.0, 40.0]))

    def test_one_refusal_for_every_unrepresentable_delay(self):
        # Full simulation evaluates a trajectory chunk by chunk, so which
        # kind of bad value a call meets first depends on the chunk length.
        ramp = gradual(-100.0, 20.0, behavior=ExponentialBehavior(rate_per_s=100.0))
        traj = DelayTrajectory((ramp,))
        message = "not finite or exceeds the exact int64/float64 range"
        for t_s in (21.0, 40.0, np.array([21.0]), np.array([40.0, 21.0]), np.nan):
            with pytest.raises(ConfigurationError, match=message):
                eval_trajectory(traj, t_s)


UNREPRESENTABLE = "not finite or exceeds the exact int64/float64 range"

behaviors = st.one_of(
    st.builds(LinearBehavior, st.floats(-10.0, 10.0)),
    st.builds(LogarithmicBehavior, st.floats(0.01, 100.0)),
    st.builds(ExponentialBehavior, st.floats(-1.0, 20.0)),
    st.builds(
        PolynomialBehavior, st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3).map(tuple)
    ),
)


@st.composite
def events(draw):
    """A random jump, spike, or stepped or continuous ramp of any behaviour."""
    pattern = draw(st.sampled_from(AttackPattern))
    amplitude = draw(st.floats(-1e3, 1e3))
    start = draw(st.floats(0.0, 100.0))
    if pattern is AttackPattern.JUMP:
        return jump(amplitude, start)
    if pattern is AttackPattern.SPIKE:
        return spike(amplitude, start, draw(st.floats(1e-3, 50.0)))
    end = draw(st.none() | st.floats(1e-3, 100.0).map(lambda held_s: start + held_s))
    return gradual(
        amplitude,
        start,
        behavior=draw(behaviors),
        step_interval_s=draw(st.just(0.0) | st.floats(1e-2, 20.0)),
        end_s=end,
        reverse_after_end=draw(st.booleans()),
    )


def breakpoints(event):
    """Times where ``event`` can change value: its onset, a spike's end, the
    first staircase steps, the hold point and the steps around it."""
    points = [event.start_s]
    if event.pattern is AttackPattern.SPIKE:
        points.append(event.start_s + event.width_s)
    step = event.step_interval_s
    points += [event.start_s + k * step for k in (1, 2, 3)] if step > 0 else []
    if event.end_s is not None:
        points.append(event.end_s)
        if step > 0:
            k = math.floor((event.end_s - event.start_s) / step)
            points += [event.start_s + j * step for j in (k, k + 1, k + 2)]
    return points


def event_sum(traj, t):
    """The sum of ``eval_event`` over the events, element by element."""
    out = np.zeros_like(t)
    with np.errstate(over="ignore", invalid="ignore"):
        for event in traj.events:
            out = out + eval_event(event, t)
    return out


class TestConstantPieces:
    @given(st.lists(events(), min_size=1, max_size=3), st.data())
    @settings(max_examples=400, deadline=None)
    def test_equals_sum_of_events_bit_for_bit(self, evs, data):
        # Every breakpoint and the floats either side of it; short runs of
        # neighbours mostly share one piece of every event, the whole set
        # never does.
        traj = DelayTrajectory(tuple(evs))
        times = sorted(
            {
                x
                for b in (p for e in evs for p in breakpoints(e))
                for x in (b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf))
            }
        )
        lo = data.draw(st.integers(0, len(times) - 1))
        hi = data.draw(st.integers(lo + 1, min(lo + 4, len(times))))
        for t in (np.array(times[lo:hi]), np.array(times)):
            want = event_sum(traj, t)
            if not np.all(np.abs(want) <= attacks.MAX_EXACT_PS):
                with pytest.raises(ConfigurationError, match=UNREPRESENTABLE):
                    eval_trajectory(traj, t)
                continue
            got = eval_trajectory(traj, t)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_one_piece_evaluated_once(self, monkeypatch):
        sizes = []
        evaluate = attacks.eval_event

        def recording(event, t):
            sizes.append(np.size(t))
            return evaluate(event, t)

        monkeypatch.setattr(attacks, "eval_event", recording)
        stair = gradual(-4.0, 0.0, step_interval_s=35.0, end_s=1750.0, reverse_after_end=True)
        traj = DelayTrajectory((stair, jump(-100.0, 250.0), spike(50.0, 400.0, 1.0)))
        # Within one step of the staircase, away from the jump and spike.
        t = np.linspace(36.0, 69.0, 1000)
        np.testing.assert_array_equal(eval_trajectory(traj, t), np.full(1000, -4.0))
        assert sizes == [1, 1, 1]
        # Across a step, and wherever a continuous ramp takes part, every
        # time is evaluated.
        sizes.clear()
        eval_trajectory(traj, np.linspace(30.0, 40.0, 1000))
        ramp = gradual(-4.0, 0.0, end_s=1750.0)
        eval_trajectory(DelayTrajectory((ramp,)), np.linspace(2000.0, 2001.0, 1000))
        assert sizes == [1000, 1000, 1000, 1000]

    @pytest.mark.parametrize(
        "event",
        [
            jump(-100.0, 10.0),
            spike(50.0, 10.0, 5.0),
            gradual(-4.0, 0.0, step_interval_s=3.5),
            gradual(-4.0, 0.0, step_interval_s=3.5, end_s=20.0),
            gradual(-4.0, 0.0, step_interval_s=3.5, end_s=20.0, reverse_after_end=True),
        ],
        ids=["jump", "spike", "staircase", "held", "reversed"],
    )
    def test_piece_entries_never_fall(self, event):
        # Every entry of a piece is non-decreasing in time, so the pieces of
        # an ascending run of times can be walked in order.
        edges = {
            x
            for b in breakpoints(event)
            for x in (b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf))
        }
        times = sorted(edges | set(np.linspace(-5.0, 40.0, 901).tolist()))
        pieces = np.array([[float(x) for x in attacks._piece(event, t)] for t in times])
        assert np.all(np.diff(pieces, axis=0) >= 0.0)

    def test_refusal_unchanged_in_one_piece(self):
        # An overflowing staircase: every time of each array shares one step.
        ramp = gradual(
            -100.0, 20.0, behavior=ExponentialBehavior(rate_per_s=100.0), step_interval_s=1.0
        )
        traj = DelayTrajectory((ramp,))
        for t in (np.linspace(21.0, 21.5, 100), np.linspace(40.0, 40.5, 100)):
            with pytest.raises(ConfigurationError, match=UNREPRESENTABLE):
                eval_trajectory(traj, t)
        # A NaN time is never read as lying in a piece.
        with pytest.raises(ConfigurationError, match=UNREPRESENTABLE):
            eval_trajectory(traj, np.array([0.0, np.nan, 0.5]))
        np.testing.assert_array_equal(eval_trajectory(traj, np.linspace(0.0, 19.0, 50)), 0.0)


class TestCoordination:
    def test_sign_flip_for_round_trip_hiding(self):
        m = DelayTrajectory((jump(-500.0, 10.0),))
        rule = CoordinationRule(CoordinationMode.PROPORTIONAL, -1.0)
        n = derive_n_from_m(m, rule)
        assert n.events[0].amplitude_ps == 500.0
        assert eval_trajectory(n, 400.0) == 500.0

    def test_zero_coefficient_annihilates(self, rng):
        m = DelayTrajectory(tuple(random_events(rng, 3)))
        n = derive_n_from_m(m, CoordinationRule(CoordinationMode.PROPORTIONAL, 0.0))
        t = rng.uniform(0.0, 200.0, 32)
        assert np.all(eval_trajectory(n, t) == 0.0)

    def test_scaling(self):
        m = DelayTrajectory((jump(-10.0, 0.0),))
        n = derive_n_from_m(m, CoordinationRule(CoordinationMode.PROPORTIONAL, 2.0))
        assert eval_trajectory(n, 5.0) == -20.0

    def test_round_trip_sum_conserved(self, rng):
        rule = CoordinationRule(CoordinationMode.PROPORTIONAL, -1.0)
        for _ in range(100):
            m = DelayTrajectory(tuple(random_events(rng)))
            n = derive_n_from_m(m, rule)
            t = rng.uniform(0.0, 200.0, 16)
            np.testing.assert_allclose(
                eval_trajectory(m, t) + eval_trajectory(n, t), 0.0, atol=1e-9
            )

    def test_independent_passthrough(self):
        m = DelayTrajectory((jump(-10.0, 0.0),))
        rule = CoordinationRule(CoordinationMode.INDEPENDENT)
        supplied = DelayTrajectory((jump(7.0, 1.0),))
        assert derive_n_from_m(m, rule, supplied) is supplied
        assert derive_n_from_m(m, rule).events == ()

    def test_default_proportional_coefficient(self):
        assert CoordinationRule(CoordinationMode.PROPORTIONAL).n == -1.0


class TestScheme:
    @pytest.mark.parametrize(
        "kind,expected",
        [
            (SchemeKind.TWO_WAY, (1, -1)),
            (SchemeKind.HOM_INTERFERENCE, (-1, 1)),
            (SchemeKind.ROUND_TRIP, (-1, 1)),
        ],
    )
    def test_coefficients(self, kind, expected):
        assert (kind.alpha, kind.beta) == expected

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="^scheme must be one of .*'telepathy'"):
            tampered_clock_difference(0.0, 0.0, 0.0, "telepathy")

    def test_value_string_accepted(self):
        assert tampered_clock_difference(0.0, -100.0, 100.0, "round_trip") == -100.0


class TestTamperedClockDifference:
    def test_round_trip_shift(self):
        scheme = SchemeKind.ROUND_TRIP
        delta = tampered_clock_difference(-9912.8, -100.0, 100.0, scheme)
        assert delta == pytest.approx(-10012.8)

    def test_no_attack_identity(self):
        for kind in SchemeKind:
            assert tampered_clock_difference(42.0, 0.0, 0.0, kind) == 42.0

    def test_two_way_symmetric_delays_cancel(self):
        scheme = SchemeKind.TWO_WAY
        assert tampered_clock_difference(-5.0, 321.0, 321.0, scheme) == -5.0

    def test_round_trip_hidden_attack_closed_form(self, rng):
        # With N = -M the round-trip scheme yields delta = raw + M.
        scheme = SchemeKind.ROUND_TRIP
        for _ in range(50):
            raw = float(rng.uniform(-1e4, 1e4))
            m = float(rng.uniform(-500.0, 500.0))
            delta = tampered_clock_difference(raw, m, -m, scheme)
            assert delta == pytest.approx(raw + m, rel=1e-12, abs=1e-9)

    def test_rejects_nonfinite(self):
        with pytest.raises(ConfigurationError):
            tampered_clock_difference(float("inf"), 0.0, 0.0, SchemeKind.ROUND_TRIP)
