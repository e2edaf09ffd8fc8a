"""TDEV against a direct-from-definition evaluator, plus step-shift tests."""

import math

import numpy as np
import pytest

from qcsync.errors import ConfigurationError, GapError
from qcsync.stability import default_m_grid, estimate_step_shift, tdev

from conftest import make_series


def complete_terms(x, m):
    """Start indices of the outer-sum terms whose 3m samples are all present."""
    return [i for i in range(x.size - 3 * m + 1) if not np.isnan(x[i : i + 3 * m]).any()]


def tdev_brute(x, tau0_s, m_values):
    """Direct triple-loop evaluation of the TDEV definition (test oracle).

    Terms touching a NaN gap are skipped; an m without any complete term is
    left out.
    """
    x = np.asarray(x, dtype=float)
    out = []
    for m in m_values:
        terms = complete_terms(x, m)
        if not terms:
            continue
        total = 0.0
        for i in terms:
            inner = 0.0
            for j in range(i, i + m):
                inner += x[j + 2 * m] - 2.0 * x[j + m] + x[j]
            total += inner * inner
        out.append(math.sqrt(total / (6.0 * m * m * len(terms))))
    return out


class TestTdevOracle:
    def test_matches_brute_force_on_random_series(self, rng):
        for _ in range(10):
            n = int(rng.integers(20, 400))
            x = rng.normal(0.0, rng.uniform(0.5, 50.0), n) + rng.uniform(-1e4, 1e4)
            grid = default_m_grid(n)
            fast = tdev(x, 1.0, grid).values()
            brute = tdev_brute(x, 1.0, grid)
            np.testing.assert_allclose(fast, brute, rtol=1e-12)

    def test_matches_brute_force_on_random_walk(self, rng):
        x = np.cumsum(rng.normal(0.0, 3.0, 700))
        grid = default_m_grid(700)
        np.testing.assert_allclose(
            tdev(x, 2.0, grid).values(), tdev_brute(x, 2.0, grid), rtol=1e-12
        )

    def test_matches_brute_force_on_gapped_series(self, rng):
        for _ in range(10):
            n = int(rng.integers(40, 400))
            x = rng.normal(0.0, rng.uniform(0.5, 50.0), n) + rng.uniform(-1e4, 1e4)
            x[rng.integers(0, n, int(rng.integers(1, 6)))] = np.nan
            start = int(rng.integers(0, n - 5))
            x[start : start + int(rng.integers(1, 5))] = np.nan
            grid = default_m_grid(n)
            curve = tdev(x, 1.0, grid)
            kept = [m for m in grid if complete_terms(x, m)]
            assert [p.m for p in curve.points] == kept
            assert [p.n_terms for p in curve.points] == [len(complete_terms(x, m)) for m in kept]
            np.testing.assert_allclose(curve.values(), tdev_brute(x, 1.0, grid), rtol=1e-12)

    def test_m_without_complete_term_left_out(self):
        x = np.arange(13.0) ** 2
        x[6] = np.nan
        curve = tdev(x, 1.0, [1, 2, 4])
        assert [p.m for p in curve.points] == [1, 2]
        assert [p.n_terms for p in curve.points] == [8, 2]

    def test_constant_series_is_exactly_zero(self):
        curve = tdev(np.full(64, 17.25), 1.0)
        assert np.all(curve.values() == 0.0)

    def test_representable_linear_ramp_is_exactly_zero(self):
        # a + b*i with exactly representable a, b keeps second differences 0.
        i = np.arange(128, dtype=float)
        curve = tdev(2.0 + 0.5 * i, 1.0)
        assert np.all(curve.values() == 0.0)

    def test_white_noise_m1_equals_sigma(self, rng):
        sigma = 4.2
        x = rng.normal(0.0, sigma, 10_000)
        value = tdev(x, 1.0, [1]).values()[0]
        assert value == pytest.approx(sigma, rel=0.02)

    def test_white_noise_log_slope(self, rng):
        x = rng.normal(0.0, 3.0, 10_000)
        curve = tdev(x, 1.0)
        slope = np.polyfit(np.log(curve.taus()), np.log(curve.values()), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)


class TestTdevProperties:
    def test_translation_invariance(self, rng):
        x = rng.normal(0.0, 5.0, 500)
        base = tdev(x, 1.0).values()
        shifted = tdev(x + 1000.0, 1.0).values()
        np.testing.assert_allclose(shifted, base, rtol=1e-9)

    def test_scale_equivariance(self, rng):
        x = rng.normal(0.0, 5.0, 500)
        base = tdev(x, 1.0).values()
        scaled = tdev(-2.5 * x, 1.0).values()
        np.testing.assert_allclose(scaled, 2.5 * base, rtol=1e-12)

    def test_single_outlier_signature(self):
        n = 1000
        flat = np.zeros(n)
        spiked = flat.copy()
        spiked[500] = 300.0
        grid = default_m_grid(n)
        flat_curve = tdev(flat, 1.0, grid).values()
        spike_curve = tdev(spiked, 1.0, grid).values()
        assert spike_curve[0] > flat_curve[0]
        # Outlier contribution decays toward large averaging factors.
        assert np.all(np.diff(spike_curve) < 0)
        assert spike_curve[-1] / spike_curve[0] < 0.2

    def test_tau_values_scale_with_m(self):
        curve = tdev(np.arange(100.0) ** 1.5, 2.0)
        np.testing.assert_allclose(
            curve.taus(), [p.m * 2.0 for p in curve.points]
        )
        for p in curve.points:
            assert p.n_terms == 100 - 3 * p.m + 1

    def test_nearest_point(self, rng):
        curve = tdev(rng.normal(0.0, 1.0, 3500), 1.0)
        assert curve.nearest(1000.0).m == 1024
        assert curve.nearest(1.0).m == 1

    @pytest.mark.parametrize("tau", ["3", True, None, math.nan, math.inf, 0.0, -1.0], ids=repr)
    def test_nearest_refuses_what_number_refuses(self, rng, tau):
        # "3" and None raised a raw TypeError, and True returned the 1 s
        # point, a bool taken as a number.
        curve = tdev(rng.normal(0.0, 1.0, 100), 1.0)
        with pytest.raises(ConfigurationError, match="^tau_s "):
            curve.nearest(tau)


class TestTdevErrors:
    def test_too_short_series(self):
        with pytest.raises(ConfigurationError):
            tdev([1.0, 2.0, 3.0], 1.0)

    def test_m_out_of_range(self):
        with pytest.raises(ConfigurationError):
            tdev(np.zeros(100), 1.0, [34])

    @pytest.mark.parametrize("m", [2.7, 2.0, True, float("nan"), "2"])
    def test_non_integral_m_refused(self, m):
        # None is rounded or parsed into an averaging factor, and a whole
        # float is refused as every integer field refuses it.
        with pytest.raises(ConfigurationError, match="^m must be an integer"):
            tdev(np.zeros(100), 1.0, [m])

    def test_integral_m_accepted(self):
        curve = tdev(np.arange(100.0), 1.0, [2, np.int64(3)])
        assert [p.m for p in curve.points] == [2, 3]

    def test_no_complete_term_refused(self):
        x = np.zeros(50)
        x[::3] = np.nan
        with pytest.raises(GapError):
            tdev(x, 1.0)

    def test_nonfinite_refused(self):
        x = np.zeros(50)
        x[10] = np.inf
        with pytest.raises(ConfigurationError):
            tdev(x, 1.0)


class TestDefaultMGrid:
    def test_n100(self):
        assert default_m_grid(100) == [1, 2, 4, 8, 16, 32]

    def test_n4(self):
        assert default_m_grid(4) == [1]

    def test_n3100(self):
        grid = default_m_grid(3100)
        assert grid[-1] == 1024
        assert max(grid) <= 1033

    def test_too_small(self):
        with pytest.raises(ConfigurationError):
            default_m_grid(3)


class TestStepShift:
    def test_synthetic_step(self):
        series = make_series([-9900.0] * 20 + [-10000.0] * 20)
        assert estimate_step_shift(series, 20.0) == pytest.approx(-100.0)

    def test_identical_halves(self):
        series = make_series([-9900.0] * 40)
        assert estimate_step_shift(series, 20.0) == 0.0

    def test_monte_carlo_jump_recovery(self, rng):
        sigma = 2.0
        n = 400
        values = rng.normal(-9900.0, sigma, n)
        values[n // 2 :] -= 50.0
        series = make_series(values)
        shift = estimate_step_shift(series, n / 2.0)
        tol = 3.0 * sigma * math.sqrt(2.0 / (n / 2.0))
        assert shift == pytest.approx(-50.0, abs=tol)

    def test_gap_epochs_ignored(self):
        values = [-9900.0] * 15 + [None] * 5 + [-10000.0] * 15
        series = make_series(values)
        assert estimate_step_shift(series, 17.0) == pytest.approx(-100.0)

    def test_insufficient_points(self):
        series = make_series([-9900.0] * 12)
        with pytest.raises(ConfigurationError):
            estimate_step_shift(series, 6.0)
