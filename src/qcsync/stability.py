"""Time-deviation (TDEV) stability analysis of clock-difference series.

For evenly spaced phase samples x_1..x_N at interval tau0 and averaging
factor m, the overlapping estimator used throughout is

    TDEV(m*tau0)^2 = 1 / (6 m^2 (N - 3m + 1))
                     * sum_{i=1}^{N-3m+1} [ sum_{j=i}^{i+m-1}
                         (x_{j+2m} - 2 x_{j+m} + x_j) ]^2

which vanishes on constants and exact linear ramps, scales like
tau^{-1/2} on white phase noise, and equals the sample sigma at m = 1 for
i.i.d. noise.  Gaps (NaN samples on the full epoch grid) are skipped term by
term, never interpolated: only the outer-sum terms whose 3m samples are all
present enter the average, as for stability estimators with missing data
(NIST SP 1065).  Interpolating, or closing the series up over its gaps,
would mask exactly the attack artifacts this statistic is meant to expose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import ConfigurationError, GapError, number

__all__ = [
    "TdevPoint",
    "TdevCurve",
    "tdev",
    "default_m_grid",
    "estimate_step_shift",
]


@dataclass(frozen=True)
class TdevPoint:
    m: int
    tau_s: float
    tdev_ps: float
    n_terms: int


@dataclass
class TdevCurve:
    tau0_s: float
    points: List[TdevPoint]

    def taus(self):
        return np.array([p.tau_s for p in self.points])

    def values(self):
        return np.array([p.tdev_ps for p in self.points])

    def nearest(self, tau_s):
        """Curve point whose averaging time is closest to ``tau_s``, a
        positive, finite time (``errors.number``)."""
        tau_s = number("tau_s", tau_s, low=0, above=True)
        if not self.points:
            raise ConfigurationError("empty TDEV curve")
        idx = int(np.argmin(np.abs(self.taus() - tau_s)))
        return self.points[idx]

    def csv_lines(self):
        """The ``tdev.csv`` lines, header first, each ending in a newline."""
        yield "tau_s,tdev_ps,m,n_terms\n"
        for p in self.points:
            yield f"{p.tau_s!r},{p.tdev_ps!r},{p.m},{p.n_terms}\n"

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(self.csv_lines())


def default_m_grid(n):
    """Octave-spaced averaging factors {1, 2, 4, ...} up to (n-1)//3."""
    if n < 4:
        raise ConfigurationError("need at least 4 samples for a TDEV grid")
    top = (n - 1) // 3
    grid = []
    m = 1
    while m <= top:
        grid.append(m)
        m *= 2
    return grid


def tdev(x, tau0_s, m_values=None):
    """TDEV curve of an evenly spaced phase series (ps in, ps out).

    Parameters
    ----------
    x : sequence of phase values, picoseconds, on the full sampling grid
        with NaN at gaps
    tau0_s : base sampling interval, seconds
    m_values : integer averaging factors; defaults to the octave grid

    Each point averages only the terms whose samples are all present;
    ``n_terms`` counts them.  An ``m`` without any complete term is left
    out of the curve.  Raises ConfigurationError on a too-short series or
    a non-integral or out-of-range m, and GapError when no ``m`` has a
    complete term.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ConfigurationError("series must be one-dimensional")
    n = x.size
    if n < 4:
        raise ConfigurationError("series must contain at least 4 samples")
    if not np.all(np.isfinite(x[~np.isnan(x)])):
        raise ConfigurationError("series must be finite")
    tau0_s = number("tau0_s", tau0_s, low=0, above=True)

    if m_values is None:
        m_values = default_m_grid(n)
    top = (n - 1) // 3
    points = []
    for m in m_values:
        m = number("m", m, low=1, high=top, integer=True)
        d = x[2 * m :] - 2.0 * x[m : n - m] + x[: n - 2 * m]
        # A term is complete when none of its m second differences touches
        # a gap; its sum then holds none of the zeros standing in for NaN.
        missing = np.isnan(d)
        d[missing] = 0.0
        n_missing = np.concatenate(([0], np.cumsum(missing)))
        csum = np.concatenate(([0.0], np.cumsum(d)))
        inner = (csum[m:] - csum[:-m])[n_missing[m:] == n_missing[:-m]]
        n_terms = inner.size
        if n_terms == 0:
            continue
        tvar = float(np.dot(inner, inner)) / (6.0 * m * m * n_terms)
        points.append(
            TdevPoint(m=m, tau_s=m * tau0_s, tdev_ps=math.sqrt(tvar), n_terms=n_terms)
        )
    if not points:
        raise GapError("no averaging factor has a gap-free TDEV term")
    return TdevCurve(tau0_s=tau0_s, points=points)


def estimate_step_shift(series, split_time_s):
    """Mean clock difference after a split time minus the mean before it.

    This is how the residual skew of a step-type attack is reported: the
    series is split at the (known or suspected) onset and the two sides are
    averaged.  Gap epochs are ignored; each side must keep at least 10
    usable points.
    """
    times, delta = series.times(), series.deltas()
    usable = ~np.isnan(delta)
    # A NaN split puts every epoch on neither side, as comparisons with it fail.
    before = delta[usable & (times < split_time_s)]
    after = delta[usable & (times >= split_time_s)]
    if before.size < 10 or after.size < 10:
        raise ConfigurationError(
            f"need >= 10 usable epochs on each side of the split "
            f"(got {before.size} before, {after.size} after)"
        )
    return float(np.mean(after) - np.mean(before))
