"""Fixed reference computation that gauges the machine's current speed.

The box the benchmark runs on is shared, and its speed drifts by tens of
percent over minutes.  The benchmark runs this kernel in its own process
next to every campaign and reports times at reference speed (see
``at_reference_speed``).  The kernel imports nothing from qcsync, so a
change to the program cannot move it.  Its mix follows the campaign's own: random draws, a sort, a
``searchsorted`` sweep with a histogram, and a Python loop over numpy
scalars like the dead-time filter.
"""

import time

import numpy as np

# Nominal kernel time, so that times at reference speed read as seconds.
REFERENCE_S = 1.0
# Share of the kernel's slowdown taken out of a campaign's time.  The
# kernel tracks only part of the drift a campaign sees: over five sets of
# ten runs per workload, a full correction (1) left inter-quartile spreads
# of up to 0.22, as did none (0); half left at most 0.15.
REFERENCE_WEIGHT = 0.5


def at_reference_speed(seconds, reference_s):
    """``seconds`` measured while the kernel took ``reference_s``, rescaled.

    The reference kernel imports nothing from qcsync, so a program that
    gets 10% slower still reads 10% slower.
    """
    return seconds * (REFERENCE_S / reference_s) ** REFERENCE_WEIGHT


def reference_seconds():
    """Wall seconds of one run of the fixed kernel."""
    started = time.perf_counter()
    rng = np.random.default_rng(20251021)
    n = 4_000_000
    jitter = rng.standard_normal(n)
    times = np.sort(rng.uniform(0.0, 1e12, n))
    hits = times[rng.random(n) < 0.5]
    index = np.searchsorted(times, hits + 50.0 * jitter[: hits.size])
    np.bincount(index % 4096, minlength=4096)
    ticks = times.astype(np.int64)
    last = ticks[0]
    for i in range(1, 1_500_000):
        if ticks[i] - last >= 100_000:
            last = ticks[i]
    return time.perf_counter() - started
