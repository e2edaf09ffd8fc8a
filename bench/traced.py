"""Spans around the layers of the real ``qcsync.run_scenario``.

The benchmark may not instrument ``src/``.  The campaign path looks its
layers' public functions up as module-level names at call time, so, for
the length of a block, ``instrumented`` replaces each of those names with a
wrapper that opens a span around the real function and records counts of
what it returns.  The traced campaign then calls ``qcsync.run_scenario``
itself, so every span surrounds the code the program actually runs.
``attacks.eval_trajectory`` runs inside ``propagate_and_detect`` and is
timed as part of it.
"""

from __future__ import annotations

import contextlib
import functools

import qcsync
from qcsync import estimator, runner, simulation


def _stream_counts(stream):
    counts = {"records": len(stream)}
    counts.update({det.name: n for det, n in stream.counts().items()})
    return counts


# (module, name looked up at call time, span name, counts of the result)
LAYERS = (
    (simulation, "generate_pairs", "simulation.generate_pairs", lambda p: {"pairs": len(p)}),
    (simulation, "propagate_and_detect", "simulation.propagate_and_detect", _stream_counts),
    (estimator, "coarse_acquire", "estimator.coarse_acquire", None),
    (
        runner,
        "per_epoch_series",
        "estimator.per_epoch_series",
        lambda s: {"epochs": len(s), "gap_epochs": s.gap_count()},
    ),
    (runner, "tdev", "stability.tdev", lambda c: {"points": len(c.points)}),
    (runner, "threshold_monitor", "detection.threshold_monitor", lambda a: {"alarms": len(a)}),
    (runner, "cusum_drift", "detection.cusum_drift", lambda a: {"alarms": len(a)}),
    (runner, "write_campaign", "runner.write_campaign", None),
)

# Spans every benchmark workload opens.  The workloads all configure both
# detectors and leave the estimator to acquire its centres.
SPANS = ("scenario.load", "run_scenario") + tuple(span for _, _, span, _ in LAYERS)


def _wrap(tracer, span, func, counts_of):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        with tracer.span(span) as counts:
            value = func(*args, **kwargs)
        # Counted outside the span, so the count's cost is tracing overhead.
        if counts_of is not None:
            counts.update(counts_of(value))
        return value

    return traced


@contextlib.contextmanager
def instrumented(tracer):
    """Within the block, each layer of ``LAYERS`` opens a span on ``tracer``."""
    originals = [(module, name, getattr(module, name)) for module, name, _, _ in LAYERS]
    try:
        for (module, name, func), (_, _, span, counts_of) in zip(originals, LAYERS):
            setattr(module, name, _wrap(tracer, span, func, counts_of))
        yield
    finally:
        for module, name, func in originals:
            setattr(module, name, func)


def traced_campaign(source, out_dir, tracer):
    """Run one campaign under ``tracer``; returns its ``CampaignResult``.

    ``scenario.load`` is timed on its own; ``run_scenario`` spans the rest,
    the part an untraced ``run_scenario(scenario, out_dir)`` call times.
    """
    with tracer.span("scenario.load"):
        scenario = qcsync.load_scenario(source)
    with instrumented(tracer), tracer.span("run_scenario"):
        return qcsync.run_scenario(scenario, out_dir)
