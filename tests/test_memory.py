"""Memory bounds of the campaign path that do not depend on the machine.

numpy reports its array allocations to ``tracemalloc``, so a traced peak
counts the bytes the program asked for, not what the allocator or the
kernel made of them.  The stream and the emission times grow with the run;
everything else must stay within a multiple of the simulation's chunk or
the histogram kernel's slice, which both tests shrink so that a single
full-length temporary of a 1 M-pair run would exceed the bound many times.
"""

import dataclasses

import pytest

from qcsync import estimator, simulation
from qcsync.runner import load_scenario
from qcsync.scenario import builtin_scenario

from conftest import traced_peak

CHUNK = 10_000
CHUNK_BYTES = 8 * CHUNK


def million_pair_scenario():
    doc = builtin_scenario("baseline")
    doc["source"] = {"pair_rate_hz": 1.0e5}
    doc["run"]["duration_s"] = 10.0
    return load_scenario(doc)


def stream_bytes(stream):
    return sum(t.nbytes for t in stream.times)


def simulation_peak(monkeypatch, **detectors):
    """A million-pair simulation's traced peak, and the bytes of its emission
    times and its stream, with the ``detectors`` fields changed."""
    monkeypatch.setattr(simulation, "_PAIR_CHUNK", CHUNK)
    scenario = million_pair_scenario()
    scenario = dataclasses.replace(
        scenario, detectors=dataclasses.replace(scenario.detectors, **detectors)
    )
    # A first, short run imports what the simulation imports lazily
    # (numpy.random's submodules, ~7 chunk-sizes, and the thread pool's
    # modules, ~1), which no later run pays again.  It spans a few chunks,
    # so it runs on the thread pool as the measured run does.
    short = dataclasses.replace(scenario.run, duration_s=0.25)
    simulation.run_round_trip_sim(dataclasses.replace(scenario, run=short))
    pair_bytes = []
    generate = simulation.generate_pairs

    def recording(*args):
        pairs = generate(*args)
        pair_bytes.append(pairs.nbytes)
        return pairs

    monkeypatch.setattr(simulation, "generate_pairs", recording)
    stream, peak = traced_peak(simulation.run_round_trip_sim, scenario)
    assert pair_bytes[0] >= 8 * 1_000_000
    return peak, pair_bytes[0] + stream_bytes(stream)


def simulation_excess(monkeypatch, **detectors):
    """How far a million-pair simulation's traced peak exceeds its emission
    times and its stream, in bytes, with the ``detectors`` fields changed."""
    peak, grown = simulation_peak(monkeypatch, **detectors)
    return peak - grown


# The buffers' slack and the temporaries of the two chunks in flight come
# to about 7 chunk-sizes, with or without dead time; one full-length copy
# of the IdlerA times alone is 80.
SIMULATION_EXCESS_BOUND = 10 * CHUNK_BYTES


def test_simulation_holds_pairs_and_stream_plus_chunk_temporaries(monkeypatch):
    assert simulation_excess(monkeypatch, dead_time_ps=0.0) < SIMULATION_EXCESS_BOUND


def test_dead_time_holds_pairs_and_stream_plus_chunk_temporaries(monkeypatch):
    # ~0.4% of the 80 kHz idlers fall within 50 ns of their predecessor.
    assert simulation_excess(monkeypatch, dead_time_ps=50_000.0) < SIMULATION_EXCESS_BOUND


def test_long_dead_time_cluster_holds_chunk_temporaries(monkeypatch):
    # A 500 us dead time against a 12.5 us idler spacing makes the whole
    # stream one cluster of close records.  The records the dead time drops
    # stay in the buffers until the filter runs, so the peak is measured
    # against the same run's without dead time.
    peak, _ = simulation_peak(monkeypatch, dead_time_ps=5e8)
    baseline, _ = simulation_peak(monkeypatch, dead_time_ps=0.0)
    assert peak - baseline < SIMULATION_EXCESS_BOUND


def test_overlapping_chunks_hold_pairs_and_stream_plus_chunk_temporaries(monkeypatch):
    # A 100 us jitter is ten pair spacings: every chunk comes out of order
    # and overlaps the records before it.  The buffers are sorted in place
    # by a stable sort that merges runs only where they overlap, and its
    # merge buffer is not traced; an argsort of a whole detector (an index
    # and two gathered copies) came to 163.
    assert simulation_excess(monkeypatch, jitter_sigma_ps=1e8) < 12 * CHUNK_BYTES


def test_per_epoch_series_holds_slice_temporaries(monkeypatch):
    monkeypatch.setattr(estimator, "_B_SLICE", CHUNK, raising=False)
    scenario = million_pair_scenario()
    stream = simulation.run_round_trip_sim(scenario)
    # Acquisition reads at most ``acquire_max_events`` idlers however long
    # the run is, so the bound is taken with the centres already known.
    acq = estimator.coarse_acquire(stream, scenario.estimator)
    config = dataclasses.replace(
        scenario.estimator,
        forward_center_ps=acq.forward_center_ps,
        loopback_center_ps=acq.loopback_center_ps,
    )
    series, peak = traced_peak(estimator.per_epoch_series, stream, scenario.run.epoch_s, config)
    assert series.gap_count() == 0
    # ~11 slices here; each full-length temporary of SignalB is 20.
    assert peak < 30 * CHUNK_BYTES


def test_acquisition_holds_histograms_plus_slice_temporaries(monkeypatch):
    monkeypatch.setattr(estimator, "_B_SLICE", CHUNK, raising=False)
    scenario = million_pair_scenario()
    stream = simulation.run_round_trip_sim(scenario)
    acq, peak = traced_peak(estimator.coarse_acquire, stream, scenario.estimator)
    assert acq.forward_center_ps > 0
    # The loopback search spans +-4x the one-way delay at coarse binning:
    # the largest histogram, held twice (the counts and one slice's).  The
    # +-2x nominal forward window pairs each SignalB record with ~16 of the
    # 100 kHz idlers, so the kernel must bound its slices by candidate pairs
    # too: records alone let a slice hold ~16 chunks of pairs.
    nominal = stream.nominal_one_way_delay_ps
    histogram_bytes = 8 * round(8.0 * nominal / scenario.estimator.coarse_bin_ps)
    assert peak < 2 * histogram_bytes + 60 * CHUNK_BYTES
