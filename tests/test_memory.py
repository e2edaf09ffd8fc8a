"""Memory bounds of the campaign path that do not depend on the machine.

numpy reports its array allocations to ``tracemalloc``, so a traced peak
counts the bytes the program asked for, not what the allocator or the
kernel made of them.  Every byte the simulation holds is such an array:
each chunk draws its own emission times and drops them, so no whole-run
array of them exists.  The detectors' records are held one released
block at a time: the whole run in ``run_round_trip_sim``, one block of
epochs in a campaign, which ``run_scenario`` simulates and estimates a
block at a time, so only the campaign's series grows with the run.
Everything else must stay within a multiple of the simulation's chunk or
the histogram kernel's slice, which the tests shrink so that a single
full-length temporary of a 1 M-pair run would exceed the bound many
times, and the campaign's block budget with them.  The estimator's count
matrices never outgrow one block of epochs.
"""

import dataclasses
import tracemalloc

import pytest

from qcsync import estimator, runner, simulation
from qcsync.runner import load_scenario, run_scenario
from qcsync.scenario import builtin_scenario

from conftest import traced_peak

CHUNK = 10_000
CHUNK_BYTES = 8 * CHUNK


def million_pair_scenario(duration_s=10.0):
    doc = builtin_scenario("baseline")
    doc["source"] = {"pair_rate_hz": 1.0e5}
    doc["run"]["duration_s"] = duration_s
    # Ten epochs leave the threshold monitor's 60-epoch window nothing to judge.
    del doc["detection"]
    return load_scenario(doc)


def simulation_peak(monkeypatch, **detectors):
    """A million-pair simulation's traced peak, and the bytes of the three
    detectors' records it returns, with the ``detectors`` fields changed."""
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
    stream, peak = traced_peak(simulation.run_round_trip_sim, scenario)
    return peak, sum(t.nbytes for t in stream.times)


def simulation_excess(monkeypatch, **detectors):
    """How far a million-pair simulation's traced peak exceeds the records
    it returns, in bytes, with the ``detectors`` fields changed."""
    peak, grown = simulation_peak(monkeypatch, **detectors)
    return peak - grown


# The buffers' slack and the chunks alive at once (two computed while a
# third is assembled), each with its own emission times, come to 7.5-8.7
# chunk-sizes, with or without dead time (whose filter runs on two
# buffers at once); one full-length copy of the IdlerA times is 80, and a
# whole-run array of emission times is 100.
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
    # against the same run's without dead time.  Two buffers are filtered
    # at once, each a slice of records at a time: ~3.8 chunk-sizes.
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


def acquired_series_inputs(monkeypatch):
    """A million-pair stream, its scenario and an estimator config with the
    window centres already acquired, ``_B_SLICE`` shrunk to ``CHUNK``.

    Acquisition reads at most ``acquire_max_events`` idlers however long the
    run is, so per-epoch bounds are taken with the centres already known.
    """
    monkeypatch.setattr(estimator, "_B_SLICE", CHUNK, raising=False)
    scenario = million_pair_scenario()
    stream = simulation.run_round_trip_sim(scenario)
    acq = estimator.coarse_acquire(stream, scenario.estimator)
    config = dataclasses.replace(
        scenario.estimator,
        forward_center_ps=acq.forward_center_ps,
        loopback_center_ps=acq.loopback_center_ps,
    )
    return stream, scenario, config


def test_per_epoch_series_holds_slice_temporaries(monkeypatch):
    stream, scenario, config = acquired_series_inputs(monkeypatch)
    series, peak = traced_peak(estimator.per_epoch_series, stream, scenario.run.epoch_s, config)
    assert series.gap_count() == 0
    # ~11 slices here; each full-length temporary of SignalB is 20.
    assert peak < 30 * CHUNK_BYTES


def test_many_epochs_hold_two_count_matrices_plus_slice_temporaries(monkeypatch):
    # 2000 epochs of 5 ms: the forward and loopback counts, built at once,
    # are held one block of rows at a time, and each piece of pairs is
    # counted straight into them.  This bound still allows two whole int32
    # matrices; int64 ones alone would be four.
    stream, scenario, config = acquired_series_inputs(monkeypatch)
    epochs = 2000
    epoch_s = scenario.run.duration_s / epochs
    series, peak = traced_peak(estimator.per_epoch_series, stream, epoch_s, config)
    assert len(series) == epochs
    nbins = round(2.0 * config.window_halfwidth_ps / config.bin_width_ps)
    assert peak < 2 * 4 * epochs * nbins + 30 * CHUNK_BYTES


def traced_excess(func, *args):
    """``(value, bytes)``: what ``func(*args)`` returns, and how far the traced
    memory peaked above where it started plus what the call left held."""
    held = []

    def call():
        start = tracemalloc.get_traced_memory()[0]
        value = func(*args)
        held.append(tracemalloc.get_traced_memory()[0] - start)
        return value

    value, peak = traced_peak(call)
    return value, peak - held[0]


def test_series_excess_does_not_grow_with_epochs(monkeypatch):
    # The counts are made and dropped one block of 8 * CHUNK // 1000 = 80
    # epochs at a time, so only the returned series grows with the epochs.
    # Whole count matrices of both paths would add 2 * 4 * 4500 * 1000
    # bytes, 450 chunk-sizes, from 500 to 5000 epochs.  The excess may
    # shrink instead: 80 epochs of 2 ms hold fewer far-end records than a
    # slice, so the kernel's slices there are short (~30 against ~17
    # chunk-sizes of excess).
    stream, scenario, config = acquired_series_inputs(monkeypatch)
    excess = {}
    for epochs in (500, 5000):
        epoch_s = scenario.run.duration_s / epochs
        series, excess[epochs] = traced_excess(
            estimator.per_epoch_series, stream, epoch_s, config
        )
        assert len(series) == epochs
    assert excess[5000] - excess[500] < 4 * CHUNK_BYTES


def test_acquisition_holds_histograms_plus_slice_temporaries(monkeypatch):
    monkeypatch.setattr(estimator, "_B_SLICE", CHUNK, raising=False)
    scenario = million_pair_scenario()
    stream = simulation.run_round_trip_sim(scenario)
    acq, peak = traced_peak(estimator.coarse_acquire, stream, scenario.estimator)
    assert acq.forward_center_ps > 0
    # The loopback search spans +-4x the one-way delay at coarse binning:
    # the largest histogram, held as its int32 counts, while the forward
    # search, half its size, runs beside it.  Each piece of pairs is counted
    # straight into them, so ``histogram_bytes``, one int64 count per
    # loopback bin, covers both; a bin-length int64 count per piece on top
    # would peak at ~108 chunk-sizes here.  The +-2x nominal forward window
    # pairs each SignalB record with ~16 of the 100 kHz idlers, so the
    # kernel must bound its slices by candidate pairs too: records alone
    # let a slice hold ~16 chunks of pairs.
    nominal = stream.nominal_one_way_delay_ps
    histogram_bytes = 8 * round(8.0 * nominal / scenario.estimator.coarse_bin_ps)
    assert peak < histogram_bytes + 60 * CHUNK_BYTES


def test_campaign_peak_does_not_grow_with_the_run(monkeypatch):
    # A full simulation runs in blocks of about ``_BLOCK_RECORDS`` records,
    # here 20 chunk-sizes' worth, two 1 s epochs of the 100 kHz run, so a
    # campaign holds one block's records at a time: ten times the run adds
    # the 90 epochs' series and curve, well under one chunk-size.  One
    # block for the whole run would add the 9.9 M records of the other
    # 90 s, 990 chunk-sizes.  Acquisition's 200 000 idlers span 2.5 s, so
    # both runs' first block takes in the blocks up to 3 s.
    monkeypatch.setattr(simulation, "_PAIR_CHUNK", CHUNK)
    monkeypatch.setattr(estimator, "_B_SLICE", CHUNK, raising=False)
    monkeypatch.setattr(runner, "_BLOCK_RECORDS", 20 * CHUNK)
    run_scenario(million_pair_scenario(duration_s=1.0))
    peak = {}
    for duration_s in (10.0, 100.0):
        result, peak[duration_s] = traced_peak(run_scenario, million_pair_scenario(duration_s))
        assert len(result.series) == duration_s and result.series.gap_count() == 0
    assert peak[100.0] - peak[10.0] < 4 * CHUNK_BYTES
