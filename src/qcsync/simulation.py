"""Monte-Carlo photon-pair timestamps through the attacked round-trip link.

Topology: a pair source at Alice emits time-correlated photon pairs.  The
idler is detected locally (IdlerA).  The signal travels a fiber of one-way
delay L to Bob, picking up the forward attack delay M(t); at Bob's splitter
it is either detected there (SignalB, timestamped in Bob's clock) or looped
back toward Alice, picking up the backward attack delay N(t) on the return
fiber, and detected at Alice (ReturnA).  Detector and TDC jitter, TDC
quantization, channel loss, splitter routing, detection efficiency and
dead-time suppression are applied per photon; losses are silent.

Sampling is thinned: a photon costs work only if it is recorded.  One
uniform per pair decides the idler hit (``efficiency``) and one routes the
signal to SignalB (probability ``s*(1-l)*e``), to ReturnA (``s*l*s*e``) or
to loss, with ``s`` the per-pass survival, ``l`` the loopback fraction and
``e`` the efficiency.  Each recorded photon then draws one Gaussian whose
sigma merges the independent jitter terms in quadrature: detector and TDC,
plus Bob's white phase noise at Bob and the source's correlation jitter on
the idler (a pair is one emission time, see ``SourceConfig``).  Analytic
runs read these sigmas and probabilities from the same ``chain_model``.
The attack trajectories are evaluated only for the photons that reach them,
once per chunk where its photons share a constant piece of every event
(see ``eval_trajectory``).  Each selection in a chunk gathers with
``np.compress`` rather than a boolean index: the same elements, at a third
of the cost or less, through an index array of its own (8 B per element
kept), so the idlers' emission times are gathered before their Gaussians
are drawn and the two never peak together.  The dead-time filter, which
keeps nearly every record, gathers with a boolean index, which is faster
there.

Clock model: Alice's clock is the time reference.  Bob's clock reads
``true + offset + drift * t + white phase noise``.  A chunk's readings are
float64 offsets after its integer origin, within ``MAX_OFFSET_PS`` of it,
which ``_quantize`` adds in int64, so no float holds an absolute time (``t``
is ``offset*1e-12 + origin*1e-12``).

Attack delays vary over seconds while the flight time is ~50 us, so M is
sampled at the emission time and N at the arrival time at Bob; the
mid-flight approximation error is far below a femtosecond at these rates.

Memory: what grows with a block of the run is its records (8 B each);
every other array is bounded by ``_PAIR_CHUNK``.  ``generate_pairs`` plans
the run as blocks of about that many pairs, and propagation chunk i is
block i: its emission times are drawn, propagated and dropped, two chunks
computed while a third is written, each chunk's times straight into one
buffer per detector.  So no emission times are held beyond the chunks, and
a run released as one block holds ~8.8 B per pair of records at the end
(0.8 idlers and 0.3 signal records per pair by default).  A run can be
released in blocks of time instead (``propagate_and_detect``'s
``until_ps``, which the campaign runner uses): each call simulates only the
chunks that can read a record below the block's end, a margin of delays,
offset and jitter above it (``_release_margin``), and hands on the records
below it, so a buffer holds one block's records and the few that follow
it.  Each buffer is sorted in place once per block, with numpy's stable
sort (a timsort), which merges only where chunks overlap in time (a jitter
or delay step wider than the gap across a chunk edge), so its merge buffer
holds only overlapping records.  The dead time is applied in those buffers
in slices of ``_PAIR_CHUNK`` records, each filtered behind the last record
kept before it, in the block or the one before, and the stream check reads
them in windows of the same length.  The three buffers are finished
(sorted and dead-time filtered) on the same threads as the chunks, so up to
``_WORKERS`` of them at once, each with its own merge buffer.

All randomness flows from a single integer seed.  Each block's emission
times and each chunk's propagation draw from their own generators, seeded
by the index through ``numpy.random.SeedSequence`` spawn keys, so identical
configuration and seed reproduce a bit-identical stream however many
chunks run at once.  The chunk length belongs to that contract; the number
of threads (``_WORKERS``) does not.
"""

from __future__ import annotations

import bisect
import collections
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Tuple, TYPE_CHECKING

import numpy as np

from .attacks import eval_trajectory
from .errors import ConfigurationError, ContractViolation, number, store_number

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import AttackScenario

__all__ = [
    "SourceConfig",
    "DetectorConfig",
    "TdcConfig",
    "ChannelConfig",
    "ClockConfig",
    "DetectorId",
    "DETECTOR_NAMES",
    "TimestampStream",
    "EmissionPlan",
    "HeldRecords",
    "chain_model",
    "generate_pairs",
    "propagate_and_detect",
    "run_round_trip_sim",
]

# Jitter specs are conventionally quoted as FWHM; convert to Gaussian sigma.
FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))

# The pair generator plans blocks of this many expected pairs, each one
# propagation chunk (a given array of emission times is propagated in
# slices of exactly this many), and the dead-time pass and the stream's
# order check work on slices of about this many records: one 8-byte array
# of a slice is 512 kB and fits in cache.  The length is part of the
# determinism contract: each block and chunk has its own generator, so
# another length gives another stream from the same seed.
_PAIR_CHUNK = 1 << 16

# How many chunks ``_pipeline`` runs at once, one thread each.  numpy
# releases the interpreter lock in its array loops, so two threads keep
# both cores of a small machine busy.  Not part of the determinism
# contract: a chunk's result depends only on its index.
_WORKERS = 2


def _chunk_rng(seed, index):
    """Generator of block or chunk ``index``: the ``index``-th child that
    ``SeedSequence(seed).spawn`` would make."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _pipeline(produce, count, consume):
    """``consume(produce(i))`` for ``i`` in ``range(count)``, consumed in index
    order on the calling thread while ``produce`` runs on ``_WORKERS``
    threads.

    Chunk ``i + _WORKERS`` is queued before chunk ``i`` is awaited, so the
    workers go on computing while the calling thread consumes, and at most
    ``_WORKERS + 1`` chunks are alive at once: the one being consumed and
    the ``_WORKERS`` after it.  An exception in ``produce`` or ``consume``
    cancels the chunks queued but not started and is raised here, after the
    chunks already started finish.
    """
    if _WORKERS < 2 or count < 2:
        for i in range(count):
            consume(produce(i))
        return
    # Imported here: the module's import stays free of it.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(_WORKERS) as pool:
        pending = collections.deque()
        try:
            for i in range(count):
                pending.append(pool.submit(produce, i))
                if len(pending) > _WORKERS:
                    consume(pending.popleft().result())
            while pending:
                consume(pending.popleft().result())
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


@dataclass(frozen=True)
class SourceConfig:
    """Photon-pair source: homogeneous Poisson emission.

    ``intrinsic_correlation_jitter_ps`` is the sigma of the signal-idler
    emission-time difference (near zero for down-conversion pairs).  A pair
    yields at most one coincidence (its idler with SignalB or with ReturnA),
    so the simulation draws the whole difference on the recorded idler: the
    same coincidence statistics as splitting it between the two photons.
    """

    pair_rate_hz: float = 1.0e4
    intrinsic_correlation_jitter_ps: float = 1.0

    def __post_init__(self):
        store_number(self, "pair_rate_hz", low=0, above=True)
        store_number(self, "intrinsic_correlation_jitter_ps", low=0)


@dataclass(frozen=True)
class DetectorConfig:
    """Single-photon detector model, shared by all detectors in the setup."""

    efficiency: float = 0.8
    jitter_sigma_ps: float = 110.0 * FWHM_TO_SIGMA
    dead_time_ps: float = 0.0

    def __post_init__(self):
        store_number(self, "efficiency", low=0, high=1)
        store_number(self, "jitter_sigma_ps", low=0)
        store_number(self, "dead_time_ps", low=0)


@dataclass(frozen=True)
class TdcConfig:
    """Time-to-digital converter: quantization grid plus Gaussian jitter."""

    resolution_ps: float = 1.0
    jitter_sigma_ps: float = 8.0 * FWHM_TO_SIGMA

    def __post_init__(self):
        store_number(self, "resolution_ps", low=0, above=True)
        store_number(self, "jitter_sigma_ps", low=0)


@dataclass(frozen=True)
class ChannelConfig:
    """Fiber link between Alice and Bob.

    ``loss_survival_prob`` applies once per fiber pass (forward and return
    legs draw independently).  ``splitter_loopback_prob`` is the fraction of
    photons at Bob's splitter routed back toward Alice.
    """

    one_way_delay_ps: float = 49.0e6
    loss_survival_prob: float = 0.5
    splitter_loopback_prob: float = 0.5

    def __post_init__(self):
        store_number(self, "one_way_delay_ps", low=0, above=True)
        store_number(self, "loss_survival_prob", low=0, high=1)
        store_number(self, "splitter_loopback_prob", low=0, high=1)


@dataclass(frozen=True)
class ClockConfig:
    """Bob's clock relative to Alice's: offset, linear drift, white noise."""

    offset_ps: float = -9900.0
    drift_ps_per_s: float = 0.0
    white_phase_noise_sigma_ps: float = 0.0

    def __post_init__(self):
        store_number(self, "offset_ps")
        store_number(self, "drift_ps_per_s")
        store_number(self, "white_phase_noise_sigma_ps", low=0)


class DetectorId(IntEnum):
    IDLER_A = 0
    SIGNAL_B = 1
    RETURN_A = 2


DETECTOR_NAMES = {
    DetectorId.IDLER_A: "IdlerA",
    DetectorId.SIGNAL_B: "SignalB",
    DetectorId.RETURN_A: "ReturnA",
}


@dataclass
class TimestampStream:
    """Detection records stored per detector, indexed by ``DetectorId``.

    ``times[det]`` holds detector ``det``'s local-clock timestamps (integer
    ps) in ascending order within [0, 2**62): all a time tagger would
    record in about 53 days.  Each array passes ``timestamp_array``.
    ``duration_s`` is finite and >= 0; ``nominal_one_way_delay_ps`` is None
    or finite and > 0.
    """

    times: Tuple[np.ndarray, ...]
    duration_s: float
    nominal_one_way_delay_ps: Optional[float] = None

    def __post_init__(self):
        store_number(self, "duration_s", low=0)
        store_number(self, "nominal_one_way_delay_ps", low=0, above=True, optional=True)
        if len(self.times) != len(DetectorId):
            raise ConfigurationError(f"stream needs one array per detector ({len(DetectorId)})")
        names = DETECTOR_NAMES.values()
        self.times = tuple(timestamp_array(t, name) for name, t in zip(names, self.times))
        for name, t in zip(names, self.times):
            if t.size and t[0] < 0:
                raise ConfigurationError(f"{name} timestamps must not be negative")

    def __len__(self):
        return sum(t.size for t in self.times)

    def counts(self):
        return {det: int(self.times[det].size) for det in DetectorId}


# Times, and histogram window ends, lie within this many ps of zero (about
# 53 days), so a difference of two, or a time plus a window end, fits int64.
MAX_TIME_PS = 2**62

# A chunk's readings are float64 offsets after its integer origin, refused
# this far from it or farther, where a float64 steps 1/4 ps.  Emission
# blocks last at most half of it, leaving the rest for the delays, offset,
# drift and jitter.  Every origin lies below the end of the run, so a run
# that ends this short of ``MAX_TIME_PS`` reads every time within it.
MAX_OFFSET_PS = 2**50
MAX_RUN_PS = MAX_TIME_PS - MAX_OFFSET_PS


def timestamp_array(values, name):
    """``values`` as a 1-D int64 array of times, ps: the one rule for a
    timestamp array.  An int64 array passes uncopied, other integers and
    whole floats are converted; anything else, or a time not strictly
    within ``MAX_TIME_PS`` of zero, raises a ConfigurationError naming
    ``name``, and unsorted times raise ContractViolation."""
    t = np.asarray(values)
    kind = t.dtype.kind if t.ndim == 1 else "not 1-D"
    if kind == "f":
        # A NaN fails both comparisons.
        exact = np.all((np.abs(t) < MAX_TIME_PS) & (np.floor(t) == t))
    elif kind in "iu":
        # Only uint64 holds values beyond int64; compared as uint64, exactly.
        exact = np.can_cast(t.dtype, np.int64) or not t.size or t.max() < np.uint64(MAX_TIME_PS)
    else:
        exact = False
    if exact:
        t = t.astype(np.int64, copy=False)
        if not is_sorted(t):
            raise ContractViolation(f"{name} timestamps must be sorted ascending")
        exact = not t.size or (-MAX_TIME_PS < t[0] and t[-1] < MAX_TIME_PS)
    if not exact:
        raise ConfigurationError(
            f"{name} timestamps must be exact integers strictly within +-2**62 ps in a 1-D "
            f"array, not these {t.ndim}-D {t.dtype} values"
        )
    return t


def is_sorted(values):
    """Whether the 1-D ``values`` ascend, compared in ``_PAIR_CHUNK`` windows
    that overlap by one element, so no full-length mask is made."""
    for lo in range(0, values.size - 1, _PAIR_CHUNK):
        window = values[lo : lo + _PAIR_CHUNK + 1]
        if np.any(window[1:] < window[:-1]):
            return False
    return True


@dataclass(frozen=True, eq=False)
class EmissionPlan:
    """The blocks of a Poisson pair source's emission times, each drawn when
    it is needed.

    Block ``i`` spans ``[edges[i], edges[i + 1])`` int64 ps of Alice's
    timebase and holds ``counts[i]`` pairs, whose offsets after ``edges[i]``
    ``times(i)`` draws from ``_chunk_rng(seed, i)``.  ``len()`` is the
    number of pairs in the run.
    """

    edges: np.ndarray
    counts: np.ndarray
    seed: int

    def __len__(self):
        return int(self.counts.sum())

    def times(self, i):
        """Block ``i``'s sorted offsets after ``edges[i]``, ps, a fresh float64 array."""
        block = _chunk_rng(self.seed, i).random(self.counts[i])
        block *= float(self.edges[i + 1] - self.edges[i])
        block.sort()
        return block


def run_end_ps(duration_s):
    """The end of a run of ``duration_s`` seconds, whole ps: the one rule
    for a run's length.  A run ends at most ``MAX_RUN_PS`` after it starts,
    so all its readings lie within ``MAX_TIME_PS``."""
    end_ps = round(number("duration_s", duration_s, low=0, above=True) * 1e12)
    if end_ps > MAX_RUN_PS:
        raise ConfigurationError(
            "duration_s must end the run at most 2**62 - 2**50 ps after it starts"
        )
    return end_ps


def generate_pairs(source, duration_s, seed):
    """The emission plan of a Poisson pair source over ``[0, duration_s)``.

    Returns an ``EmissionPlan``; no emission time is drawn here.  Both
    photons of a pair leave at its emission time, ps, in Alice's timebase
    (the correlation jitter is drawn by ``propagate_and_detect``, which
    draws each block's times as it propagates them).  Deterministic for a
    fixed integer seed.

    The run is cut into blocks of ``_PAIR_CHUNK / pair_rate_hz`` seconds,
    or of ``MAX_OFFSET_PS / 2`` where that is shorter (the last one
    shorter still), and the generator of ``seed`` draws every block's
    Poisson count.  Block ``i``'s times are uniform within it, drawn from
    its own generator, and sorted, so the blocks' times, taken in order,
    ascend.  The edges are whole picoseconds, and the run's end passes
    ``run_end_ps``.
    """
    end_ps = run_end_ps(duration_s)
    rate = source.pair_rate_hz
    longest = MAX_OFFSET_PS // 2
    n_blocks = max(1, math.ceil(duration_s * rate / _PAIR_CHUNK), -(-end_ps // longest))
    # The last block ends at the end of the run, whichever side of it the
    # rounded multiple of the block length falls.
    span = min(_PAIR_CHUNK / rate * 1e12, longest)
    edges = np.minimum(np.rint(np.arange(n_blocks + 1) * span).astype(np.int64), end_ps)
    edges[-1] = end_ps
    counts = np.random.default_rng(seed).poisson(np.diff(edges) * (rate * 1e-12))
    return EmissionPlan(edges, counts, seed)


def _quantize(times, resolution_ps, origin):
    """The readings ``origin + times`` (float64 offsets after the integer
    ``origin``, ps) snapped to the TDC's absolute grid, then to whole ps,
    each rounding half up, which commutes with adding the origin: an int64
    view of ``times``'s own buffer, written in place.  Offsets
    ``MAX_OFFSET_PS`` or more from the origin, or NaN, are refused before
    the cast, which would wrap them to arbitrary integers."""
    q = times
    if resolution_ps != 1.0:
        # Onto the grid, in steps from its point ``phase`` ps below the
        # origin, and back; at 1 ps this changes nothing that the rounding
        # below does not.  The phase is exact: resolution_ps is num / den.
        num, den = resolution_ps.as_integer_ratio()
        phase = int(origin) * den % num / den
        q += phase
        q /= resolution_ps
        q += 0.5
        np.floor(q, out=q)
        q *= resolution_ps
        q -= phase
    # To whole picoseconds, which a step of a fractional picosecond leaves.
    q += 0.5
    np.floor(q, out=q)
    if q.size and not (q.max() < MAX_OFFSET_PS and q.min() > -MAX_OFFSET_PS):
        raise ConfigurationError("detector readings lie 2**50 ps or more from their chunk's origin")
    # Element k is read before it is written, so the cast needs no copy.
    ints = q.view(np.int64)
    np.copyto(ints, q, casting="unsafe")
    ints += origin
    return ints


def _apply_dead_time(times, dead_time_ps):
    """Dead-time filter on a time-sorted detector stream: exact greedy rule,
    loop only over clusters.

    The greedy rule drops a record closer than the dead time to the last
    kept record.  A record at least one dead time after its predecessor is
    always kept, so the stream splits into independent clusters: a kept
    anchor followed by a maximal run of close records.  Only those runs go
    through the rule, jumping from each kept record to the first one a dead
    time later, so the loop runs once per kept record inside a cluster.
    """
    if times.size < 2 or dead_time_ps <= 0:
        return times
    # For an integer gap d, d < dead_time_ps exactly when d < ceil(dead_time_ps);
    # integer bounds also stay exact where float addition would round.
    dead = math.ceil(dead_time_ps)
    keep = np.ones(times.size, dtype=bool)
    np.greater_equal(np.diff(times), dead, out=keep[1:])
    if keep.all():
        return times
    # Runs of close records (keep[1:] False) start after their anchor.
    edges = np.flatnonzero(np.diff(keep[1:], prepend=True, append=True))
    anchors, ends = edges[::2], edges[1::2]
    # A lone close record lies within one dead time of its kept anchor and
    # stays dropped; only longer runs can keep a record.
    runs = ends - anchors > 1
    for anchor, end in zip(anchors[runs].tolist(), ends[runs].tolist()):
        cluster = times[anchor : end + 1].tolist()
        k = 0
        while True:
            k = bisect.bisect_left(cluster, cluster[k] + dead, k + 1)
            if k == len(cluster):
                break
            keep[anchor + k] = True
    return times[keep]


def _expected_capacity(n_pairs, prob):
    """Initial buffer length of a detector that records each of ``n_pairs``
    with probability ``prob``: the mean count plus six standard deviations,
    so a buffer grows only in rare runs."""
    mean = n_pairs * prob
    return int(mean + 6.0 * math.sqrt(mean)) + 1


class _DetectorRecords:
    """One detector's timestamps, assembled in place chunk by chunk and
    released a block of time at a time.

    Each chunk's times, negative ones dropped, are copied as they come into
    the int64 ``buffer``, which owns its memory.  ``reserve`` gives it room
    for a block's chunks, and it is resized in place when it fills up
    anyway, which lets the allocator remap a large block rather than copy
    it (glibc does).  ``finish`` sorts the records once, releases those
    below the block's end with the dead time applied in place, in the
    buffer trimmed once, and holds the rest in a buffer of their own.  The
    sort is stable, a timsort for int64: in-order chunks with jitter below
    the record spacing leave long ascending runs, which it finds and merges
    only where they overlap.

    The dead time goes on across blocks from the last record released (the
    ``anchor``).  A record that arrives below the end of a block already
    released would belong to that block, so it raises ContractViolation.
    """

    def __init__(self, buffer):
        self.times = buffer
        self.size = 0
        # Every record below this time has been released; 0 before the
        # first release, so that only negative times are dropped.
        self.released = 0
        self.anchor = None

    def reserve(self, n):
        """Room for ``n`` more records: a fresh buffer holding those held."""
        buffer = np.empty(self.size + n, np.int64)
        buffer[: self.size] = self.times[: self.size]
        self.times = buffer

    def append(self, times):
        """Add one chunk's times after those already held."""
        # Most chunks hold no time below the released edge and are copied
        # without a mask.
        if times.min(initial=self.released) < self.released:
            times = np.compress(times >= 0, times)
            if times.min(initial=self.released) < self.released:
                raise ContractViolation(
                    f"a record at {times.min()} ps arrived after the records below "
                    f"{self.released} ps were released: the release margin is too small"
                )
        held = self.size
        end = held + times.size
        if end > self.times.size:
            self.times.resize(end, refcheck=False)
        self.times[held:end] = times
        self.size = end

    def finish(self, dead_time_ps, until_ps=None):
        """The times below the integer ``until_ps`` (every one when None),
        sorted, with the dead time applied in place, in the buffer trimmed
        once; the rest stay held."""
        n = self.size
        times = self.times
        times[:n].sort(kind="stable")
        cut = n
        if until_ps is not None:
            cut = int(np.searchsorted(times[:n], until_ps))
            self.released = until_ps
        self.times = times[cut:n].copy()
        self.size = n - cut
        if dead_time_ps > 0:
            cut = self._filter_dead_time(times, cut, math.ceil(dead_time_ps))
        times.resize(cut, refcheck=False)
        return times

    def _filter_dead_time(self, times, n, dead):
        """Filter the first ``n`` of ``times`` through ``_apply_dead_time`` in
        slices of ``_PAIR_CHUNK`` records, moving the kept ones to the front;
        returns how many are kept.

        Each slice is filtered behind the ``anchor``, the last record kept
        before it: copied into the already consumed slot before the slice,
        or prepended to a block's first slice, and dropped from the result.
        Greedy keeps that anchor, so the slices, and the blocks, continue
        one greedy pass.
        """
        kept = 0
        for lo in range(0, n, _PAIR_CHUNK):
            hi = min(lo + _PAIR_CHUNK, n)
            if self.anchor is None:
                t = _apply_dead_time(times[lo:hi], dead)
            elif lo:
                times[lo - 1] = self.anchor
                t = _apply_dead_time(times[lo - 1 : hi], dead)[1:]
            else:
                t = _apply_dead_time(np.concatenate(([self.anchor], times[:hi])), dead)[1:]
            times[kept : kept + t.size] = t
            kept += t.size
            if kept:
                self.anchor = times[kept - 1]
        return kept


class HeldRecords:
    """What a run released in blocks carries from one ``propagate_and_detect``
    call to the next: how many of its chunks are simulated, and each
    detector's records not yet released."""

    def __init__(self):
        self.chunks = 0
        self.records = tuple(_DetectorRecords(np.empty(0, np.int64)) for _ in DetectorId)


def chain_model(source, channel, detectors, tdc, clocks):
    """``(sigma_idler, sigma_bob, sigma_return, eff, p_bob, p_signal)``: the
    merged Gaussian sigma of each detector's records, and the chance that a
    pair is recorded as an idler, at Bob or at either signal detector, as
    ``propagate_and_detect`` draws them (see the module docstring)."""
    eff = detectors.efficiency
    det_sigma, tdc_sigma = detectors.jitter_sigma_ps, tdc.jitter_sigma_ps
    s, loop = channel.loss_survival_prob, channel.splitter_loopback_prob
    p_bob = s * (1.0 - loop) * eff
    return (
        math.hypot(det_sigma, tdc_sigma, source.intrinsic_correlation_jitter_ps),
        math.hypot(det_sigma, tdc_sigma, clocks.white_phase_noise_sigma_ps),
        math.hypot(det_sigma, tdc_sigma),
        eff,
        p_bob,
        p_bob + s * loop * s * eff,
    )


def _largest_delay(traj, duration_s):
    """The largest size of ``traj``'s delay within a run of ``duration_s``,
    ps, taken at every event's onset and hold point inside the run and on a
    grid of 4096 steps.  It sizes the release margin, which fails closed
    where it falls short."""
    if not traj.events:
        return 0.0
    knots = [k for e in traj.events for k in (e.start_s, e.end_s) if k is not None]
    grid = np.linspace(0.0, duration_s, 4096, endpoint=False)
    t = np.concatenate((grid, [k for k in knots if k < duration_s]))
    return float(np.abs(eval_trajectory(traj, t)).max())


def _release_margin(channel, m, n, clocks, sigmas, duration_s):
    """How far below its chunk's first emission time a record can be read,
    ps: both one-way delays, Bob's clock offset and drift over the run, the
    largest delay of either trajectory and ten times the widest merged
    jitter ``sigmas``."""
    return (
        2.0 * channel.one_way_delay_ps
        + abs(clocks.offset_ps)
        + abs(clocks.drift_ps_per_s) * duration_s
        + _largest_delay(m, duration_s)
        + _largest_delay(n, duration_s)
        + 10.0 * max(sigmas)
    )


def propagate_and_detect(
    pairs, source, channel, m, n, detectors, tdc, clocks, seed, duration_s, until_ps=None, held=None
):
    """Propagate pair emissions through the attacked link and detect.

    ``pairs`` is the ``EmissionPlan`` that ``generate_pairs`` returns, whose
    block ``i`` is drawn, propagated as chunk ``i`` and dropped, so no
    whole-run array of emission times exists; or a 1-D array of given
    emission times, propagated in chunks of ``_PAIR_CHUNK``.  An array passes
    ``timestamp_array``, lies below ``MAX_RUN_PS``, and is only read,
    through a copy if it is not int64; a chunk of it that spans
    ``MAX_OFFSET_PS`` or more fails in ``_quantize``.
    Every detector's records go into a buffer of their own.

    A run can be released in blocks of time.  Each call then gets the same
    ``held`` (a ``HeldRecords``) and the next block's end ``until_ps``, an
    integer, ascending from call to call, and the last call gets None.  A
    call simulates the chunks not yet simulated that can read a record
    below ``until_ps``: those that start less than ``_release_margin``
    above it.  It returns the records below ``until_ps`` and holds the rest
    back.  Without ``held`` and ``until_ps`` the whole run is one block.

    Parameters
    ----------
    pairs : EmissionPlan, or sorted 1-D array of integer pair emission times, ps, Alice timebase
    source : SourceConfig whose correlation jitter is drawn on the idler
    channel : ChannelConfig
    m, n : DelayTrajectory for the forward (Alice->Bob) and backward legs
    detectors : DetectorConfig applied to every detector
    tdc : TdcConfig applied to every timestamp
    clocks : ClockConfig for Bob's clock (Alice is the reference)
    seed : RNG seed; fixed seed reproduces the stream exactly
    duration_s : stream duration metadata
    until_ps : None, or the end of the block to release, ps, local time
    held : None, or the HeldRecords of a run released in blocks

    Returns a TimestampStream of the block.  Records with negative local
    timestamps (possible for detections jittered before the clock origin)
    are dropped.
    """
    if isinstance(pairs, EmissionPlan):
        sizes, emitted_in, starts = pairs.counts, pairs.times, pairs.edges[:-1]
    else:
        pairs = timestamp_array(pairs, "pairs")
        if pairs.size and pairs[-1] >= MAX_RUN_PS:
            raise ConfigurationError("pairs timestamps must lie below 2**62 - 2**50 ps")
        starts = pairs[::_PAIR_CHUNK]
        sizes = np.diff(np.minimum(np.arange(starts.size + 1) * _PAIR_CHUNK, pairs.size))

        def emitted_in(chunk):
            emitted = pairs[chunk * _PAIR_CHUNK : (chunk + 1) * _PAIR_CHUNK]
            return (emitted - starts[chunk]).astype(np.float64)

    L = channel.one_way_delay_ps
    sigma_idler, sigma_bob, sigma_return, eff, p_bob, p_signal = chain_model(
        source, channel, detectors, tdc, clocks
    )
    held = HeldRecords() if held is None else held
    first, stop = held.chunks, sizes.size
    if until_ps is not None:
        sigmas = (sigma_idler, sigma_bob, sigma_return)
        margin = _release_margin(channel, m, n, clocks, sigmas, duration_s)
        stop = max(first, int(np.searchsorted(starts, until_ps + math.ceil(margin))))
    count = int(sizes[first:stop].sum())
    for records, prob in zip(held.records, (eff, p_bob, p_signal - p_bob)):
        records.reserve(_expected_capacity(count, prob))

    def detect(chunk):
        """Chunk ``chunk``'s int64 times per detector, from its own generator
        alone."""
        rng = _chunk_rng(seed, chunk)
        origin, emitted = starts[chunk], emitted_in(chunk)
        k = emitted.size

        # Draw order is fixed so results depend only on (config, seed): two
        # uniforms per pair, then one Gaussian per detected photon, IdlerA's
        # first, then SignalB's, then ReturnA's.
        idler_hit = rng.random(k) < eff
        u_signal = rng.random(k)
        signal_hit = u_signal < p_signal
        # A recorded signal photon reaches SignalB when u < p_bob, else ReturnA.
        at_bob = np.compress(signal_hit, u_signal) < p_bob
        del u_signal

        # Each reading is built in its Gaussian's array, in place, one step
        # at a time in the order of the formula above it: bit-identical to
        # evaluating the formula, without a fresh array per step.  It is
        # quantized before the next Gaussians are drawn, so the chunk holds
        # one reading's temporaries at a time, besides the signal photons'
        # shared forward leg.  Selections gather with ``np.compress`` (see
        # the module docstring); the idlers' emission times are gathered
        # before their Gaussians are drawn, so the gather's index array
        # never lives beside the Gaussians.  The draws keep their order.
        # idler = emitted + sigma_idler * z
        t = np.compress(idler_hit, emitted)
        del idler_hit
        idler = rng.standard_normal(t.size)
        idler *= sigma_idler
        idler += t
        del t
        idler = _quantize(idler, tdc.resolution_ps, origin)
        # arrive = emitted + L + M(emitted), once for every signal photon
        arrive = np.compress(signal_hit, emitted)
        del emitted, signal_hit
        delay = arrive * 1e-12  # the emission times, s
        delay += origin * 1e-12
        delay = eval_trajectory(m, delay)
        arrive += L
        arrive += delay
        # bob = arrive + offset + drift * (arrive * 1e-12) + sigma_bob * z
        t = np.compress(at_bob, arrive)
        bob = rng.standard_normal(t.size)
        drift = t * 1e-12
        drift += origin * 1e-12
        drift *= clocks.drift_ps_per_s
        t += clocks.offset_ps
        t += drift
        bob *= sigma_bob
        bob += t
        del t, drift
        bob = _quantize(bob, tdc.resolution_ps, origin)
        # ret = arrive + L + N(arrive) + sigma_return * z
        t = np.compress(~at_bob, arrive)
        del arrive
        ret = rng.standard_normal(t.size)
        delay = t * 1e-12  # the arrival times at Bob, s
        delay += origin * 1e-12
        delay = eval_trajectory(n, delay)
        t += L
        t += delay
        ret *= sigma_return
        ret += t
        del t, delay
        return idler, bob, _quantize(ret, tdc.resolution_ps, origin)

    def assemble(readings):
        for records, t in zip(held.records, readings):
            records.append(t)

    _pipeline(lambda i: detect(first + i), stop - first, assemble)
    held.chunks = stop

    def finish(det):
        return held.records[det].finish(detectors.dead_time_ps, until_ps)

    # The buffers share no state, so finishing them at once changes no record.
    times = []
    _pipeline(finish, len(held.records), times.append)

    return TimestampStream(
        times=times,
        duration_s=float(duration_s),
        nominal_one_way_delay_ps=L,
    )


def plan_run(scenario: "AttackScenario"):
    """``(pairs, link)``: the emission plan of ``scenario``'s run, from
    ``generate_pairs``, and the arguments that follow it in the run's
    ``propagate_and_detect`` calls."""
    run = scenario.run
    gen_seed, prop_seed = (
        int(s) for s in np.random.SeedSequence(run.seed).generate_state(2, dtype=np.uint64)
    )
    pairs = generate_pairs(scenario.source, run.duration_s, gen_seed)
    link = (
        scenario.source,
        scenario.channel,
        scenario.m_trajectory(),
        scenario.n_trajectory(),
        scenario.detectors,
        scenario.tdc,
        scenario.clock,
        prop_seed,
        run.duration_s,
    )
    return pairs, link


def run_round_trip_sim(scenario: "AttackScenario"):
    """End-to-end simulation of one scenario: pairs, attack, detection.

    Composes generate_pairs, the coordination rule and propagate_and_detect,
    which draws each block of emission times as it propagates it, with the
    whole run as one block; the returned stream carries the run duration
    and the nominal fiber delay.
    """
    pairs, link = plan_run(scenario)
    return propagate_and_detect(pairs, *link)
