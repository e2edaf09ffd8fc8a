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
the idler (a pair is one emission time, see ``SourceConfig``).  The attack
trajectories are evaluated only for the photons that reach them.

Clock model: Alice's clock is the time reference.  Bob's clock reads
``true + offset + drift * t + white phase noise``.

Attack delays vary over seconds while the flight time is ~50 us, so M is
sampled at the emission time and N at the arrival time at Bob; the
mid-flight approximation error is far below a femtosecond at these rates.

Memory: what grows with the run is the emission times (8 B per pair) and
the stream itself (16 B per record), about 26 B per pair at the default
1.1 records per pair; every other array is bounded by ``_PAIR_CHUNK``.
Pairs are generated in blocks and propagated in chunks of about that many,
two chunks in flight at once, and each chunk's records are written
straight into one time buffer and one pair-id buffer per detector.  When
chunks overlap in time (a jitter or delay step wider than the gap across a
chunk edge), only the overlapping tail of a buffer is merged with the new
chunk.  The dead time is applied in those buffers, slice by slice, and the
stream check reads them in windows of the same length.  One case exceeds
the bound: a slice never splits a run of records closer than the dead
time, so such a run longer than a chunk makes a slice of its own length.

All randomness flows from a single integer seed.  Each block of the pair
generator and each propagation chunk draws from its own generator, seeded
by its index through ``numpy.random.SeedSequence`` spawn keys, so
identical configuration and seed reproduce a bit-identical stream however
many chunks run at once.  The chunk length belongs to that contract; the
number of threads (``_WORKERS``) does not.
"""

from __future__ import annotations

import bisect
import collections
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Tuple, TYPE_CHECKING

import numpy as np

from .attacks import MAX_EXACT_PS, eval_trajectory
from .errors import ConfigurationError

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
    "generate_pairs",
    "propagate_and_detect",
    "run_round_trip_sim",
]

# Jitter specs are conventionally quoted as FWHM; convert to Gaussian sigma.
FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))

# Vectorized propagation works on slices of this many emission times, the
# pair generator on blocks of this many expected pairs, and the dead-time
# pass and the stream's order check on slices of about this many records:
# one 8-byte array of a slice is 512 kB and fits in cache.  The length is
# part of the determinism contract: each block and chunk has its own
# generator, so another length gives another stream from the same seed.
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

    Chunk ``i + _WORKERS`` is started only once chunk ``i`` is consumed, so
    at most ``_WORKERS`` chunks are alive at once.  An exception in
    ``produce`` is raised here, after the chunks already started finish.
    """
    if _WORKERS < 2 or count < 2:
        for i in range(count):
            consume(produce(i))
        return
    # Imported here: the module's import stays free of it.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(_WORKERS) as pool:
        pending = collections.deque()
        for i in range(count):
            if len(pending) == _WORKERS:
                consume(pending.popleft().result())
            pending.append(pool.submit(produce, i))
        while pending:
            consume(pending.popleft().result())


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
        if not (self.pair_rate_hz > 0 and math.isfinite(self.pair_rate_hz)):
            raise ConfigurationError("pair_rate_hz must be > 0")
        jitter = self.intrinsic_correlation_jitter_ps
        if not (jitter >= 0 and math.isfinite(jitter)):
            raise ConfigurationError("intrinsic_correlation_jitter_ps must be finite and >= 0")


@dataclass(frozen=True)
class DetectorConfig:
    """Single-photon detector model, shared by all detectors in the setup."""

    efficiency: float = 0.8
    jitter_sigma_ps: float = 110.0 * FWHM_TO_SIGMA
    dead_time_ps: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.efficiency <= 1.0):
            raise ConfigurationError("efficiency must be in [0, 1]")
        if not (self.jitter_sigma_ps >= 0 and math.isfinite(self.jitter_sigma_ps)):
            raise ConfigurationError("jitter_sigma_ps must be finite and >= 0")
        if not (self.dead_time_ps >= 0 and math.isfinite(self.dead_time_ps)):
            raise ConfigurationError("dead_time_ps must be finite and >= 0")


@dataclass(frozen=True)
class TdcConfig:
    """Time-to-digital converter: quantization grid plus Gaussian jitter."""

    resolution_ps: float = 1.0
    jitter_sigma_ps: float = 8.0 * FWHM_TO_SIGMA

    def __post_init__(self):
        if not (self.resolution_ps > 0 and math.isfinite(self.resolution_ps)):
            raise ConfigurationError("resolution_ps must be > 0")
        if not (self.jitter_sigma_ps >= 0 and math.isfinite(self.jitter_sigma_ps)):
            raise ConfigurationError("jitter_sigma_ps must be finite and >= 0")


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
        if not (self.one_way_delay_ps > 0 and math.isfinite(self.one_way_delay_ps)):
            raise ConfigurationError("one_way_delay_ps must be > 0")
        for name in ("loss_survival_prob", "splitter_loopback_prob"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigurationError(f"{name} must be in [0, 1]")


@dataclass(frozen=True)
class ClockConfig:
    """Bob's clock relative to Alice's: offset, linear drift, white noise."""

    offset_ps: float = -9900.0
    drift_ps_per_s: float = 0.0
    white_phase_noise_sigma_ps: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.offset_ps):
            raise ConfigurationError("offset_ps must be finite")
        if not math.isfinite(self.drift_ps_per_s):
            raise ConfigurationError("drift_ps_per_s must be finite")
        sigma = self.white_phase_noise_sigma_ps
        if not (sigma >= 0 and math.isfinite(sigma)):
            raise ConfigurationError("white_phase_noise_sigma_ps must be finite and >= 0")


class DetectorId(IntEnum):
    IDLER_A = 0
    SIGNAL_B = 1
    RETURN_A = 2


DETECTOR_NAMES = {
    DetectorId.IDLER_A: "IdlerA",
    DetectorId.SIGNAL_B: "SignalB",
    DetectorId.RETURN_A: "ReturnA",
}
DETECTOR_IDS_BY_NAME = {v: k for k, v in DETECTOR_NAMES.items()}


@dataclass
class TimestampStream:
    """Detection records stored per detector, indexed by ``DetectorId``.

    ``times[det]`` holds detector ``det``'s local-clock timestamps (integer
    ps) in ascending order; ``pair_ids[det]`` the emission index of each,
    simulation-only ground truth that estimators must not consume.
    """

    times: Tuple[np.ndarray, ...]
    pair_ids: Tuple[np.ndarray, ...]
    duration_s: float
    seed: int
    config_hash: Optional[str] = None
    nominal_one_way_delay_ps: Optional[float] = None

    def __post_init__(self):
        if not (len(self.times) == len(self.pair_ids) == len(DetectorId)):
            raise ConfigurationError(f"stream needs one array per detector ({len(DetectorId)})")
        self.times = tuple(np.asarray(t, dtype=np.int64) for t in self.times)
        self.pair_ids = tuple(np.asarray(p, dtype=np.int64) for p in self.pair_ids)
        for name, t, p in zip(DETECTOR_NAMES.values(), self.times, self.pair_ids):
            if t.shape != p.shape:
                raise ConfigurationError(f"{name} times and pair ids must have equal length")
            if t.size and t[0] < 0:
                raise ConfigurationError(f"{name} timestamps must be >= 0")
            if not is_sorted(t):
                raise ConfigurationError(f"{name} timestamps must be sorted ascending")

    def __len__(self):
        return sum(t.size for t in self.times)

    def counts(self):
        return {det: int(self.times[det].size) for det in DetectorId}


def is_sorted(values):
    """Whether the 1-D ``values`` ascend, compared in ``_PAIR_CHUNK`` windows
    that overlap by one element, so no full-length mask is made."""
    for lo in range(0, values.size - 1, _PAIR_CHUNK):
        window = values[lo : lo + _PAIR_CHUNK + 1]
        if np.any(window[1:] < window[:-1]):
            return False
    return True


def generate_pairs(source, duration_s, seed):
    """Emission times of a Poisson pair source over ``[0, duration_s)``.

    Returns the sorted 1-D float array of pair emission times, ps, in
    Alice's timebase; both photons of a pair leave at that time (the
    correlation jitter is drawn by ``propagate_and_detect``).
    Deterministic for a fixed integer seed.

    The run is cut into blocks of ``_PAIR_CHUNK / pair_rate_hz`` seconds
    (the last one shorter).  The generator of ``seed`` draws every block's
    Poisson count first; block ``i`` then fills its slice of the output
    with uniform times from its own generator (``_chunk_rng(seed, i)``) and
    sorts only that slice.  Times stay below their block's end, so the
    blocks' slices are in order.
    """
    if not (duration_s > 0 and math.isfinite(duration_s)):
        raise ConfigurationError("duration_s must be > 0")
    rate = source.pair_rate_hz
    end_ps = duration_s * 1e12
    n_blocks = max(1, math.ceil(duration_s * rate / _PAIR_CHUNK))
    # The last block ends at the end of the run, whichever side of it the
    # rounded multiple of the block length falls.
    edges = np.minimum(np.arange(n_blocks + 1) * (_PAIR_CHUNK / rate * 1e12), end_ps)
    edges[-1] = end_ps
    counts = np.random.default_rng(seed).poisson(np.diff(edges) * (rate * 1e-12))
    starts = np.concatenate(([0], np.cumsum(counts)))
    t = np.empty(int(starts[-1]))

    def fill(i):
        block = t[starts[i] : starts[i + 1]]
        lo, hi = edges[i], edges[i + 1]
        _chunk_rng(seed, i).random(out=block)
        block *= hi - lo
        block += lo
        # lo + (hi - lo) * u can round up to hi.
        np.minimum(block, np.nextafter(hi, lo), out=block)
        block.sort()

    _pipeline(fill, n_blocks, lambda _: None)
    return t


def _quantize(times, resolution_ps):
    """Snap the float64 ``times`` to the TDC grid and return them as integer
    picoseconds: an int64 view of ``times``'s own buffer, cast in place.

    Readings beyond the exact int64/float64 range, or NaN, are refused
    before the cast, which would wrap them to arbitrary integers.
    """
    q = np.divide(times, resolution_ps, out=times)
    np.rint(q, out=q)
    q *= resolution_ps
    if q.size and not (q.max() <= MAX_EXACT_PS and q.min() >= -MAX_EXACT_PS):
        raise ConfigurationError("detector readings exceed the exact int64/float64 range")
    np.rint(q, out=q)
    # Element k is read before it is written, so the cast needs no copy.
    ints = q.view(np.int64)
    np.copyto(ints, q, casting="unsafe")
    return ints


def _apply_dead_time(times, pairs, dead_time_ps):
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
        return times, pairs
    # For an integer gap d, d < dead_time_ps exactly when d < ceil(dead_time_ps);
    # integer bounds also stay exact where float addition would round.
    dead = math.ceil(dead_time_ps)
    keep = np.ones(times.size, dtype=bool)
    np.greater_equal(np.diff(times), dead, out=keep[1:])
    if keep.all():
        return times, pairs
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
    return times[keep], pairs[keep]


def _expected_capacity(n_pairs, prob):
    """Initial buffer length of a detector that records each of ``n_pairs``
    with probability ``prob``: the mean count plus six standard deviations,
    so a buffer grows only in rare runs."""
    mean = n_pairs * prob
    return int(mean + 6.0 * math.sqrt(mean)) + 1


def _sort_by_time(times, pair_ids):
    """Stably sort ``times`` in place, moving ``pair_ids`` along with them.

    Jitter below the record spacing swaps only a few neighbours, so only
    the span from the first record out of place to the last one is sorted.
    """
    down = np.flatnonzero(times[1:] < times[:-1])
    if down.size == 0:
        return
    first, last = int(down[0]) + 1, int(down[-1]) + 1
    # times[:first] and times[last:] ascend; the span takes in every record
    # of them that the rest of the chunk must pass.
    lo = int(np.searchsorted(times[:first], times[first:].min(), side="right"))
    hi = last + int(np.searchsorted(times[last:], times[:last].max(), side="left"))
    order = np.argsort(times[lo:hi], kind="stable")
    times[lo:hi] = times[lo:hi][order]
    pair_ids[lo:hi] = pair_ids[lo:hi][order]


class _DetectorRecords:
    """One detector's records, assembled in place chunk by chunk.

    Each chunk's records are stably sorted by time within the chunk (pair
    ids arrive ascending, so ties stay in pair-id order), negative times
    are dropped, and the rest is written into the two privately owned
    buffers.  They start at ``capacity``; one that fills up is resized in
    place, which lets the allocator remap a large block rather than copy it
    (glibc does).  A chunk that starts before the records already held end
    is written after them all the same, and then only the span where the
    two overlap is sorted, held records first on equal times.  So the
    buffers always hold the same (time, pair id) order as one stable sort
    of all records.  ``finish`` applies the dead time in the buffers and
    trims them once.
    """

    def __init__(self, capacity):
        self.times = np.empty(capacity, np.int64)
        self.pair_ids = np.empty(capacity, np.int64)
        self.size = 0

    def append(self, times, pair_ids):
        """Add one chunk's records, pair ids ascending; the two arrays are
        put in time order in place."""
        _sort_by_time(times, pair_ids)
        start = np.searchsorted(times, 0)
        times, pair_ids = times[start:], pair_ids[start:]
        held = self.size
        end = held + times.size
        if end > self.times.size:
            self.times.resize(end, refcheck=False)
            self.pair_ids.resize(end, refcheck=False)
        self.times[held:end] = times
        self.pair_ids[held:end] = pair_ids
        self.size = end
        if held and times.size and times[0] < self.times[held - 1]:
            # Held records up to the chunk's first time keep their place.
            lo = int(np.searchsorted(self.times[:held], times[0], side="right"))
            _sort_by_time(self.times[lo:end], self.pair_ids[lo:end])

    def finish(self, dead_time_ps):
        """The (times, pair ids) arrays with the dead time applied in place,
        trimmed once."""
        n = self.size
        if dead_time_ps > 0:
            n = self._filter_dead_time(n, math.ceil(dead_time_ps))
        self.times.resize(n, refcheck=False)
        self.pair_ids.resize(n, refcheck=False)
        return self.times, self.pair_ids

    def _filter_dead_time(self, n, dead):
        """Filter the first ``n`` records through ``_apply_dead_time`` slice by
        slice, moving the kept ones to the front; returns how many are kept.

        A slice of about ``_PAIR_CHUNK`` records ends only before a record at
        least ``dead`` after its predecessor: greedy keeps that record
        whatever came before, so the slices are independent.
        """
        times, pair_ids = self.times, self.pair_ids
        kept = lo = 0
        while lo < n:
            hi = lo + _PAIR_CHUNK
            while hi < n:
                # The first cut at or after ``hi``, searched a window at a time.
                stop = min(hi + _PAIR_CHUNK, n)
                far = np.flatnonzero(np.diff(times[hi - 1 : stop]) >= dead)
                if far.size:
                    hi += int(far[0])
                    break
                hi = stop
            hi = min(hi, n)
            t, p = _apply_dead_time(times[lo:hi], pair_ids[lo:hi], dead)
            times[kept : kept + t.size] = t
            pair_ids[kept : kept + p.size] = p
            kept += t.size
            lo = hi
        return kept


def propagate_and_detect(pairs, source, channel, m, n, detectors, tdc, clocks, seed, duration_s):
    """Propagate pair emissions through the attacked link and detect.

    Parameters
    ----------
    pairs : 1-D array of pair emission times, ps, Alice timebase
    source : SourceConfig whose correlation jitter is drawn on the idler
    channel : ChannelConfig
    m, n : DelayTrajectory for the forward (Alice->Bob) and backward legs
    detectors : DetectorConfig applied to every detector
    tdc : TdcConfig applied to every timestamp
    clocks : ClockConfig for Bob's clock (Alice is the reference)
    seed : RNG seed; fixed seed reproduces the stream exactly
    duration_s : stream duration metadata

    Returns a TimestampStream.  Records with negative local timestamps
    (possible for detections jittered before the clock origin) are dropped.
    """
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 1:
        raise ConfigurationError("pairs must be a 1-D array of emission times")
    if pairs.size and float(np.max(pairs)) > MAX_EXACT_PS:
        raise ConfigurationError("emission times exceed the exact int64/float64 range")

    L = channel.one_way_delay_ps
    eff = detectors.efficiency
    # One merged Gaussian per record: the independent jitter terms add in
    # quadrature, detector and TDC everywhere, plus the source's correlation
    # jitter on the idler and white phase noise at Bob.
    det_sigma, tdc_sigma = detectors.jitter_sigma_ps, tdc.jitter_sigma_ps
    sigma_idler = math.hypot(det_sigma, tdc_sigma, source.intrinsic_correlation_jitter_ps)
    sigma_bob = math.hypot(det_sigma, tdc_sigma, clocks.white_phase_noise_sigma_ps)
    sigma_return = math.hypot(det_sigma, tdc_sigma)
    # A signal is recorded at Bob (forward pass, transmitted at the splitter,
    # detected) or at Alice (forward pass, looped back, return pass,
    # detected); any other outcome loses it.
    s = channel.loss_survival_prob
    loop = channel.splitter_loopback_prob
    p_bob = s * (1.0 - loop) * eff
    p_signal = p_bob + s * loop * s * eff

    records = {
        det: _DetectorRecords(_expected_capacity(pairs.size, prob))
        for det, prob in (
            (DetectorId.IDLER_A, eff),
            (DetectorId.SIGNAL_B, p_bob),
            (DetectorId.RETURN_A, p_signal - p_bob),
        )
    }

    def detect(chunk):
        """Chunk ``chunk``'s (int64 times, pair ids) per detector, from its
        own generator alone."""
        rng = _chunk_rng(seed, chunk)
        lo = chunk * _PAIR_CHUNK
        emitted = pairs[lo : lo + _PAIR_CHUNK]
        k = emitted.size

        # Draw order is fixed so results depend only on (config, seed): two
        # uniforms per pair, then one Gaussian per detected photon, IdlerA's
        # first, then SignalB's, then ReturnA's.
        idler_idx = np.flatnonzero(rng.random(k) < eff)
        u_signal = rng.random(k)
        at_bob = u_signal < p_bob
        bob_idx = np.flatnonzero(at_bob)
        # at_bob implies u < p_signal, so the exclusive or is p_bob <= u < p_signal.
        at_return = u_signal < p_signal
        at_return ^= at_bob
        ret_idx = np.flatnonzero(at_return)
        del u_signal, at_bob, at_return

        # Each reading is built in its Gaussian's array, in place, one step
        # at a time in the order of the formula above it: bit-identical to
        # evaluating the formula, without a fresh array per step.  It is
        # quantized before the next Gaussians are drawn, so the chunk holds
        # one reading's temporaries at a time.
        # idler = emitted + sigma_idler * z
        idler = rng.standard_normal(idler_idx.size)
        idler *= sigma_idler
        idler += emitted[idler_idx]
        idler = _quantize(idler, tdc.resolution_ps)
        # bob = arrive + offset + drift * (arrive * 1e-12) + sigma_bob * z,
        # with arrive = emitted + L + M(emitted)
        bob = rng.standard_normal(bob_idx.size)
        t = emitted[bob_idx]
        delay = eval_trajectory(m, t * 1e-12)
        t += L
        t += delay
        drift = t * 1e-12
        drift *= clocks.drift_ps_per_s
        t += clocks.offset_ps
        t += drift
        bob *= sigma_bob
        bob += t
        del t, delay, drift
        bob = _quantize(bob, tdc.resolution_ps)
        # ret = arrive + L + N(arrive) + sigma_return * z
        ret = rng.standard_normal(ret_idx.size)
        t = emitted[ret_idx]
        delay = eval_trajectory(m, t * 1e-12)
        t += L
        t += delay
        delay = eval_trajectory(n, t * 1e-12)
        t += L
        t += delay
        ret *= sigma_return
        ret += t
        del t, delay
        ret = _quantize(ret, tdc.resolution_ps)

        for idx in (idler_idx, bob_idx, ret_idx):
            idx += lo
        return (idler, idler_idx), (bob, bob_idx), (ret, ret_idx)

    def assemble(readings):
        for det, (t, idx) in zip(DetectorId, readings):
            records[det].append(t, idx)

    _pipeline(detect, (pairs.size + _PAIR_CHUNK - 1) // _PAIR_CHUNK, assemble)

    times, pair_ids = [], []
    for det in DetectorId:
        t, p = records.pop(det).finish(detectors.dead_time_ps)
        times.append(t)
        pair_ids.append(p)

    return TimestampStream(
        times=times,
        pair_ids=pair_ids,
        duration_s=float(duration_s),
        seed=int(seed),
        nominal_one_way_delay_ps=L,
    )


def run_round_trip_sim(scenario: "AttackScenario"):
    """End-to-end simulation of one scenario: pairs, attack, detection.

    Composes generate_pairs, the coordination rule and propagate_and_detect;
    the returned stream carries the scenario seed, config hash and nominal
    fiber delay as metadata.
    """
    run = scenario.run
    gen_seed, prop_seed = (
        int(s) for s in np.random.SeedSequence(run.seed).generate_state(2, dtype=np.uint64)
    )
    pairs = generate_pairs(scenario.source, run.duration_s, gen_seed)
    stream = propagate_and_detect(
        pairs,
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
    stream.seed = run.seed
    stream.config_hash = scenario.config_hash()
    return stream
