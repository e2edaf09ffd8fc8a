"""Monte-Carlo photon-pair timestamps through the attacked round-trip link.

Topology: a pair source at Alice emits time-correlated photon pairs.  The
idler is detected locally (IdlerA).  The signal travels a fiber of one-way
delay L to Bob, picking up the forward attack delay M(t); at Bob's splitter
it is either detected there (SignalB, timestamped in Bob's clock) or looped
back toward Alice, picking up the backward attack delay N(t) on the return
fiber, and detected at Alice (ReturnA).  Detector and TDC jitter, TDC
quantization, channel loss, splitter routing, detection efficiency and
dead-time suppression are applied per photon; losses are silent.

Clock model: Alice's clock is the time reference.  Bob's clock reads
``true + offset + drift * t + white phase noise``.

Attack delays vary over seconds while the flight time is ~50 us, so M is
sampled at the emission time and N at the arrival time at Bob; the
mid-flight approximation error is far below a femtosecond at these rates.

All randomness flows from a single integer seed through
``numpy.random.default_rng``; identical configuration and seed reproduce a
bit-identical stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import IntEnum
from typing import Optional, Tuple, TYPE_CHECKING

import numpy as np

from .attacks import eval_trajectory
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

# Vectorized propagation works on bounded slices of the pair array.  This
# bounds only the per-slice random draws and temporaries: all pairs and all
# detection records of the campaign are still held in memory at once.
_PAIR_CHUNK = 1_000_000

# int64 picosecond timestamps stay exact in float64 arithmetic up to 2**53.
_MAX_TIME_PS = float(2**53)


@dataclass(frozen=True)
class SourceConfig:
    """Photon-pair source: homogeneous Poisson emission.

    ``intrinsic_correlation_jitter_ps`` is the sigma of the signal-idler
    emission-time difference (near zero for down-conversion pairs).
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
            if np.any(np.diff(t) < 0):
                raise ConfigurationError(f"{name} timestamps must be sorted ascending")

    def __len__(self):
        return sum(t.size for t in self.times)

    def counts(self):
        return {det: int(self.times[det].size) for det in DetectorId}


def generate_pairs(source, duration_s, seed):
    """Emission-time pairs of a Poisson pair source over ``[0, duration_s)``.

    Returns an ``(n, 2)`` float array of picosecond emission times in
    Alice's timebase: column 0 the idler, column 1 the signal.  The two
    differ by a zero-mean Gaussian of the configured intrinsic correlation
    jitter.  Deterministic for a fixed seed.
    """
    if not (duration_s > 0 and math.isfinite(duration_s)):
        raise ConfigurationError("duration_s must be > 0")
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(source.pair_rate_hz * duration_s))
    t = np.sort(rng.uniform(0.0, duration_s * 1e12, n))
    if source.intrinsic_correlation_jitter_ps > 0:
        d = rng.normal(0.0, source.intrinsic_correlation_jitter_ps, n)
    else:
        d = np.zeros(n)
    return np.column_stack((t - 0.5 * d, t + 0.5 * d))


def _quantize(times, resolution_ps):
    """Snap to the TDC grid and store as integer picoseconds."""
    q = np.rint(times / resolution_ps) * resolution_ps
    return np.rint(q).astype(np.int64)


def _apply_dead_time(times, pairs, dead_time_ps):
    """Greedy dead-time filter on a time-sorted detector stream."""
    if times.size == 0 or dead_time_ps <= 0:
        return times, pairs
    keep = np.ones(times.size, dtype=bool)
    last = times[0]
    for i in range(1, times.size):
        if times[i] - last < dead_time_ps:
            keep[i] = False
        else:
            last = times[i]
    return times[keep], pairs[keep]


def propagate_and_detect(
    pairs, channel, m, n, detectors, tdc, clocks, seed, duration_s=None
):
    """Propagate emission pairs through the attacked link and detect.

    Parameters
    ----------
    pairs : (n, 2) array of idler/signal emission times, ps, Alice timebase
    channel : ChannelConfig
    m, n : DelayTrajectory for the forward (Alice->Bob) and backward legs
    detectors : DetectorConfig applied to every detector
    tdc : TdcConfig applied to every timestamp
    clocks : ClockConfig for Bob's clock (Alice is the reference)
    seed : RNG seed; fixed seed reproduces the stream exactly
    duration_s : stream duration metadata (inferred from data when omitted)

    Returns a TimestampStream.  Records with negative local timestamps
    (possible for detections jittered before the clock origin) are dropped.
    """
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ConfigurationError("pairs must be an (n, 2) array")
    if pairs.size and float(np.max(pairs)) > _MAX_TIME_PS:
        raise ConfigurationError("emission times exceed the exact int64/float64 range")

    rng = np.random.default_rng(seed)
    L = channel.one_way_delay_ps
    eff = detectors.efficiency
    s_det = detectors.jitter_sigma_ps
    s_tdc = tdc.jitter_sigma_ps
    s_wpn = clocks.white_phase_noise_sigma_ps

    out_times = {det: [np.empty(0, np.int64)] for det in DetectorId}
    out_pairs = {det: [np.empty(0, np.int64)] for det in DetectorId}

    for lo in range(0, pairs.shape[0], _PAIR_CHUNK):
        e_idler = pairs[lo : lo + _PAIR_CHUNK, 0]
        e_signal = pairs[lo : lo + _PAIR_CHUNK, 1]
        k = e_idler.size
        ids = np.arange(lo, lo + k, dtype=np.int64)

        # Draw order is fixed so results depend only on (config, seed).
        idler_hit = rng.random(k) < eff
        t_idler = e_idler + s_det * rng.standard_normal(k) + s_tdc * rng.standard_normal(k)

        m_ps = eval_trajectory(m, e_signal * 1e-12)
        arrive_bob = e_signal + L + m_ps
        survive_fwd = rng.random(k) < channel.loss_survival_prob
        looped = rng.random(k) < channel.splitter_loopback_prob

        bob_hit = rng.random(k) < eff
        bob_reading = (
            arrive_bob
            + clocks.offset_ps
            + clocks.drift_ps_per_s * (arrive_bob * 1e-12)
            + s_wpn * rng.standard_normal(k)
            + s_det * rng.standard_normal(k)
            + s_tdc * rng.standard_normal(k)
        )

        n_ps = eval_trajectory(n, arrive_bob * 1e-12)
        arrive_alice = arrive_bob + L + n_ps
        survive_ret = rng.random(k) < channel.loss_survival_prob
        ret_hit = rng.random(k) < eff
        ret_reading = (
            arrive_alice + s_det * rng.standard_normal(k) + s_tdc * rng.standard_normal(k)
        )

        for det, reading, mask in (
            (DetectorId.IDLER_A, t_idler, idler_hit),
            (DetectorId.SIGNAL_B, bob_reading, survive_fwd & ~looped & bob_hit),
            (DetectorId.RETURN_A, ret_reading, survive_fwd & looped & survive_ret & ret_hit),
        ):
            t = _quantize(reading[mask], tdc.resolution_ps)
            pid = ids[mask]
            nonneg = t >= 0
            out_times[det].append(t[nonneg])
            out_pairs[det].append(pid[nonneg])

    times, pair_ids = [], []
    for det in DetectorId:
        t = np.concatenate(out_times[det])
        p = np.concatenate(out_pairs[det])
        order = np.lexsort((p, t))
        t, p = _apply_dead_time(t[order], p[order], detectors.dead_time_ps)
        times.append(t)
        pair_ids.append(p)

    if duration_s is None:
        duration_s = max((float(t[-1] + 1) * 1e-12 for t in times if t.size), default=0.0)
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
        scenario.channel,
        scenario.m_trajectory(),
        scenario.n_trajectory(),
        scenario.detectors,
        scenario.tdc,
        scenario.clock,
        prop_seed,
        duration_s=run.duration_s,
    )
    return replace(stream, seed=run.seed, config_hash=scenario.config_hash())
