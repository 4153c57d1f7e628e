"""Stochastic detection of photons from three-level emitters.

Each emitter is an independent continuous-time Markov chain over
ground/excited/shelved; a photon leaves at every radiative 2 -> 1
transition and is detected with a fixed probability p, independently of
every other photon.  The detected stream is therefore an independent
thinning of the emission renewal process, and only detected photons are
sampled: after a detection the emitter is in the ground state, and the
next detection follows M ~ Geometric(r p) pump cycles (r = k21/(k21+k23)
the radiative branching ratio), S ~ Binomial(M - 1, (1 - r)/(1 - r p)) of
which end on the shelf, so the gap is
Gamma(M, k12) + Gamma(M, k21 + k23) + Gamma(S, k31) (Neuts 1981; exact in
distribution, O(1) work per detected photon).  Antibunching and
shelving-induced bunching are emergent properties of the chain; nothing
about the correlation function enters the sampler.

`simulate_trajectory` is a plain jump-by-jump reference used by the tests
to validate the gap sampler distributionally.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .kinetics import RateSet, derived_params

__all__ = [
    "BACKGROUND_ID",
    "EmitterState",
    "SimConfig",
    "EventStream",
    "simulate_emitter",
    "simulate_ensemble",
    "simulate_trajectory",
    "poisson_background",
]

BACKGROUND_ID = -1


class EmitterState(enum.IntEnum):
    """Levels of the emitter; values match the conventional numbering."""

    GROUND = 1
    EXCITED = 2
    SHELVED = 3


@dataclass(frozen=True)
class SimConfig:
    """Ensemble simulation settings.

    duration: acquisition length in ns.
    efficiency: probability p that an emitted photon is detected on either
        APD (eff_A + eff_B); only detected photons are sampled, and the
        default p = 1 records every emission.
    background_rate: per-detector Poisson rate in ns^-1.  The ensemble
        stream carries a combined background at twice this rate; the
        detection stage routes it 50:50 (at the preset beamsplitter value),
        restoring the per-detector rate.
    """

    duration: float
    seed: int
    n_emitters: int
    rates: RateSet
    efficiency: float = 1.0
    background_rate: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise ValueError(f"duration must be finite and > 0, got {self.duration!r}")
        if not isinstance(self.n_emitters, (int, np.integer)) or self.n_emitters < 1:
            raise ValueError(f"n_emitters must be an integer >= 1, got {self.n_emitters!r}")
        _check_efficiency(self.efficiency)
        if not (math.isfinite(self.background_rate) and self.background_rate >= 0.0):
            raise ValueError(f"background_rate must be >= 0, got {self.background_rate!r}")


@dataclass(frozen=True)
class EventStream:
    """Time-sorted record of detected photons over [0, duration].

    times: float64 ns; emitter_ids: int32, BACKGROUND_ID marks background.
    """

    times: np.ndarray
    emitter_ids: np.ndarray
    duration: float
    _validate: bool = field(default=True, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", np.asarray(self.times, dtype=np.float64))
        object.__setattr__(self, "emitter_ids", np.asarray(self.emitter_ids, dtype=np.int32))
        if self.times.shape != self.emitter_ids.shape or self.times.ndim != 1:
            raise ValueError("times and emitter_ids must be 1-d arrays of equal length")
        if self._validate and self.times.size:
            if np.any(np.diff(self.times) < 0.0):
                raise ValueError("event times must be non-decreasing")
            if self.times[0] < 0.0 or self.times[-1] > self.duration:
                raise ValueError("event times must lie within [0, duration]")

    def __len__(self) -> int:
        return int(self.times.size)

    @staticmethod
    def merge(streams: "list[EventStream]", duration: float) -> "EventStream":
        """Time-sorted union; ties broken by emitter id for determinism."""
        if not streams:
            return EventStream(np.empty(0), np.empty(0, dtype=np.int32), duration)
        times = np.concatenate([s.times for s in streams])
        ids = np.concatenate([s.emitter_ids for s in streams])
        order = np.lexsort((ids, times))
        return EventStream(times[order], ids[order], duration, _validate=False)


def _check_efficiency(efficiency: float) -> None:
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError(f"efficiency must lie in [0, 1], got {efficiency!r}")


def _burn_in(rates: RateSet) -> float:
    # ten times the slowest model timescale erases the ground-state start
    params = derived_params(rates)
    return 10.0 / (params.gamma2 if params.gamma2 > 0.0 else params.gamma1)


def _emission_times(rates: RateSet, efficiency: float, t_end: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Detected radiative transition times in [0, t_end], chunked over detections."""
    k12, k21, k23, k31 = rates.k12, rates.k21, rates.k23, rates.k31
    if k12 <= 0.0 or efficiency <= 0.0 or t_end <= 0.0:
        return np.empty(0)
    r = k21 / (k21 + k23)
    p_detect = r * efficiency
    # probability that an undetected cycle ended on the shelf
    p_shelf = (1.0 - r) / (1.0 - p_detect) if k23 > 0.0 else 0.0
    mean_cycle = 1.0 / k12 + 1.0 / (k21 + k23)
    if p_shelf > 0.0:
        mean_cycle += (1.0 - r) / k31
    mean_gap = mean_cycle / p_detect
    chunks: list[np.ndarray] = []
    t = 0.0
    while t < t_end:
        n = int(np.clip(1.2 * (t_end - t) / mean_gap + 16, 256, 1 << 17))
        cycles = rng.geometric(p_detect, n)
        gaps = rng.gamma(cycles, 1.0 / k12) + rng.gamma(cycles, 1.0 / (k21 + k23))
        if p_shelf > 0.0:
            gaps += rng.gamma(rng.binomial(cycles - 1, p_shelf), 1.0 / k31)
        times = t + np.cumsum(gaps)
        chunks.append(times[times <= t_end])
        t = times[-1]
    return np.concatenate(chunks)


def simulate_emitter(
    rates: RateSet,
    duration: float,
    seed,
    *,
    efficiency: float = 1.0,
    emitter_id: int = 0,
) -> EventStream:
    """Detected photon times of one emitter over [0, duration] ns.

    Each emitted photon is detected with probability `efficiency`; the
    default 1 records every emission.  A burn-in interval (ten times the
    slowest relaxation timescale) is simulated and discarded so the
    recorded window is stationary.  `seed` may be an int, a SeedSequence or
    an existing Generator.
    """
    if not (math.isfinite(duration) and duration > 0.0):
        raise ValueError(f"duration must be finite and > 0, got {duration!r}")
    _check_efficiency(efficiency)
    if rates.k31 <= 0.0 < rates.k23:
        raise ValueError("k31 = 0 with k23 > 0: the shelved state is absorbing")
    rng = np.random.default_rng(seed)
    burn = _burn_in(rates)
    times = _emission_times(rates, efficiency, duration + burn, rng)
    times = times[times > burn] - burn
    ids = np.full(times.size, emitter_id, dtype=np.int32)
    return EventStream(times, ids, duration, _validate=False)


def simulate_ensemble(config: SimConfig) -> EventStream:
    """Merged, time-sorted detections of N independent emitters plus background.

    Emitter i consumes the i-th child of SeedSequence(config.seed), so the
    N = 1 ensemble reproduces `simulate_emitter` on that substream exactly.
    """
    children = np.random.SeedSequence(config.seed).spawn(config.n_emitters + 1)
    streams = [
        simulate_emitter(config.rates, config.duration, children[i],
                         efficiency=config.efficiency, emitter_id=i)
        for i in range(config.n_emitters)
    ]
    if config.background_rate > 0.0:
        streams.append(poisson_background(
            2.0 * config.background_rate, config.duration, children[-1]))
    return EventStream.merge(streams, config.duration)


def simulate_trajectory(
    rates: RateSet,
    n_jumps: int,
    seed,
    start: EmitterState = EmitterState.GROUND,
) -> tuple[np.ndarray, np.ndarray]:
    """Jump-by-jump state trajectory, the slow reference sampler.

    Returns (times, states): states[i] is entered at times[i]; times[0] = 0,
    states[0] = start.  Used to check dwell-time laws and occupation
    fractions against the analytic results.
    """
    if n_jumps < 1:
        raise ValueError("n_jumps must be >= 1")
    rng = np.random.default_rng(seed)
    times = np.zeros(n_jumps + 1)
    states = np.zeros(n_jumps + 1, dtype=np.int8)
    state = EmitterState(start)
    states[0] = state
    t = 0.0
    for i in range(1, n_jumps + 1):
        if state == EmitterState.GROUND:
            if rates.k12 <= 0.0:
                raise ValueError("k12 = 0: ground state is absorbing, no jumps possible")
            t += rng.exponential(1.0 / rates.k12)
            state = EmitterState.EXCITED
        elif state == EmitterState.EXCITED:
            w_rad = rng.exponential(1.0 / rates.k21)
            w_shelf = rng.exponential(1.0 / rates.k23) if rates.k23 > 0.0 else np.inf
            if w_rad <= w_shelf:
                t += w_rad
                state = EmitterState.GROUND
            else:
                t += w_shelf
                state = EmitterState.SHELVED
        else:
            if rates.k31 <= 0.0:
                raise ValueError("k31 = 0: shelved state is absorbing, no jumps possible")
            t += rng.exponential(1.0 / rates.k31)
            state = EmitterState.GROUND
        times[i] = t
        states[i] = state
    return times, states


def poisson_background(rate: float, duration: float, seed) -> EventStream:
    """Homogeneous Poisson events over [0, duration] ns, tagged as background."""
    if not (math.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"rate must be finite and >= 0, got {rate!r}")
    if not (math.isfinite(duration) and duration > 0.0):
        raise ValueError(f"duration must be finite and > 0, got {duration!r}")
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(rate * duration))
    times = np.sort(rng.uniform(0.0, duration, n))
    ids = np.full(n, BACKGROUND_ID, dtype=np.int32)
    return EventStream(times, ids, duration, _validate=False)
