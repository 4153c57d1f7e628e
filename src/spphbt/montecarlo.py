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

A detected photon is a plain time: the detection stage routes signal and
background alike, so nothing downstream needs to know where one came from.

Emitters are independent and each draws from its own SeedSequence child, so
`simulate_ensemble` samples them on one thread per usable core (numpy's
generators release the GIL while they fill arrays).  Below about 8 k
expected detections per emitter the hand-offs cost more than they gain and
the calling thread samples alone.  Results are merged in emitter order on
the calling thread, so the bytes do not depend on the thread count.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .kinetics import RateSet, derived_params, steady_emission_rate

__all__ = [
    "EventStream",
    "simulate_emitter",
    "simulate_ensemble",
    "poisson_background",
]

# expected detections per emitter below which the calling thread samples the
# whole ensemble: smaller draws lose more to GIL hand-offs than threads gain
_THREADED_MIN_DETECTIONS = 8192


@dataclass(frozen=True)
class EventStream:
    """Time-sorted detection times in float64 ns over [0, duration]."""

    times: np.ndarray
    duration: float
    _validate: bool = field(default=True, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", np.asarray(self.times, dtype=np.float64))
        if self.times.ndim != 1:
            raise ValueError("times must be a 1-d array")
        if self._validate and self.times.size:
            if np.any(self.times[1:] < self.times[:-1]):
                raise ValueError("event times must be non-decreasing")
            if self.times[0] < 0.0 or self.times[-1] > self.duration:
                raise ValueError("event times must lie within [0, duration]")

    def __len__(self) -> int:
        return int(self.times.size)

    @staticmethod
    def merge(streams: "list[EventStream]", duration: float) -> "EventStream":
        """Time-sorted union of the streams' detections."""
        times = np.concatenate([np.empty(0)] + [s.times for s in streams])
        times.sort()  # in place: a sorted copy would double the run's largest array
        return EventStream(times, duration, _validate=False)


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
    mean_gap = 1.0 / (steady_emission_rate(rates) * efficiency)
    chunks: list[np.ndarray] = []
    t = 0.0
    while t < t_end:
        n = int(np.clip(1.2 * (t_end - t) / mean_gap + 16, 256, 1 << 17))
        cycles = rng.geometric(p_detect, n)
        # gaps, then times, built in place in the first draw's array
        times = rng.gamma(cycles, 1.0 / k12)
        times += rng.gamma(cycles, 1.0 / (k21 + k23))
        if p_shelf > 0.0:
            cycles -= 1
            times += rng.gamma(rng.binomial(cycles, p_shelf), 1.0 / k31)
        np.cumsum(times, out=times)
        times += t
        chunks.append(times[:np.searchsorted(times, t_end, side="right")])
        t = times[-1]
    return np.concatenate(chunks)


def simulate_emitter(
    rates: RateSet,
    duration: float,
    seed,
    *,
    efficiency: float = 1.0,
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
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError(f"efficiency must lie in [0, 1], got {efficiency!r}")
    rng = np.random.default_rng(seed)
    burn = _burn_in(rates)
    times = _emission_times(rates, efficiency, duration + burn, rng)
    kept = times[np.searchsorted(times, burn, side="right"):]
    return EventStream(kept - burn, duration, _validate=False)


def simulate_ensemble(
    rates: RateSet,
    n_emitters: int,
    duration: float,
    seed,
    *,
    efficiency: float = 1.0,
    background_rate: float = 0.0,
) -> EventStream:
    """Merged, time-sorted detections of N independent emitters plus background.

    Each emitted photon is detected with probability `efficiency`
    (eff_A + eff_B); `background_rate` is the Poisson rate in ns^-1 of the
    background on both APDs together, which the detection stage splits like
    the signal.  Emitter i consumes the i-th child of SeedSequence(seed), so
    the N = 1 ensemble reproduces `simulate_emitter` on that substream
    exactly, and the result does not depend on how many threads sample the
    emitters.
    """
    if not isinstance(n_emitters, (int, np.integer)) or n_emitters < 1:
        raise ValueError(f"n_emitters must be an integer >= 1, got {n_emitters!r}")
    children = np.random.SeedSequence(seed).spawn(n_emitters + 1)

    def emitter(child: np.random.SeedSequence) -> EventStream:
        return simulate_emitter(rates, duration, child, efficiency=efficiency)

    streams = _map_on_threads(emitter, children[:-1],
                              _worker_count(rates, n_emitters, duration, efficiency))
    if background_rate != 0.0:  # NaN and negative rates reach poisson_background's check
        streams.append(poisson_background(background_rate, duration, children[-1]))
    return EventStream.merge(streams, duration)


def _worker_count(rates: RateSet, n_emitters: int, duration: float, efficiency: float) -> int:
    """Threads that sample the ensemble: one per usable core above the size gate."""
    if steady_emission_rate(rates) * efficiency * duration < _THREADED_MIN_DETECTIONS:
        return 1
    return min(_usable_cores(), n_emitters)


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):  # the cores this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_on_threads(fn, items: list, n_threads: int) -> list:
    """[fn(item) for item in items], spread over n_threads including the caller.

    Thread w takes items w, w + n_threads, ...  A failed item stops every
    thread before any later item while earlier items still run, so the error
    raised once all have joined is that of the lowest-index failing item,
    whichever failed first.
    """
    results: list = [None] * len(items)
    errors: list[tuple[int, BaseException]] = []

    def work(first: int) -> None:
        for i in range(first, len(items), n_threads):
            # no lock: a stale read only lets a thread start an item it could skip
            if errors and i > min(j for j, _ in errors):
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # re-raised on the calling thread
                errors.append((i, exc))
                return

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, n_threads)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    return results


def poisson_background(rate: float, duration: float, seed) -> EventStream:
    """Homogeneous Poisson detection times over [0, duration] ns."""
    if not (math.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"rate must be finite and >= 0, got {rate!r}")
    if not (math.isfinite(duration) and duration > 0.0):
        raise ValueError(f"duration must be finite and > 0, got {duration!r}")
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(rate * duration))
    return EventStream(np.sort(rng.uniform(0.0, duration, n)), duration, _validate=False)
