"""Stochastic detection of photons from three-level emitters.

Each emitter is an independent continuous-time Markov chain over
ground/excited/shelved; a photon leaves at every radiative 2 -> 1
transition and is detected with a fixed probability p, independently of
every other photon.  The detected stream is therefore an independent
thinning of the emission renewal process, and only detected photons are
sampled: after a detection the emitter is in the ground state, and the gap
to the next detection is drawn whole (Neuts 1981; exact in distribution,
O(1) work per detected photon).

Write k2 = k21 + k23.  A pump cycle, Exp(k12) then Exp(k2), ends in a
detection with probability p_det = k21 p / k2 and on the shelf with
probability k23 / k2, whatever its duration; call a run of cycles up to
the first that does either a segment, so p_end = (k21 p + k23) / k2.  One
cycle has Laplace transform k12 k2 / ((s + k12)(s + k2)), and the
Geometric(p_end) sum of cycles has

    p_end k12 k2 / ((s + k12)(s + k2) - (1 - p_end) k12 k2)
        = lam1 lam2 / ((s + lam1)(s + lam2)),

with lam1 + lam2 = k12 + k2 and lam1 lam2 = p_end k12 k2: a segment is
hypoexponential, Exp(lam1) + Exp(lam2).  The roots are real, since the
discriminant is (k12 - k2)^2 + 4 (1 - p_end) k12 k2 >= 0.  A segment ends
in a detection with probability q = p_det / p_end, independently of its
duration, and each other segment is followed by a shelving, Exp(k31).  So
with J ~ Geometric(q) the gap is

    Gamma(J, 1/lam1) + Gamma(J, 1/lam2) + Gamma(J - 1, 1/k31),

and without a shelf (k23 = 0) J = 1 and the gap is Exp(lam1) + Exp(lam2).
Antibunching and shelving-induced bunching are emergent properties of the
chain; nothing about the correlation function enters the sampler.

A detected photon is an integer picosecond, the clock of a time-tagger, and
the detection stage routes signal and background alike.  No absolute time
is held in a float: each chunk's gaps are summed from its start as whole
picoseconds, exactly, and fractions, rounded once, then added to the int64
time of the detection before the chunk.

Emitters are independent and each draws from its own SeedSequence child, so
`simulate_ensemble` samples them on one thread per usable core (numpy's
generators release the GIL while they fill arrays).  Below about 8 k
expected detections per emitter the hand-offs cost more than they gain and
the calling thread samples alone.  The emitters' sorted runs are merged in
time blocks: each block of [0, duration] gathers its share of every run and
sorts it into its own slice of the result, one block per thread at a time.
A sorted union is unique, so the bytes do not depend on the thread count.

The merge and both correlators share one block rule, `_time_blocks`: a
fixed number of equal-duration blocks, or one block on the calling thread
below a size gate.  Every threaded stage runs on `_map_on_threads`, and a
stage started inside another's worker thread (a correlation in a lane of
`run`) takes only the cores the outer one left free, so the threads at work
never outnumber the usable cores.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import UnsortedInput
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
# equal-duration time blocks that a blocked stage cuts [0, duration] into;
# more blocks than cores even out the threads' loads
_TIME_BLOCKS = 8
# events at or below which the merge runs whole on the calling thread
_BLOCKED_MIN = 1 << 15
# the expected span of one chunk's gaps at most, in ps: float64 sums whole ps
# exactly below 2^53.  It binds below ~60 detections per second per emitter
_CHUNK_SPAN_PS = 1 << 51
# worker threads that _map_on_threads has started and not yet joined, callers not counted
_running_workers = 0
_workers_lock = threading.Lock()


@dataclass(frozen=True)
class EventStream:
    """Time-sorted detection times in int64 ps over [0, duration] ps."""

    times: np.ndarray
    duration: int  # ps
    # False skips the O(n) order and range check, for runs sorted by construction
    _validate: bool = field(default=True, repr=False)

    def __post_init__(self) -> None:
        times, duration = _ps_stream(self.times, self.duration, "events", self._validate)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "duration", duration)

    def __len__(self) -> int:
        return int(self.times.size)

    @staticmethod
    def merge(streams: "list[EventStream]", duration: int) -> "EventStream":
        """Time-sorted union of the streams' detections, sorted in time blocks on every core."""
        runs = [s.times for s in streams]
        n = sum(run.size for run in runs)
        edges = _block_edges(duration, n, _BLOCKED_MIN)
        # where each block starts in each run, and in the union
        cuts = [[0, *np.searchsorted(run, edges).tolist(), run.size] for run in runs]
        starts = [sum(c[k] for c in cuts) for k in range(len(edges) + 2)]
        times = np.empty(n, np.int64)

        def sort_block(k: int) -> None:
            block = times[starts[k]:starts[k + 1]]
            np.concatenate([np.empty(0, np.int64)]
                           + [run[c[k]:c[k + 1]] for run, c in zip(runs, cuts)], out=block)
            block.sort()

        _map_on_threads(sort_block, list(range(len(edges) + 1)), _usable_cores())
        return EventStream(times, duration, _validate=False)


def _burn_in(rates: RateSet) -> float:
    # ten times the slowest model timescale erases the ground-state start
    params = derived_params(rates)
    return 10.0 / (params.gamma2 if params.gamma2 > 0.0 else params.gamma1)


def _segment_rates(rates: RateSet, efficiency: float) -> tuple[float, float]:
    """Rates lam1 >= lam2 of a segment, Exp(lam1) + Exp(lam2): the time from the
    ground state to the next detection or shelving."""
    k12, k2 = rates.k12, rates.k21 + rates.k23
    # (1 - p_end) k12 k2 and p_end k12 k2, each without a cancelling difference
    undetected = rates.k21 * (1.0 - efficiency) * k12
    lam1 = 0.5 * (k12 + k2 + math.sqrt((k12 - k2) ** 2 + 4.0 * undetected))
    return lam1, k12 * (rates.k21 * efficiency + rates.k23) / lam1


def _emission_times(rates: RateSet, efficiency: float, start: int, end: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Detected radiative transition times in (start, end] int64 ps, from the ground state
    at `start`, chunked over detections."""
    if rates.k12 <= 0.0 or efficiency <= 0.0:
        return np.empty(0, np.int64)
    # every rate per ps, so the gaps are drawn in ps
    lam1, lam2 = (lam / 1000.0 for lam in _segment_rates(rates, efficiency))
    k21, k23, k31 = rates.k21, rates.k23, rates.k31 / 1000.0
    # a segment ends in a detection rather than on the shelf
    q = k21 * efficiency / (k21 * efficiency + k23)
    shelf = 1.0 / k31 if k23 > 0.0 else 0.0
    # moments of the gap, J segments and J - 1 shelvings with J ~ Geometric(q)
    segment = 1.0 / lam1 + 1.0 / lam2
    mean_gap = (segment + (1.0 - q) * shelf) / q
    var_gap = ((lam1 ** -2 + lam2 ** -2 + (1.0 - q) * shelf ** 2) / q
               + (1.0 - q) / q ** 2 * (segment + shelf) ** 2)
    # a renewal count of mean m has sd cv sqrt(m), cv the gap's variation coefficient
    cv = math.sqrt(var_gap) / mean_gap
    chunks: list[np.ndarray] = []
    base = start  # the last detection before the chunk
    while True:
        left = end - base
        expected = left / mean_gap
        # the expected count and four sd: a chunk falls short about once in 30 000
        n = max(1, int(min(np.clip(expected + 4.0 * cv * math.sqrt(expected) + 16,
                                   256, 1 << 17), _CHUNK_SPAN_PS / mean_gap)))
        # float shapes: an integer array would be converted by every draw
        segments = rng.geometric(q, n).astype(np.float64) if k23 > 0.0 else 1.0
        # the gaps, built in place in the first draw's array
        times = rng.standard_gamma(segments, n)
        times /= lam1
        draw = rng.standard_gamma(segments, n)
        draw /= lam2
        times += draw
        if k23 > 0.0:
            segments -= 1.0
            rng.standard_gamma(segments, out=draw)
            draw /= k31
            times += draw
        # times from the chunk's start: the whole ps' sum plus the fractions' sum, rounded
        np.floor(times, out=draw)
        times -= draw
        np.cumsum(draw, out=draw)
        np.cumsum(times, out=times)
        np.rint(times, out=times)
        draw += times
        kept = int(np.searchsorted(draw, left, side="right"))
        tags = draw[:kept].astype(np.int64)
        tags += base
        chunks.append(tags)
        if kept < n:
            return np.concatenate(chunks)
        base = int(tags[-1])


def simulate_emitter(
    rates: RateSet,
    duration: float,
    seed,
    *,
    efficiency: float = 1.0,
) -> EventStream:
    """Detected photon times of one emitter over [0, duration] ns, as int64 ps.

    Each emitted photon is detected with probability `efficiency`; the
    default 1 records every emission.  A burn-in interval (ten times the
    slowest relaxation timescale) is simulated and discarded so the
    recorded window is stationary; duration plus burn-in must fit the int64
    clock, 2^63 - 1 ps.  `seed` may be an int, a SeedSequence or an existing
    Generator.
    """
    burn = round(_burn_in(rates) * 1000.0)
    duration_ps = _duration_ps(duration, burn)
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError(f"efficiency must lie in [0, 1], got {efficiency!r}")
    rng = np.random.default_rng(seed)
    times = _emission_times(rates, efficiency, -burn, duration_ps, rng)
    return EventStream(times[np.searchsorted(times, 0, side="right"):], duration_ps,
                       _validate=False)


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
                              _worker_count(rates, duration, efficiency))
    if background_rate != 0.0:  # NaN and negative rates reach poisson_background's check
        streams.append(poisson_background(background_rate, duration, children[-1]))
    return EventStream.merge(streams, streams[0].duration)


def _worker_count(rates: RateSet, duration: float, efficiency: float) -> int:
    """Threads that sample the ensemble: one per usable core above the size gate."""
    if steady_emission_rate(rates) * efficiency * duration < _THREADED_MIN_DETECTIONS:
        return 1
    return _usable_cores()


def _usable_cores() -> int:
    """Cores that no worker thread of _map_on_threads holds, at least 1.

    A stage started inside another's worker thread, such as a correlation in
    a lane of `run`, so spreads over the cores the outer stage left free.
    """
    return max(1, _process_cores() - _running_workers)


def _process_cores() -> int:
    if hasattr(os, "sched_getaffinity"):  # the cores this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_edges(duration, n_items: int, gate: int) -> list:
    """Inner edges of the _TIME_BLOCKS equal-duration blocks of [0, duration].

    None at or below `gate` items, whose stage is then one block.
    """
    if n_items <= gate:
        return []
    return [duration * k // _TIME_BLOCKS for k in range(1, _TIME_BLOCKS)]


def _time_blocks(times: np.ndarray, duration, gate: int) -> list[tuple[int, int]]:
    """[start, stop) of the non-empty equal-duration time blocks of sorted `times`."""
    cuts = [0, *np.searchsorted(times, _block_edges(duration, times.size, gate)).tolist(),
            times.size]
    return [(start, stop) for start, stop in zip(cuts, cuts[1:]) if stop > start]


def _map_on_threads(fn, items: list, n_threads: int) -> list:
    """[fn(item) for item in items] on up to n_threads, the caller's included, one per item.

    Thread w takes items w, w + n_threads, ...  A failed item stops every
    thread before any later item while earlier items still run, so the error
    raised once all have joined is that of the lowest-index failing item,
    whichever failed first.
    """
    n_threads = max(1, min(n_threads, len(items)))
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

    global _running_workers
    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, n_threads)]
    with _workers_lock:
        _running_workers += len(threads)
    try:
        for thread in threads:
            thread.start()
        work(0)
        for thread in threads:
            thread.join()
    finally:
        with _workers_lock:
            _running_workers -= len(threads)
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    return results


def poisson_background(rate: float, duration: float, seed) -> EventStream:
    """Homogeneous Poisson detection times over [0, duration] ns, as int64 ps."""
    if not (math.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"rate must be finite and >= 0, got {rate!r}")
    duration_ps = _duration_ps(duration)
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(rate * duration))
    times = rng.integers(0, duration_ps, n, endpoint=True)
    times.sort()
    return EventStream(times, duration_ps, _validate=False)


def _duration_ps(duration: float, burn_in: int = 0) -> int:
    """A duration in ns as whole ps, which must be > 0 and end within the int64 clock after
    `burn_in` ps; else a ValueError."""
    if not (math.isfinite(duration) and duration > 0.0):
        raise ValueError(f"duration must be finite and > 0, got {duration!r}")
    ps = round(duration * 1000.0)
    if ps > (1 << 63) - 1 - burn_in:
        raise ValueError(f"duration {duration!r} ns plus {burn_in} ps of burn-in exceeds "
                         f"the int64 clock's 2^63 - 1 ps (about 9.22e15 ns)")
    return ps


def _ps_stream(times, duration, label: str, check_order: bool = True) -> tuple[np.ndarray, int]:
    """`times` as a 1-d int64 array and `duration` as an int > 0, both whole ps, and with
    `check_order` the times sorted within [0, duration]; else a ValueError, an
    UnsortedInput for the order.  A time in ns is never read as ps."""
    whole = np.asarray(times)
    if whole.dtype != np.int64:
        with np.errstate(invalid="ignore"):  # NaN, an infinity or an overflow fails the check
            whole = whole.astype(np.int64)
        if not np.array_equal(whole, times):
            raise ValueError(f"{label}: times must be whole picoseconds")
    if not (isinstance(duration, (int, np.integer)) or float(duration).is_integer()):
        raise ValueError(f"{label}: duration must be whole picoseconds, got {duration!r}")
    duration = int(duration)
    if whole.ndim != 1:
        raise ValueError(f"{label}: times must be a 1-d array")
    if duration <= 0:
        raise ValueError(f"duration must be > 0 ps, got {duration!r}")
    if check_order and whole.size:
        if np.any(whole[1:] < whole[:-1]):
            raise UnsortedInput(f"{label}: tags are not sorted")
        if whole[0] < 0 or whole[-1] > duration:
            raise ValueError("tags must lie within [0, duration]")
    return whole, duration
