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

With a shelf the gap needs no J.  With phi the segment's transform and
psi = k31 / (s + k31) the shelf's, the gap's transform is

    q phi / (1 - (1 - q) phi psi) = q lam1 lam2 (s + k31) / P(s),
    P(s) = (s + lam1)(s + lam2)(s + k31) - (1 - q) lam1 lam2 k31.

P(0) = q lam1 lam2 k31 > 0 and P(-min(lam1, lam2, k31)) < 0, so P has a root
-mu_c in (-k31, 0).  When its other two roots are real too, -mu_a <= -mu_b,
the transform is

    (s + k31)/k31 * mu_a/(s + mu_a) * mu_b/(s + mu_b) * mu_c/(s + mu_c),

and its last factor with (s + k31)/k31 is a point mass at 0 of weight
mu_c/k31 plus, with the remaining weight, Exp(mu_c).  With E1, E2, E3
standard exponentials and t0 = -log(1 - mu_c/k31) the gap is therefore

    E1/mu_a + E2/mu_b + max(E3 - t0, 0)/mu_c:

three exponential draws per detection, exact at any efficiency.  The poles
are solved once per emitter in closed form (`_gap_poles`).  They are real for
both builtin rate sets at every efficiency; when two are complex (the
correlation oscillates), and without a shelf, the geometric J and the gammas
above are drawn instead.  Antibunching and shelving-induced bunching are
emergent properties of the chain; nothing about the correlation function
enters the sampler.

A detected photon is an integer picosecond, the clock of a time-tagger, and
the detection stage routes signal and background alike.  One stream type,
`TimeTagStream` (sorted int64 ps over [0, duration]), carries a run from the
sampler through the router and the tag file to the correlators.  Its order
check, which the tag reader also runs, and the tie search (`_ties`) compare
neighbouring tags a block at a time, so neither holds a byte per tag.  No
absolute time is held in a float: each chunk's gaps are summed from its
start as whole picoseconds, exactly, and fractions, rounded once, then added
to the int64 time of the detection before the chunk.  The chunks are written
into one array per emitter, sized by the run's expected count and four sd,
which a run past that grows.

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
at or below `_BLOCKED_MIN` items.  Every threaded stage runs on
`_map_on_threads`.  The caller runs its first item and the threads claim
the rest one at a time, in index order, as they free up; so in `run`, where
the first item writes the tag file and the others are the correlation's
blocks, the writer's thread then takes the blocks left.  Stages run one
after another, and none starts inside another's item, so the threads at
work never outnumber the usable cores.
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
    "TimeTagStream",
    "simulate_emitter",
    "simulate_ensemble",
    "poisson_background",
]

_PS_PER_SECOND = 1_000_000_000_000
# expected detections per emitter below which the calling thread samples the
# whole ensemble: smaller draws lose more to GIL hand-offs than threads gain.
# Sampling 10 silver emitters at efficiency 0.14 on 2 cores (numpy 2.4.6), one
# thread took 1.10, 1.43, 1.58 and 1.67 times as long as two at 8 k, 16 k, 32 k
# and 64 k detections per emitter
_THREADED_MIN_DETECTIONS = 8192
# equal-duration time blocks that a blocked stage cuts [0, duration] into;
# more blocks than cores even out the threads' loads
_TIME_BLOCKS = 8
# items (merged events, correlated tags) at or below which a blocked stage runs
# whole on the calling thread: one correlator chunk (`correlator._CHUNK`).  On
# 2 cores, 2^16 and 2^17 tags correlated and merged no faster in blocks
_BLOCKED_MIN = 1 << 17
# the expected span of one chunk's gaps at most, in ps: float64 sums whole ps
# exactly below 2^53.  It binds below ~60 detections per second per emitter
_CHUNK_SPAN_PS = 1 << 51
# neighbouring pairs of tags that the order check and the tie search compare at once,
# so that they hold a bool per pair of a block, not of the stream
_CHECK_BLOCK = 1 << 16


@dataclass(frozen=True)
class TimeTagStream:
    """Time-sorted int64 tags in ps over [0, duration] ps: detected events, or one channel.

    Tags and duration must be whole ps, so a time in ns is never read as ps."""

    tags: np.ndarray
    channel_label: str
    duration: int  # ps
    # False skips the O(n) order and range check, for streams sorted by construction
    _validate: bool = field(default=True, repr=False)

    def __post_init__(self) -> None:
        label, tags, duration = self.channel_label, np.asarray(self.tags), self.duration
        if tags.dtype != np.int64:
            with np.errstate(invalid="ignore"):  # NaN, an infinity or an overflow fails the check
                whole = tags.astype(np.int64)
            if not np.array_equal(whole, tags):
                raise ValueError(f"stream {label}: tags must be whole picoseconds")
            tags = whole
        if not (isinstance(duration, (int, np.integer)) or float(duration).is_integer()):
            raise ValueError(f"stream {label}: duration must be whole picoseconds, "
                             f"got {duration!r}")
        duration = int(duration)
        if tags.ndim != 1:
            raise ValueError(f"stream {label}: tags must be a 1-d array")
        if duration <= 0:
            raise ValueError(f"stream {label}: duration must be > 0 ps, got {duration!r}")
        if self._validate and tags.size:
            if any(np.any(later < earlier) for _, earlier, later in _pairs(tags)):
                raise UnsortedInput(f"stream {label}: tags are not sorted")
            if tags[0] < 0 or tags[-1] > duration:
                raise ValueError(f"stream {label}: tags must lie within [0, {duration}] ps, "
                                 f"got {tags[0]} to {tags[-1]}")
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "duration", duration)

    def __len__(self) -> int:
        return int(self.tags.size)

    @property
    def rate_hz(self) -> float:
        return self.tags.size / self.duration * _PS_PER_SECOND

    @staticmethod
    def merge(streams: "list[TimeTagStream]", duration: int) -> "TimeTagStream":
        """Time-sorted union of the streams' tags, sorted in time blocks on every core."""
        runs = [s.tags for s in streams]
        n = sum(run.size for run in runs)
        edges = _block_edges(duration, n)
        # where each block starts in each run, and in the union
        cuts = [[0, *np.searchsorted(run, edges).tolist(), run.size] for run in runs]
        starts = [sum(c[k] for c in cuts) for k in range(len(edges) + 2)]
        tags = np.empty(n, np.int64)

        def sort_block(k: int) -> None:
            block = tags[starts[k]:starts[k + 1]]
            np.concatenate([np.empty(0, np.int64)]
                           + [run[c[k]:c[k + 1]] for run, c in zip(runs, cuts)], out=block)
            block.sort()

        _map_on_threads(sort_block, list(range(len(edges) + 1)), _usable_cores())
        return TimeTagStream(tags, "events", duration, _validate=False)


EventStream = TimeTagStream  # the name bench/tracing.py wraps the merge under


def _pairs(tags: np.ndarray):
    """The neighbouring pairs of tags, _CHECK_BLOCK at a time: (first, earlier, later) with
    earlier = tags[first:stop] and later = tags[first + 1:stop + 1], so that blocks overlap
    by one tag and a pair across an edge is compared too."""
    for first in range(0, tags.size - 1, _CHECK_BLOCK):
        stop = min(first + _CHECK_BLOCK, tags.size - 1)
        yield first, tags[first:stop], tags[first + 1:stop + 1]


def _ties(tags: np.ndarray):
    """The indices i of sorted tags with tags[i] == tags[i + 1], a block of pairs at a time,
    each run of equal tags whole: the ties of a block's last tag wait for the next block."""
    held = np.empty(0, np.intp)
    for first, earlier, later in _pairs(tags):
        ties = np.concatenate([held, first + np.flatnonzero(later == earlier)])
        cut = int(np.searchsorted(tags[ties], later[-1]))
        ties, held = ties[:cut], ties[cut:]
        if ties.size:
            yield ties
    if held.size:
        yield held


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


def _gap_poles(rates: RateSet, efficiency: float) -> tuple[float, float, float] | None:
    """Rates mu_a >= mu_b >= mu_c of the gap's three real poles, in ns^-1; None without
    a shelf, or when two poles are complex.

    They are the roots of Q(mu) = (mu - lam1)(mu - lam2)(mu - k31) + (1 - q) lam1 lam2 k31,
    solved in Viete's trigonometric form about the roots' mean m: with mu = m + x,
    Q = x^3 + p x + r.  mu_c, which cancels in m + x at small efficiency, comes
    from the product of the roots, q lam1 lam2 k31.
    """
    if rates.k23 <= 0.0:
        return None
    lam1, lam2 = _segment_rates(rates, efficiency)
    k31, detected = rates.k31, rates.k21 * efficiency
    m = (lam1 + lam2 + k31) / 3.0
    d1, d2, d3 = lam1 - m, lam2 - m, k31 - m
    # d1 + d2 + d3 = 0, so p = d1 d2 + d1 d3 + d2 d3 without a cancelling difference
    p = -0.5 * (d1 * d1 + d2 * d2 + d3 * d3)
    r = rates.k23 / (detected + rates.k23) * lam1 * lam2 * k31 - d1 * d2 * d3
    if not p < 0.0:
        return None
    cos_3angle = 1.5 * r / p * math.sqrt(-3.0 / p)
    if not abs(cos_3angle) <= 1.0:  # one real root
        return None
    radius, angle = 2.0 * math.sqrt(-p / 3.0), math.acos(cos_3angle) / 3.0
    mu_a = m + radius * math.cos(angle)
    mu_b = m + radius * math.cos(angle - 2.0 * math.pi / 3.0)
    mu_c = detected / (detected + rates.k23) * lam1 * lam2 * k31 / (mu_a * mu_b)
    # mu_c < k31 holds exactly; rounding or an overflow can break it at extreme rates
    return (mu_a, mu_b, mu_c) if 0.0 < mu_c < k31 else None


def _emission_times(rates: RateSet, efficiency: float, start: int, end: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Detected radiative transition times in (start, end] int64 ps, from the ground state
    at `start`, chunked over detections."""
    if rates.k12 <= 0.0 or efficiency <= 0.0:
        return np.empty(0, np.int64)
    try:
        # every rate per ps, so the gaps are drawn in ps
        lam1, lam2 = (lam / 1000.0 for lam in _segment_rates(rates, efficiency))
        poles = _gap_poles(rates, efficiency)
        k21, k23, k31 = rates.k21, rates.k23, rates.k31 / 1000.0
        # a segment ends in a detection rather than on the shelf
        q = k21 * efficiency / (k21 * efficiency + k23)
        shelf = 1.0 / k31 if k23 > 0.0 else 0.0
        # moments of the gap, J segments and J - 1 shelvings with J ~ Geometric(q)
        segment = 1.0 / lam1 + 1.0 / lam2
        mean_gap = (segment + (1.0 - q) * shelf) / q
        var_gap = ((lam1 ** -2 + lam2 ** -2 + (1.0 - q) * shelf ** 2) / q
                   + (1.0 - q) / q ** 2 * (segment + shelf) ** 2)
    except ArithmeticError:  # a float overflow or a division by an underflowed rate
        var_gap = math.nan
    if not 0.0 < var_gap < math.inf:
        raise ValueError(f"the gap between detections is out of float64 range at {rates} "
                         f"and efficiency {efficiency:g}")
    if poles is not None:
        mu_a, mu_b, mu_c = (mu / 1000.0 for mu in poles)
        # E3 below t0, with probability mu_c / k31, leaves the shelf factor at 0
        t0 = -math.log1p(-mu_c / k31)
    # a renewal count of mean m has sd cv sqrt(m), cv the gap's variation coefficient
    cv = math.sqrt(var_gap) / mean_gap
    # one array for the run, its expected count and four sd; a run past that grows it
    whole = (end - start) / mean_gap
    tags = np.empty(int(whole + 4.0 * cv * math.sqrt(whole)) + 16, np.int64)
    count = 0
    base = start  # the last detection before the chunk
    while True:
        left = end - base
        expected = left / mean_gap
        # the expected count and four sd: a chunk falls short about once in 30 000
        n = max(1, int(min(max(expected + 4.0 * cv * math.sqrt(expected) + 16, 256.0),
                           float(1 << 17), _CHUNK_SPAN_PS / mean_gap)))
        # the gaps, built in place in the first draw's array
        if poles is not None:
            # E1 / mu_a + E2 / mu_b + max(E3 - t0, 0) / mu_c
            times = rng.standard_exponential(n)
            times /= mu_a
            draw = rng.standard_exponential(n)
            draw /= mu_b
            times += draw
            rng.standard_exponential(out=draw)
            draw -= t0
            np.maximum(draw, 0.0, out=draw)
            draw /= mu_c
            times += draw
        else:
            # float shapes: an integer array would be converted by every draw
            segments = rng.geometric(q, n).astype(np.float64) if k23 > 0.0 else 1.0
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
        if count + kept > tags.size:
            tags = np.concatenate([tags[:count], np.empty(max(kept, tags.size // 4), np.int64)])
        chunk = tags[count:count + kept]
        chunk[...] = draw[:kept]
        chunk += base
        count += kept
        if kept < n:
            return tags[:count]
        base = int(chunk[-1])


def simulate_emitter(
    rates: RateSet,
    duration: float,
    seed,
    *,
    efficiency: float = 1.0,
) -> TimeTagStream:
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
    return TimeTagStream(times[np.searchsorted(times, 0, side="right"):], "events",
                         duration_ps, _validate=False)


def simulate_ensemble(
    rates: RateSet,
    n_emitters: int,
    duration: float,
    seed,
    *,
    efficiency: float = 1.0,
    background_rate: float = 0.0,
) -> TimeTagStream:
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

    def emitter(child: np.random.SeedSequence) -> TimeTagStream:
        return simulate_emitter(rates, duration, child, efficiency=efficiency)

    streams = _map_on_threads(emitter, children[:-1],
                              _worker_count(rates, duration, efficiency))
    if background_rate != 0.0:  # NaN and negative rates reach poisson_background's check
        streams.append(poisson_background(background_rate, duration, children[-1]))
    return TimeTagStream.merge(streams, streams[0].duration)


def _worker_count(rates: RateSet, duration: float, efficiency: float) -> int:
    """Threads that sample the ensemble: one per usable core above the size gate."""
    if steady_emission_rate(rates) * efficiency * duration < _THREADED_MIN_DETECTIONS:
        return 1
    return _usable_cores()


def _usable_cores() -> int:
    """The cores this process may run on, at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_edges(duration, n_items: int) -> list:
    """Inner edges of the _TIME_BLOCKS equal-duration blocks of [0, duration].

    An empty list at or below _BLOCKED_MIN items, whose stage is then one block.
    """
    if n_items <= _BLOCKED_MIN:
        return []
    return [duration * k // _TIME_BLOCKS for k in range(1, _TIME_BLOCKS)]


def _time_blocks(times: np.ndarray, duration) -> list[tuple[int, int]]:
    """[start, stop) of the non-empty equal-duration time blocks of sorted `times`."""
    cuts = [0, *np.searchsorted(times, _block_edges(duration, times.size)).tolist(), times.size]
    return [(start, stop) for start, stop in zip(cuts, cuts[1:]) if stop > start]


def _map_on_threads(fn, items: list, n_threads: int) -> list:
    """[fn(item) for item in items] on up to n_threads cores, the caller's included.

    A stage of one item or one thread is that plain loop on the caller.
    Otherwise the caller runs item 0 and the threads claim the rest one at a
    time, in index order, as they free up.  A failed item ends the claims,
    while the items before it, all claimed already, still run; the error
    raised is that of the lowest-index failing item, whichever failed first.
    """
    if min(n_threads, len(items)) < 2:
        return [fn(item) for item in items]
    results: list = [None] * len(items)
    errors: list[tuple[int, BaseException]] = []
    lock = threading.Lock()
    claimed = 1  # items claimed so far, every index below it; item 0 is the caller's

    def run(i: int) -> bool:
        try:
            results[i] = fn(items[i])
            return True
        except BaseException as exc:  # re-raised on the calling thread
            with lock:
                errors.append((i, exc))
            return False

    def work() -> None:
        nonlocal claimed
        while True:
            with lock:
                if errors or claimed == len(items):
                    return
                i, claimed = claimed, claimed + 1
            if not run(i):
                return

    started = []
    try:
        for _ in range(min(n_threads, len(items)) - 1):
            thread = threading.Thread(target=work)
            thread.start()
            started.append(thread)
        if run(0):
            work()
    finally:
        with lock:
            claimed = len(items)  # a thread that failed to start ends the claims
        for thread in started:
            thread.join()
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    return results


def poisson_background(rate: float, duration: float, seed) -> TimeTagStream:
    """Homogeneous Poisson detection times over [0, duration] ns, as int64 ps."""
    if not (math.isfinite(rate) and rate >= 0.0):
        raise ValueError(f"rate must be finite and >= 0, got {rate!r}")
    duration_ps = _duration_ps(duration)
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(rate * duration))
    times = rng.integers(0, duration_ps, n, endpoint=True)
    times.sort()
    return TimeTagStream(times, "background", duration_ps, _validate=False)


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
