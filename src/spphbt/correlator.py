"""Second-order correlation estimation from detector time tags.

All times are integer picoseconds.  Cross- and auto-correlations both take
a symmetric window [-lag_max, lag_max) with a whole number of bins on each
side.  The estimator counts every ordered pair (a, b) whose lag b - a falls
inside the window and bins it on a uniform grid of half-open bins
[edge, edge + bin_width); normalising by the uncorrelated-pair expectation
rate_a * rate_b * duration * bin_width turns counts into g2 with Poisson
error bars sqrt(counts) on the same scale.

Pairs are counted by stepping over partner rank rather than by listing
them.  A chunk of channel-A tags can only reach the slice of tb between its
first tag's earliest partner and its last tag's latest one, which two
scalar searches locate.  The slice's tags go into buckets of t // width,
the width the larger of 1/32 of the window's span and the chunk's time span
over the larger of its tag count and the slice's, so the buckets number
about one per tag at most and, on a narrow window, hold about one B tag
each.  A tag's partners lie in the run of buckets from its window start's
to the one its window's end reaches, and the cumulative bincount of the
buckets gives each tag those candidates without a search: the first, lo,
and their number.  Candidates outside the window, about 3 % more than the
pairs on a wide window and a few per tag on a narrow one, land in one spare
bin, dropped at the end.  Ordered by that number, descending, the tags with
more than k candidates form a prefix, and their (k+1)-th candidates are the
gather tb[k:][lo] over that prefix, into one buffer reused by every rank:
one gather, one subtraction, one floor division, a cross's clamp to the
spare bin and one bincount per rank k, or an np.add.at where its pairs are
fewer than half the bins, so a wide window costs no full histogram per
rank.  Once fewer than a small fixed number of tags remain, their remaining
pairs are listed in one go, so a burst tag with many partners costs no more
Python steps than the ranks before it.  The cost is O(pairs + tags), and
each step holds O(chunk) memory whatever the window, besides an auto
chunk's copy of the tags within lag_max past it.  A tag's reach, t + lag,
saturates at the int64 clock's top (`_ahead`), so tags near 2^63 - 1 ps
pair like any others.

An auto-correlation counts each pair once, in one sorted stream t where
tag i's partner at rank k is tag i + k.  A chunk's tags and the partners
within lag_max of its last are split once into quotients q and residues r
of t - t0 by the bin width w, t0 the chunk's first tag: int32 quotients
wherever they and the slots fit, residues on the smallest signed type that
holds -w.  A pair i < j with lag d = t[j] - t[i] <= lag_max = H*w goes to
slot 3 (q_j - q_i) + sign(r_j - r_i), one of 0..3H.  Slots 3b to 3b + 2
hold the lags d in [b*w, (b+1)*w), forward bin b, and slots 3b + 1 to
3b + 3 the lags in (b*w, (b+1)*w], whose mirror -d falls in the b-th bin
left of zero; slot 0 holds the equal tags, which pair both ways at lag 0.
So one slot histogram gives both halves of the window, lags on a bin edge
included.
While at least a fixed share of a chunk still has a partner in the window,
rank k is the slice difference of q and of r, its quotient difference
clipped so that the pairs past the window pile up in the slots past 3H,
and bincounted: no search, sort, gather or division.  The clip is against
an array of the bound that each chunk makes in its quotients' type, not a
scalar, with which numpy's np.minimum on int32 misses its vector loop.  The
tags still inside once the chunk thins out go on by compaction: each rank
gathers every survivor's next partner, bins the pair the same way, and
keeps the survivors still inside, so no tag's partners are searched for.

Both correlators run in time blocks of the pooled stream of both channels
on every usable core, under one rule (`montecarlo._time_blocks`): a fixed
number of equal-duration blocks, or a single block on the calling thread
for a stream of at most one chunk (`montecarlo._BLOCKED_MIN`).  A cross
block owns the pairs whose A tag lies in it: it copies out its A tags and
the B tags within lag_max of them, so neither channel is copied whole.  An
auto block owns the pairs whose earlier tag lies in it, reading their
partners past the block's end in place.  Each block's int64 histogram is
added to one running total as the block ends, so no more than one per
thread is held beside it; they add up to the whole stream's whatever the
order, so the counts do not depend on the thread count.

A channel is the one stream type of the whole run, `montecarlo.TimeTagStream`
(sorted int64 ps over [0, duration]), which this module exports.  An
acquisition's two channels travel as one `ChannelTags`: the time-ordered
tags of both and a mask of B's, A's first at equal tags (`_a_first_at_ties`,
the one rule for the router and `ChannelTags.pool`, whose runs of equal tags
come from the tie search the tag reader also uses, `montecarlo._ties`).  Both
correlators read it as it is; a whole channel is copied out only when asked
for.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyStream
from .montecarlo import (_PS_PER_SECOND, TimeTagStream, _map_on_threads, _ties, _time_blocks,
                         _usable_cores)

__all__ = [
    "TimeTagStream",
    "ChannelTags",
    "CorrelationHistogram",
    "cross_correlate",
    "auto_correlate",
]

# tags correlated per pass; the per-step arrays are this long at most, but for an auto
# chunk's quotients and residues, which also cover the tags within lag_max past it
_CHUNK = 1 << 17
# a cross window's span over the width of the buckets its partners are found in: a tag's
# candidates overrun its window by about 1/_BUCKETS_PER_WINDOW of its span
_BUCKETS_PER_WINDOW = 32
# below this many tags left in a rank step, their remaining pairs are expanded at once
_TAIL = 64
# below this share of an auto chunk still inside the window, compaction takes over from slices
_DENSE = 1 / 3
# tags split into quotients and residues per step, so that its int64 temporaries stay small
_PIECE = 1 << 14
# the int64 clock's last picosecond
_CLOCK_TOP = (1 << 63) - 1


@dataclass(frozen=True)
class ChannelTags:
    """Both channels of one acquisition: their tags in time order, which are B's, and metadata.

    At equal tags A's come first (`_a_first_at_ties`).
    Unpacks as (channel A, channel B, metadata).
    """

    pooled: TimeTagStream
    on_b: np.ndarray  # bool, one per tag of `pooled`
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        on_b = self.on_b
        if not (isinstance(on_b, np.ndarray) and on_b.dtype == bool
                and on_b.shape == (len(self.pooled),)):
            raise ValueError(f"on_b must be a 1-d bool array of {len(self.pooled)} entries")

    @classmethod
    def pool(cls, a: TimeTagStream, b: TimeTagStream) -> "ChannelTags":
        """Channels A and B as one value."""
        tags = np.concatenate([a.tags, b.tags])
        order = np.argsort(tags)
        tags, on_b = tags[order], order >= a.tags.size
        _a_first_at_ties(tags, on_b)
        return cls(TimeTagStream(tags, "A+B", min(a.duration, b.duration)), on_b)

    @property
    def duration(self) -> int:
        return self.pooled.duration

    @property
    def counts(self) -> tuple[int, int]:
        """Tags on channel A and on channel B."""
        n_b = int(np.count_nonzero(self.on_b))
        return len(self.pooled) - n_b, n_b

    @property
    def a(self) -> TimeTagStream:
        return TimeTagStream(np.compress(~self.on_b, self.pooled.tags), "A", self.duration)

    @property
    def b(self) -> TimeTagStream:
        return TimeTagStream(np.compress(self.on_b, self.pooled.tags), "B", self.duration)

    def __iter__(self):
        return iter((self.a, self.b, self.metadata))


def _a_first_at_ties(tags: np.ndarray, on_b: np.ndarray) -> None:
    """Reorder the channel mask of sorted tags in place so that each run of equal tags
    lists channel A's first: the one record order of `ChannelTags`."""
    for ties in _ties(tags):
        run = np.union1d(ties, ties + 1)
        on_b[run] = on_b[run][np.lexsort((on_b[run], tags[run]))]


@dataclass(frozen=True)
class CorrelationHistogram:
    """Binned pair counts over lags [-lag_max, lag_max), plus their g2 normalisation.

    The window holds a whole number of bins on each side.  Bin k covers
    lags [-lag_max + k*bin_width, -lag_max + (k+1)*bin_width) ps.
    rate_a/rate_b are the channel rates in Hz used for normalisation; g2
    and sigma are always derived from the counts and these.
    """

    counts: np.ndarray
    bin_width: int
    lag_max: int
    duration: int
    rate_a: float
    rate_b: float

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        n_bins = 2 * _validate_window(self.lag_max, self.bin_width) // self.bin_width
        if counts.shape != (n_bins,):
            raise ValueError(f"expected {n_bins} bins, got shape {counts.shape}")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        if not self._uncorrelated_pairs > 0.0:
            raise ValueError("normalisation requires positive rates and duration")

    @property
    def lag_min(self) -> int:
        """Left edge of the first bin in ps, always -lag_max."""
        return -self.lag_max

    @property
    def _uncorrelated_pairs(self) -> float:
        """Pairs expected in one bin if the channels were independent."""
        return (self.rate_a / _PS_PER_SECOND) * (self.rate_b / _PS_PER_SECOND) \
            * self.duration * self.bin_width

    @property
    def g2(self) -> np.ndarray:
        return self.counts / self._uncorrelated_pairs

    @property
    def sigma(self) -> np.ndarray:
        """Poisson error of g2, sqrt(counts) on the same scale."""
        return np.sqrt(self.counts) / self._uncorrelated_pairs

    @property
    def n_bins(self) -> int:
        return int(self.counts.size)

    @property
    def lag_edges(self) -> np.ndarray:
        """Left bin edges in ps."""
        return self.lag_min + self.bin_width * np.arange(self.n_bins, dtype=np.int64)

    @property
    def lag_centers(self) -> np.ndarray:
        """Bin centres in ps (float)."""
        return self.lag_edges + 0.5 * self.bin_width


def _ahead(t, lag: int):
    """t + lag ps for a tag or an array of tags, saturated at the int64 clock's top;
    0 <= lag <= 2^63 - 1."""
    return np.minimum(t, _CLOCK_TOP - lag) + lag


def _pair_counts(ta: np.ndarray, tb: np.ndarray, lag_max: int, bin_width: int) -> np.ndarray:
    """Histogram of lags tb[j] - ta[i] inside [-lag_max, lag_max)."""
    span = 2 * lag_max
    counts = np.zeros(span // bin_width + 1, dtype=np.int64)  # the last is the spare bin

    for i0 in range(0, ta.size, _CHUNK):
        a = ta[i0:i0 + _CHUNK]
        base = int(a[0]) - lag_max
        top = int(_ahead(a[-1], lag_max - 1))  # the chunk's latest partner
        tw = tb[np.searchsorted(tb, base, side="left"):np.searchsorted(tb, top, side="right")]
        if tw.size == 0:
            continue
        # buckets of t // width, about _BUCKETS_PER_WINDOW to a window and no more than
        # either channel's tags: a tag's partners, start to start + span - 1, lie in its
        # start's bucket and the `reach` after it.  A candidate's lag past 2^63 - 1 ps lies
        # past the window: it wraps negative, into the last bin
        width = max(-(-(span - 1) // _BUCKETS_PER_WINDOW),
                    (top - base) // max(a.size, tw.size) + 1)
        reach = -(-(span - 1) // width)
        first_bucket = base // width
        n_buckets = top // width - first_bucket + 1
        first = np.zeros(n_buckets + reach + 1, dtype=np.int64)
        np.cumsum(np.bincount(tw // width - first_bucket, minlength=n_buckets + reach),
                  out=first[1:])
        start = a - lag_max
        bucket = np.floor_divide(start, width)
        bucket -= first_bucket
        lo = first[bucket]
        bucket += reach + 1
        per = np.take(first, bucket, out=bucket)
        per -= lo
        _step_ranks(tw, start, lo, per, bin_width, counts)
    return counts[:-1]


def _slots(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Slots 3x + sign(s) of pairs whose quotients differ by x and residues by s, in x's
    array; s is overwritten."""
    x *= 3
    x += np.sign(s, out=s)
    return x


def _step_ranks(window: np.ndarray, start: np.ndarray, lo: np.ndarray, per: np.ndarray,
                bin_width: int, counts: np.ndarray) -> None:
    """Add to counts the bin of each tag i's candidates window[lo[i] + k], k < per[i], by
    their lag past start[i]; the last bin is the spare bin of those outside the window."""

    def add(partner: np.ndarray, start: np.ndarray) -> None:
        x = np.floor_divide(np.subtract(partner, start, out=partner), bin_width, out=partner)
        # a negative bin, read unsigned, lies past every other
        np.minimum(x.view(np.uint64), counts.size - 1, out=x.view(np.uint64))
        _count(x, counts)

    # sorted by candidate count, descending, the tags with more than k candidates
    # form a prefix of length m_k; a stable sort keeps each count's tags in
    # time order, and on the narrowest integer type that holds the counts it
    # is a radix sort
    neg_per = -per
    order = np.argsort(neg_per.astype(np.min_scalar_type(neg_per.min())), kind="stable")
    neg_per, lo = neg_per[order], lo[order]
    start = start[order]  # after neg_per's unsorted array is freed, whose memory it may take
    k = 0
    m = int(np.searchsorted(neg_per, 0, side="left"))
    # every rank gathers into one buffer
    buffer = np.empty(m, window.dtype)
    while m >= _TAIL:
        add(np.take(window[k:], lo[:m], out=buffer[:m], mode="clip"), start[:m])
        k += 1
        m = int(np.searchsorted(neg_per, -k, side="left"))
    if m == 0:
        return
    # the few tags with many partners left: expand their pairs at once
    rest = -k - neg_per[:m]
    total = int(rest.sum())
    offsets = np.repeat(np.cumsum(rest) - rest, rest)
    partner = np.arange(total, dtype=np.int64) - offsets + np.repeat(lo[:m] + k, rest)
    add(window[partner], np.repeat(start[:m], rest))


def _count(bins: np.ndarray, counts: np.ndarray) -> None:
    """Add one to counts at each of bins: by np.add.at where they number less than half the
    histogram, whose full-length bincount would cost more than they do, else by a bincount."""
    if 2 * bins.size < counts.size:
        np.add.at(counts, bins, 1)
    else:
        counts += np.bincount(bins, minlength=counts.size)


def _quotients(tw: np.ndarray, bin_width: int, n_half: int) -> tuple[np.ndarray, np.ndarray]:
    """Quotients q and residues r of tw - tw[0] by bin_width, on the narrowest types that
    hold a window of n_half bins: int32 quotients where they and the slots, at most
    3 (n_half + 1) + 1 with quotient differences clipped to n_half + 1, lie below 2^31;
    residues on the smallest signed type that holds -bin_width."""
    span = (int(tw[-1]) - int(tw[0])) // bin_width
    q = np.empty(tw.size, np.int32 if max(span, 3 * n_half + 4) < 1 << 31 else np.int64)
    r = np.empty(tw.size, np.min_scalar_type(-bin_width))
    for j in range(0, tw.size, _PIECE):
        rel = tw[j:j + _PIECE] - tw[0]
        quotient = rel // bin_width
        q[j:j + _PIECE] = quotient
        quotient *= bin_width
        rel -= quotient
        r[j:j + _PIECE] = rel
    return q, r


def _clipped(x: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Quotient differences x clipped in place to the chunk's bound, n_half + 1 in an array
    of x's type: against it np.minimum takes its vector loop, which a scalar operand misses.
    The pairs past the window then land in the slots 3H + 1 to 3H + 4."""
    return np.minimum(x, bound[:x.size], out=x)


def _slice_ranks(q: np.ndarray, r: np.ndarray, size: int, n_half: int, bound: np.ndarray,
                 counts: np.ndarray) -> tuple[int, np.ndarray]:
    """Add the slots of the first `size` tags' pairs at ranks k = 1, 2, ... to counts while
    a share _DENSE of the tags stays inside the window; the last rank sliced and the tags
    still inside after it."""
    n_slots = 3 * n_half + 1
    slots, sign = np.empty(size, q.dtype), np.empty(size, r.dtype)
    k, m = 0, size
    while m and m >= _DENSE * size:
        k += 1
        n = min(size, q.size - k)  # the tags with a rank-k partner in q
        x = _slots(_clipped(np.subtract(q[k:k + n], q[:n], out=slots[:n]), bound),
                   np.subtract(r[k:k + n], r[:n], out=sign[:n]))
        past = int(counts[n_slots:].sum())
        _count(x, counts)
        m = n - int(counts[n_slots:].sum()) + past
    return k, np.flatnonzero(x < n_slots) if k else np.arange(size)


def _compact_ranks(q: np.ndarray, r: np.ndarray, k: int, inside: np.ndarray, n_half: int,
                   bound: np.ndarray, counts: np.ndarray) -> None:
    """Add the slots of the pairs past rank k of the tags `inside` (indices into the chunk's
    quotients q and residues r) to counts.  Each rank gathers every survivor's next
    partner, bins the pair and keeps the survivors still inside the window."""
    n_slots = 3 * n_half + 1
    partner, q0, r0 = inside + k, q[inside], r[inside]
    while partner.size:
        partner += 1
        if partner[-1] >= q.size:  # past q's end, past the window
            end = int(np.searchsorted(partner, q.size))
            partner, q0, r0 = partner[:end], q0[:end], r0[:end]
        x = _slots(_clipped(np.subtract(q[partner], q0), bound), np.subtract(r[partner], r0))
        _count(x, counts)
        # indices, not the mask itself: numpy indexes by a mask of mixed bits far slower
        keep = np.flatnonzero(x < n_slots)
        partner, q0, r0 = partner[keep], q0[keep], r0[keep]


def _slot_counts(t: np.ndarray, first: int, stop: int, lag_max: int,
                 bin_width: int) -> np.ndarray:
    """Slot histogram S[0..3H] (H = lag_max // bin_width) of the pairs i < j of sorted tags
    t with lag t[j] - t[i] <= lag_max whose earlier tag i lies in t[first:stop]; their
    partners may lie past stop."""
    n_half = lag_max // bin_width
    counts = np.zeros(3 * n_half + 5, dtype=np.int64)  # the last four for pairs past the window
    for i0 in range(first, stop, _CHUNK):
        i1 = min(i0 + _CHUNK, stop)
        # every partner of the chunk's tags, lag_max included, lies in tw
        tw = t[i0:int(np.searchsorted(t, _ahead(t[i1 - 1], lag_max), side="right"))]
        q, r = _quotients(tw, bin_width, n_half)
        bound = np.full(i1 - i0, n_half + 1, q.dtype)  # the chunk's `_clipped` bound
        k, inside = _slice_ranks(q, r, i1 - i0, n_half, bound, counts)
        if inside.size:
            # the tags still inside after rank k go on by compaction
            _compact_ranks(q, r, k, inside, n_half, bound, counts)
    return counts[:3 * n_half + 1]


def _mirrored(slots: np.ndarray) -> np.ndarray:
    """An auto-correlation's histogram over [-lag_max, lag_max) from its slots: forward bin
    b sums slots 3b to 3b + 2, the b-th bin left of zero slots 3b + 1 to 3b + 3, and the
    equal tags of slot 0 pair both ways at lag 0."""
    inner = slots[1::3] + slots[2::3]
    counts = np.empty(2 * inner.size, dtype=np.int64)
    np.add(inner, slots[:-1:3], out=counts[inner.size:])
    np.add(inner, slots[3::3], out=counts[inner.size - 1::-1])
    counts[inner.size] += slots[0]
    return counts


def _summed(count, blocks: list, beside=None) -> np.ndarray:
    """The sum of the histograms count(block), None for none, over the blocks on every usable
    core: each is added to one running total as it ends, so at most one per thread is held.
    beside(), if given, runs first on the calling thread while the other cores take blocks."""
    total = None
    lock = threading.Lock()

    def add(block) -> None:
        nonlocal total
        if block is beside:
            beside()
            return
        counts = count(block)
        if counts is not None:
            with lock:
                if total is None:
                    total = counts
                else:
                    total += counts

    _map_on_threads(add, blocks if beside is None else [beside, *blocks], _usable_cores())
    return total


def _validate_window(lag_max: int, bin_width: int) -> int:
    """lag_max as an int, once it is a positive whole number of bins."""
    if bin_width <= 0:
        raise ValueError(f"bin_width must be > 0 ps, got {bin_width!r}")
    if lag_max <= 0 or lag_max % bin_width:
        raise ValueError(f"lag_max must be a positive whole number of bins, got {lag_max!r}")
    return int(lag_max)


def cross_correlate(a: TimeTagStream | ChannelTags, b: TimeTagStream | None, lag_max: int,
                    bin_width: int, beside=None) -> CorrelationHistogram:
    """Correlate channel A against channel B over lags [-lag_max, lag_max) ps.

    `a` and `b` are the two channels' streams, or `a` is the ChannelTags of
    both and `b` is None.  The window must hold a whole number of bins on
    each side, and lag_max may be at most 2^62 ps.  Every pair in the window
    is counted, which keeps the estimator unbiased at any rate.  The counting
    runs in time blocks of the pooled stream on every usable core, with
    counts that do not depend on their number; each block copies out its own
    A tags and the B tags their window reaches, so neither channel is copied
    whole.  `beside`, a callable of no arguments, shares those cores: the
    calling thread runs it before it takes any block, and its error, if it
    fails, is the one raised.  It must not start a threaded stage of its own,
    which would run beside the blocks' threads on cores they already use.
    """
    tags = a if b is None else ChannelTags.pool(a, b)
    n_a, n_b = tags.counts
    if n_a == 0 or n_b == 0:
        raise EmptyStream("both channels need at least one tag")
    lag_max = _validate_window(lag_max, bin_width)
    if lag_max > 1 << 62:
        # past it the window's span, 2 lag_max, overruns the int64 clock, and so would a
        # pair's offset from its window's start
        raise ValueError(f"a cross window's lag_max must be at most 2^62 ps, got {lag_max!r}")
    t, on_b = tags.pooled.tags, tags.on_b

    def count(block: tuple[int, int]) -> np.ndarray | None:
        first, stop = block
        ta = np.compress(~on_b[first:stop], t[first:stop])
        if ta.size == 0:
            return None
        # the B tags in reach of the block's A tags
        lo = int(np.searchsorted(t, ta[0] - lag_max, side="left"))
        hi = int(np.searchsorted(t, _ahead(ta[-1], lag_max - 1), side="right"))
        return _pair_counts(ta, np.compress(on_b[lo:hi], t[lo:hi]), lag_max, bin_width)

    return CorrelationHistogram(
        counts=_summed(count, _time_blocks(t, tags.duration), beside),
        bin_width=bin_width,
        lag_max=lag_max,
        duration=tags.duration,
        rate_a=n_a / tags.duration * _PS_PER_SECOND,
        rate_b=n_b / tags.duration * _PS_PER_SECOND,
    )


def auto_correlate(a: TimeTagStream, lag_max: int, bin_width: int,
                   beside=None) -> CorrelationHistogram:
    """Correlate a channel with itself over lags [-lag_max, lag_max) ps.

    Each tag's pairing with itself is excluded; pairs of distinct tags that
    happen to share a timestamp are kept.  The window must hold a whole
    number of bins on each side.  Only the pairs with lag in [0, lag_max]
    are counted, each once, in slots that give both its bin and its
    mirror's.  The counting runs in time blocks on every usable core, with
    counts that do not depend on their number; `beside` shares those cores,
    and must not start a threaded stage, as in `cross_correlate`.
    """
    if len(a) == 0:
        raise EmptyStream("channel has no tags")
    lag_max = _validate_window(lag_max, bin_width)
    t = a.tags
    # each block folds its own slots, so the blocks' results are no longer than the window
    return CorrelationHistogram(
        counts=_summed(lambda block: _mirrored(_slot_counts(t, *block, lag_max, bin_width)),
                       _time_blocks(t, a.duration), beside),
        bin_width=bin_width,
        lag_max=lag_max,
        duration=a.duration,
        rate_a=a.rate_hz,
        rate_b=a.rate_hz,
    )
