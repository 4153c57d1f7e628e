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
first tag's earliest partner and its last tag's latest one; two scalar
searches locate that slice, and the per-tag searches run inside it.  They
give each tag's first partner lo and its number of partners in the window.
Ordered by that number, descending, the tags with more than k partners form
a prefix, and their (k+1)-th partners are the gather tb[k:][lo] over that
prefix: one gather, one subtraction, one floor division and one bincount per
rank k.  Once fewer than a small fixed number of tags remain, their
remaining pairs are listed in one go, so a burst tag with many partners
costs no more Python steps than the ranks before it.  The cost is O(pairs),
and each step holds O(chunk) memory whatever the window.

An auto-correlation counts each pair once, in one sorted stream t where
tag i's partner at rank k is tag i + k.  While at least a fixed share of a
chunk still has a partner in the window, rank k is the slice difference
t[i0+k:i1+k] - t[i0:i1], floored, clipped into one overflow bin and
bincounted: no search, sort or gather.  The tags still inside once the chunk
thins out go on through the rank-stepped loop above, which then searches
for their partners only.  This gives the histogram G of the pairs i < j
with lag in [0, lag_max).  The window is symmetric with whole bins per
side.  Mirrored, a lag d > 0 lands in the k-th bin left of zero for d in
(k*w, (k+1)*w], so that bin holds G[k] - E[k] + E[k+1], where E[k] counts
the pairs i < j whose lag is exactly k*w; equal tags pair both ways, so
bin 0 of the positive half holds G[0] + E[0].  Pairs at lag exactly k*w
share t mod w, so E comes from the same kernel at unit bins over sorted
keys (t mod w, t div w), restricted to the few keys that have a neighbour
within the window.

Both correlators run in time blocks of the pooled stream of both channels
on every usable core, under one rule (`montecarlo._time_blocks`): a fixed
number of equal-duration blocks, or a single block on the calling thread
for a stream of at most one chunk (`montecarlo._BLOCKED_MIN`).  A cross
block owns the pairs whose A tag lies in it: it copies out its A tags and
the B tags within lag_max of them, so neither channel is copied whole.  An
auto block owns the pairs whose earlier tag lies in it, reading its
partners past the block's end in the carried window, the tags within
lag_max of the block's last.  Its share of E is E over the block and the
carried window less E over the carried window alone, the pairs both of
whose tags lie beyond the block.  The blocks' int64 histograms add up to
the whole stream's whatever the order, so the counts do not depend on the
thread count.

A channel is the one stream type of the whole run, `montecarlo.TimeTagStream`
(sorted int64 ps over [0, duration]), which this module exports.  An
acquisition's two channels travel as one `ChannelTags`: the time-ordered
tags of both and a mask of B's, A's first at equal tags (`_a_first_at_ties`,
the one rule for the router and `ChannelTags.pool`).  Both correlators read
it as it is; a whole channel is copied out only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyStream
from .montecarlo import _PS_PER_SECOND, TimeTagStream, _map_on_threads, _time_blocks, _usable_cores

__all__ = [
    "TimeTagStream",
    "ChannelTags",
    "CorrelationHistogram",
    "cross_correlate",
    "auto_correlate",
]

# tags of ta correlated per pass; the per-step arrays are this long at most
_CHUNK = 1 << 15
# below this many tags left in a rank step, their remaining pairs are expanded at once
_TAIL = 64
# below this share of an auto chunk still inside the window, rank steps take over from slices
_DENSE = 1 / 3


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
    ties = np.flatnonzero(tags[1:] == tags[:-1])
    if ties.size:
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


def _pair_counts(ta: np.ndarray, tb: np.ndarray, lag_min: int, lag_max: int,
                 bin_width: int) -> np.ndarray:
    """Histogram of lags tb[j] - ta[i] inside [lag_min, lag_max)."""
    counts = np.zeros((lag_max - lag_min) // bin_width, dtype=np.int64)
    for i0 in range(0, ta.size, _CHUNK):
        start = ta[i0:i0 + _CHUNK] + lag_min
        # the chunk's partners all lie in tb[j0:j1]; search only there
        j0 = int(np.searchsorted(tb, start[0], side="left"))
        j1 = int(np.searchsorted(tb, start[-1] + (lag_max - lag_min), side="left"))
        tw = tb[j0:j1]
        lo = np.searchsorted(tw, start, side="left")
        per = np.searchsorted(tw, start + (lag_max - lag_min), side="left") - lo
        _step_ranks(tw, start, lo, per, bin_width, counts)
    return counts


def _step_ranks(tw: np.ndarray, start: np.ndarray, lo: np.ndarray, per: np.ndarray,
                bin_width: int, counts: np.ndarray) -> None:
    """Add the lags tw[lo[i] + k] - start[i], k < per[i], to counts at bin_width."""
    # sorted by partner count, descending, the tags with more than k partners
    # form a prefix of length m_k; a stable sort keeps each count's tags in
    # time order, and on the narrowest integer type that holds the counts it
    # is a radix sort
    neg_per = -per
    order = np.argsort(neg_per.astype(np.min_scalar_type(neg_per.min())), kind="stable")
    neg_per, lo, start = neg_per[order], lo[order], start[order]
    k = 0
    m = int(np.searchsorted(neg_per, 0, side="left"))
    while m >= _TAIL:
        lags = tw[k:][lo[:m]]
        lags -= start[:m]
        lags //= bin_width
        counts += np.bincount(lags, minlength=counts.size)
        k += 1
        m = int(np.searchsorted(neg_per, -k, side="left"))
    if m == 0:
        return
    # the few tags with many partners left: expand their pairs at once
    rest = -k - neg_per[:m]
    total = int(rest.sum())
    offsets = np.repeat(np.cumsum(rest) - rest, rest)
    partner = np.arange(total, dtype=np.int64) - offsets + np.repeat(lo[:m] + k, rest)
    lags = tw[partner] - np.repeat(start[:m], rest)
    counts += np.bincount(lags // bin_width, minlength=counts.size)


def _forward_pair_counts(t: np.ndarray, lag_max: int, bin_width: int,
                         first: int = 0, stop: int | None = None) -> np.ndarray:
    """Histogram of lags t[j] - t[i], i < j, inside [0, lag_max) of sorted tags t.

    Only the pairs whose earlier tag i lies in [first, stop) are counted;
    their partners may lie past stop.
    """
    stop = t.size if stop is None else stop
    n_bins = lag_max // bin_width
    counts = np.zeros(n_bins, dtype=np.int64)
    for i0 in range(first, stop, _CHUNK):
        i1 = min(i0 + _CHUNK, stop)
        # tag i's partner at rank k is tag i + k: while enough of the chunk
        # is still inside the window, rank k is one slice difference, and the
        # lags that have left it pile up in an overflow bin
        k, m = 0, i1 - i0
        while m and m >= _DENSE * (i1 - i0):
            k += 1
            end = min(i1, t.size - k)  # the chunk's tags that have a rank-k partner
            lags = t[i0 + k:end + k] - t[i0:end]
            lags //= bin_width
            np.minimum(lags, n_bins, out=lags)
            binned = np.bincount(lags, minlength=n_bins + 1)
            counts += binned[:n_bins]
            m = end - i0 - int(binned[n_bins])
        if m == 0:
            continue
        # the tags still inside after rank k go on by rank steps over the
        # slice their partners can reach
        inside = np.arange(i1 - i0) if k == 0 else np.flatnonzero(lags < n_bins)
        tw = t[i0:int(np.searchsorted(t, t[i1 - 1] + lag_max, side="left"))]
        start = tw[inside]
        lo = inside + (k + 1)
        per = np.searchsorted(tw, start + lag_max, side="left") - lo
        _step_ranks(tw, start, lo, per, bin_width, counts)
    return counts


def _exact_lag_counts(tags: np.ndarray, n_half: int, bin_width: int) -> np.ndarray:
    """Pairs i < j with lag exactly k * w (w = bin_width), k = 0..n_half.

    Such pairs share their residue t mod w and differ by k in t div w.  On
    the keys (t mod w) * stride + (t div w), with stride above the largest
    quotient plus n_half, keys of different residues differ by more than
    n_half, so these are the pairs whose keys differ by k.  Only keys with
    a neighbour within n_half can pair.  The keys are built, tested and
    compacted a chunk at a time, so they are the one array as long as tags.
    """
    if tags.size == 0:
        return np.zeros(n_half + 1, dtype=np.int64)
    stride = int(tags[-1]) // bin_width + n_half + 1
    keys = np.empty_like(tags)
    for i0 in range(0, tags.size, _CHUNK):
        block = keys[i0:i0 + _CHUNK]
        np.remainder(tags[i0:i0 + _CHUNK], bin_width, out=block)
        block *= stride
        block += tags[i0:i0 + _CHUNK] // bin_width
    keys.sort()
    near = np.zeros(keys.size, dtype=bool)
    for i0 in range(0, keys.size - 1, _CHUNK):
        i1 = min(i0 + _CHUNK, keys.size - 1)
        close = keys[i0 + 1:i1 + 1] - keys[i0:i1] <= n_half
        near[i0:i1] |= close
        near[i0 + 1:i1 + 1] |= close
    # a kept key never moves right, so the keys compact in place
    kept = 0
    for i0 in range(0, keys.size, _CHUNK):
        block = keys[i0:i0 + _CHUNK][near[i0:i0 + _CHUNK]]
        keys[kept:kept + block.size] = block
        kept += block.size
    del near
    return _forward_pair_counts(keys[:kept], n_half + 1, 1)


def _block_counts(t: np.ndarray, first: int, stop: int, lag_max: int,
                  bin_width: int) -> tuple[np.ndarray, np.ndarray]:
    """Forward and exact-lag counts of the pairs whose earlier tag lies in t[first:stop]."""
    n_half = lag_max // bin_width
    # the carried window: every tag past the block within lag_max of its last, lag_max included
    carried = int(np.searchsorted(t, t[stop - 1] + lag_max, side="right"))
    forward = _forward_pair_counts(t, lag_max, bin_width, first, stop)
    exact = _exact_lag_counts(t[first:carried], n_half, bin_width) \
        - _exact_lag_counts(t[stop:carried], n_half, bin_width)
    return forward, exact


def _validate_window(lag_max: int, bin_width: int) -> int:
    """lag_max as an int, once it is a positive whole number of bins."""
    if bin_width <= 0:
        raise ValueError(f"bin_width must be > 0 ps, got {bin_width!r}")
    if lag_max <= 0 or lag_max % bin_width:
        raise ValueError(f"lag_max must be a positive whole number of bins, got {lag_max!r}")
    return int(lag_max)


def cross_correlate(a: TimeTagStream | ChannelTags, b: TimeTagStream | None, lag_max: int,
                    bin_width: int) -> CorrelationHistogram:
    """Correlate channel A against channel B over lags [-lag_max, lag_max) ps.

    `a` and `b` are the two channels' streams, or `a` is the ChannelTags of
    both and `b` is None.  The window must hold a whole number of bins on
    each side.  Every pair in the window is counted, which keeps the
    estimator unbiased at any rate.  The counting runs in time blocks of the
    pooled stream on every usable core, with counts that do not depend on
    their number; each block copies out its own A tags and the B tags their
    window reaches, so neither channel is copied whole.
    """
    tags = a if b is None else ChannelTags.pool(a, b)
    n_a, n_b = tags.counts
    if n_a == 0 or n_b == 0:
        raise EmptyStream("both channels need at least one tag")
    lag_max = _validate_window(lag_max, bin_width)
    t, on_b = tags.pooled.tags, tags.on_b

    def count(block: tuple[int, int]) -> np.ndarray:
        first, stop = block
        ta = np.compress(~on_b[first:stop], t[first:stop])
        if ta.size == 0:
            return np.zeros(2 * lag_max // bin_width, dtype=np.int64)
        # the B tags in reach of the block's A tags
        lo, hi = np.searchsorted(t, [ta[0] - lag_max, ta[-1] + lag_max]).tolist()
        return _pair_counts(ta, np.compress(on_b[lo:hi], t[lo:hi]), -lag_max, lag_max, bin_width)

    parts = _map_on_threads(count, _time_blocks(t, tags.duration), _usable_cores())
    return CorrelationHistogram(
        counts=np.sum(parts, axis=0),
        bin_width=bin_width,
        lag_max=lag_max,
        duration=tags.duration,
        rate_a=n_a / tags.duration * _PS_PER_SECOND,
        rate_b=n_b / tags.duration * _PS_PER_SECOND,
    )


def auto_correlate(a: TimeTagStream, lag_max: int, bin_width: int) -> CorrelationHistogram:
    """Correlate a channel with itself over lags [-lag_max, lag_max) ps.

    Each tag's pairing with itself is excluded; pairs of distinct tags that
    happen to share a timestamp are kept.  The window must hold a whole
    number of bins on each side.  Only the pairs with lag in [0, lag_max)
    are counted; the negative half is their mirror image, corrected for the
    pairs whose lag sits exactly on a bin edge.  The counting runs in time
    blocks on every usable core, with counts that do not depend on their number.
    """
    if len(a) == 0:
        raise EmptyStream("channel has no tags")
    lag_max = _validate_window(lag_max, bin_width)
    t = a.tags
    parts = _map_on_threads(lambda block: _block_counts(t, *block, lag_max, bin_width),
                            _time_blocks(t, a.duration), _usable_cores())
    forward, exact = (np.sum(counts, axis=0) for counts in zip(*parts))
    # the mirror -d of a lag d > 0 falls in the k-th bin left of zero for d
    # in (k*w, (k+1)*w]: forward bin k, less the lag k*w, plus the lag (k+1)*w
    backward = forward - exact[:-1] + exact[1:]
    forward[0] += exact[0]  # equal tags pair both ways at lag 0: add the pairs j < i
    return CorrelationHistogram(
        counts=np.concatenate([backward[::-1], forward]),
        bin_width=bin_width,
        lag_max=lag_max,
        duration=a.duration,
        rate_a=a.rate_hz,
        rate_b=a.rate_hz,
    )
