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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyStream, UnsortedInput

__all__ = [
    "TimeTagStream",
    "CorrelationHistogram",
    "cross_correlate",
    "auto_correlate",
]

_PS_PER_SECOND = 1_000_000_000_000
# tags of ta correlated per pass; the per-step arrays are this long at most
_CHUNK = 1 << 15
# below this many tags left in a rank step, their remaining pairs are expanded at once
_TAIL = 64
# below this share of an auto chunk still inside the window, rank steps take over from slices
_DENSE = 1 / 3


@dataclass(frozen=True)
class TimeTagStream:
    """Non-decreasing int64 tags in ps from one detector channel."""

    tags: np.ndarray
    channel_label: str
    duration: int  # ps

    def __post_init__(self) -> None:
        tags = np.asarray(self.tags, dtype=np.int64)
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "duration", int(self.duration))
        if tags.ndim != 1:
            raise ValueError("tags must be a 1-d array")
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0 ps, got {self.duration!r}")
        if tags.size:
            if np.any(tags[1:] < tags[:-1]):
                raise UnsortedInput(f"channel {self.channel_label}: tags are not sorted")
            if tags[0] < 0 or tags[-1] > self.duration:
                raise ValueError("tags must lie within [0, duration]")

    def __len__(self) -> int:
        return int(self.tags.size)

    @property
    def rate_hz(self) -> float:
        return self.tags.size / self.duration * _PS_PER_SECOND


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


def _forward_pair_counts(t: np.ndarray, lag_max: int, bin_width: int) -> np.ndarray:
    """Histogram of lags t[j] - t[i], i < j, inside [0, lag_max) of sorted tags t."""
    n_bins = lag_max // bin_width
    counts = np.zeros(n_bins, dtype=np.int64)
    for i0 in range(0, t.size, _CHUNK):
        i1 = min(i0 + _CHUNK, t.size)
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
    compacted a chunk at a time, so they are the one tag-sized array.
    """
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


def _validate_window(lag_max: int, bin_width: int) -> int:
    """lag_max as an int, once it is a positive whole number of bins."""
    if bin_width <= 0:
        raise ValueError(f"bin_width must be > 0 ps, got {bin_width!r}")
    if lag_max <= 0 or lag_max % bin_width:
        raise ValueError(f"lag_max must be a positive whole number of bins, got {lag_max!r}")
    return int(lag_max)


def cross_correlate(a: TimeTagStream, b: TimeTagStream, lag_max: int,
                    bin_width: int) -> CorrelationHistogram:
    """Correlate two channels over lags [-lag_max, lag_max) ps.

    The window must hold a whole number of bins on each side.  Every pair in
    the window is counted, which keeps the estimator unbiased at any rate.
    """
    if len(a) == 0 or len(b) == 0:
        raise EmptyStream("both channels need at least one tag")
    lag_max = _validate_window(lag_max, bin_width)
    counts = _pair_counts(a.tags, b.tags, -lag_max, lag_max, bin_width)
    duration = min(a.duration, b.duration)
    return CorrelationHistogram(
        counts=counts,
        bin_width=bin_width,
        lag_max=lag_max,
        duration=duration,
        rate_a=len(a) / duration * _PS_PER_SECOND,
        rate_b=len(b) / duration * _PS_PER_SECOND,
    )


def auto_correlate(a: TimeTagStream, lag_max: int, bin_width: int) -> CorrelationHistogram:
    """Correlate a channel with itself over lags [-lag_max, lag_max) ps.

    Each tag's pairing with itself is excluded; pairs of distinct tags that
    happen to share a timestamp are kept.  The window must hold a whole
    number of bins on each side.  Only the pairs with lag in [0, lag_max)
    are counted; the negative half is their mirror image, corrected for the
    pairs whose lag sits exactly on a bin edge.
    """
    if len(a) == 0:
        raise EmptyStream("channel has no tags")
    lag_max = _validate_window(lag_max, bin_width)
    forward = _forward_pair_counts(a.tags, lag_max, bin_width)
    exact = _exact_lag_counts(a.tags, lag_max // bin_width, bin_width)
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
