"""Second-order correlation estimation from detector time tags.

All times are integer picoseconds.  The estimator counts every ordered pair
(a, b) whose lag b - a falls inside the window and bins it on a uniform
grid of half-open bins [edge, edge + bin_width); normalising by the
uncorrelated-pair expectation rate_a * rate_b * duration * bin_width turns
counts into g2 with Poisson error bars sqrt(counts) on the same scale.

Pairs are counted by stepping over partner rank rather than by listing
them.  For a chunk of channel-A tags, two binary searches give each tag's
first partner lo and its number of partners in the window.  Ordered by that
number, descending, the tags with more than k partners form a prefix, and
their (k+1)-th partners are the gather tb[lo + k] over that prefix: one
gather, one subtraction, one floor division and one bincount per rank k.
Once fewer than a small fixed number of tags remain, their remaining pairs
are listed in one go, so a burst tag with many partners costs no more Python
steps than the ranks before it.  The cost is O(pairs), and each step holds
O(chunk) memory whatever the window.
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
            if np.any(np.diff(tags) < 0):
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
    """Binned pair counts plus their g2 normalisation.

    Bin k covers lags [lag_min + k*bin_width, lag_min + (k+1)*bin_width) ps.
    rate_a/rate_b are the channel rates in Hz used for normalisation; g2
    and sigma are always derived from the counts and these.
    """

    counts: np.ndarray
    bin_width: int
    lag_min: int
    lag_max: int
    duration: int
    rate_a: float
    rate_b: float

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if self.bin_width <= 0 or self.lag_max <= self.lag_min:
            raise ValueError("need bin_width > 0 and lag_max > lag_min")
        n_bins = (self.lag_max - self.lag_min) // self.bin_width
        if (self.lag_max - self.lag_min) % self.bin_width:
            raise ValueError("window must be an integer number of bins")
        if counts.shape != (n_bins,):
            raise ValueError(f"expected {n_bins} bins, got shape {counts.shape}")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        if not self._uncorrelated_pairs > 0.0:
            raise ValueError("normalisation requires positive rates and duration")

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


def _pair_counts(
    ta: np.ndarray,
    tb: np.ndarray,
    lag_min: int,
    lag_max: int,
    bin_width: int,
    chunk: int,
) -> np.ndarray:
    """Histogram of lags tb[j] - ta[i] inside [lag_min, lag_max)."""
    n_bins = (lag_max - lag_min) // bin_width
    counts = np.zeros(n_bins, dtype=np.int64)
    for i0 in range(0, ta.size, chunk):
        start = ta[i0:i0 + chunk] + lag_min
        lo = np.searchsorted(tb, start, side="left")
        per = np.searchsorted(tb, start + (lag_max - lag_min), side="left") - lo
        # sorted by partner count, descending, the tags with more than k
        # partners form a prefix of length m_k; a stable sort keeps each
        # count's tags in time order, and on the narrowest integer type that
        # holds the counts it is a radix sort
        neg_per = -per
        order = np.argsort(neg_per.astype(np.min_scalar_type(neg_per.min())), kind="stable")
        neg_per, lo, start = neg_per[order], lo[order], start[order]
        k = 0
        m = int(np.searchsorted(neg_per, 0, side="left"))
        while m >= _TAIL:
            lags = tb[lo[:m] + k]
            lags -= start[:m]
            lags //= bin_width
            counts += np.bincount(lags, minlength=n_bins)
            k += 1
            m = int(np.searchsorted(neg_per, -k, side="left"))
        if m == 0:
            continue
        # the few tags with many partners left: expand their pairs at once
        rest = -k - neg_per[:m]
        total = int(rest.sum())
        offsets = np.repeat(np.cumsum(rest) - rest, rest)
        partner = np.arange(total, dtype=np.int64) - offsets + np.repeat(lo[:m] + k, rest)
        lags = tb[partner] - np.repeat(start[:m], rest)
        counts += np.bincount(lags // bin_width, minlength=n_bins)
    return counts


def _validate_window(lag_max: int, lag_min: int | None, bin_width: int) -> tuple[int, int]:
    if bin_width <= 0:
        raise ValueError(f"bin_width must be > 0 ps, got {bin_width!r}")
    if lag_min is None:
        lag_min = -int(lag_max)
    if lag_max <= lag_min:
        raise ValueError("lag_max must exceed lag_min")
    if (lag_max - lag_min) % bin_width:
        raise ValueError("lag window must divide evenly into bins")
    return int(lag_min), int(lag_max)


def cross_correlate(
    a: TimeTagStream,
    b: TimeTagStream,
    lag_max: int,
    bin_width: int,
    *,
    lag_min: int | None = None,
    _chunk: int = _CHUNK,
) -> CorrelationHistogram:
    """Correlate two channels over lags [lag_min, lag_max) ps.

    lag_min defaults to -lag_max (symmetric window).  Every pair in the
    window is counted, which keeps the estimator unbiased at any rate.
    """
    if len(a) == 0 or len(b) == 0:
        raise EmptyStream("both channels need at least one tag")
    lag_min, lag_max = _validate_window(lag_max, lag_min, bin_width)
    counts = _pair_counts(a.tags, b.tags, lag_min, lag_max, bin_width, _chunk)
    duration = min(a.duration, b.duration)
    return CorrelationHistogram(
        counts=counts,
        bin_width=bin_width,
        lag_min=lag_min,
        lag_max=lag_max,
        duration=duration,
        rate_a=len(a) / duration * _PS_PER_SECOND,
        rate_b=len(b) / duration * _PS_PER_SECOND,
    )


def auto_correlate(
    a: TimeTagStream,
    lag_max: int,
    bin_width: int,
    *,
    lag_min: int | None = None,
    _chunk: int = _CHUNK,
) -> CorrelationHistogram:
    """Correlate a channel with itself, excluding each tag's pairing with itself.

    Pairs of distinct tags that happen to share a timestamp are kept.
    """
    if len(a) == 0:
        raise EmptyStream("channel has no tags")
    lag_min_r, lag_max_r = _validate_window(lag_max, lag_min, bin_width)
    counts = _pair_counts(a.tags, a.tags, lag_min_r, lag_max_r, bin_width, _chunk)
    if lag_min_r <= 0 < lag_max_r:
        counts[(0 - lag_min_r) // bin_width] -= len(a)  # remove i = j pairs
    return CorrelationHistogram(
        counts=counts,
        bin_width=bin_width,
        lag_min=lag_min_r,
        lag_max=lag_max_r,
        duration=a.duration,
        rate_a=a.rate_hz,
        rate_b=a.rate_hz,
    )
