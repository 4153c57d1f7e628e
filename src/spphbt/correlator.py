"""Second-order correlation estimation from detector time tags.

All times are integer picoseconds.  The estimator counts every ordered pair
(a, b) whose lag b - a falls inside the window and bins it on a uniform
grid of half-open bins [edge, edge + bin_width); normalising by the
uncorrelated-pair expectation rate_a * rate_b * duration * bin_width turns
counts into g2 with Poisson error bars sqrt(counts) on the same scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyStream, SymmetryViolation, UnsortedInput

__all__ = [
    "TimeTagStream",
    "CorrelationHistogram",
    "cross_correlate",
    "auto_correlate",
    "swap_symmetry_check",
]

_PS_PER_SECOND = 1_000_000_000_000


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
    rate_a/rate_b are the channel rates in Hz used for normalisation.
    """

    counts: np.ndarray
    bin_width: int
    lag_min: int
    lag_max: int
    duration: int
    rate_a: float
    rate_b: float
    g2: np.ndarray = field(default=None)
    sigma: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        n_bins = (self.lag_max - self.lag_min) // self.bin_width
        if self.bin_width <= 0 or self.lag_max <= self.lag_min:
            raise ValueError("need bin_width > 0 and lag_max > lag_min")
        if (self.lag_max - self.lag_min) % self.bin_width:
            raise ValueError("window must be an integer number of bins")
        if counts.shape != (n_bins,):
            raise ValueError(f"expected {n_bins} bins, got shape {counts.shape}")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        if self.g2 is None:
            # pairs expected in one bin if the channels were independent
            denom = (self.rate_a / _PS_PER_SECOND) * (self.rate_b / _PS_PER_SECOND) \
                * self.duration * self.bin_width
            if denom <= 0.0:
                raise ValueError("normalisation requires positive rates and duration")
            object.__setattr__(self, "g2", counts / denom)
            object.__setattr__(self, "sigma", np.sqrt(counts) / denom)
        else:
            object.__setattr__(self, "g2", np.asarray(self.g2, dtype=float))
            object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))

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
        sub = ta[i0:i0 + chunk]
        lo = np.searchsorted(tb, sub + lag_min, side="left")
        hi = np.searchsorted(tb, sub + lag_max, side="left")
        per = hi - lo
        total = int(per.sum())
        if total == 0:
            continue
        # flat index of every partner of every tag in this chunk
        offsets = np.repeat(np.cumsum(per) - per, per)
        partner = np.arange(total, dtype=np.int64) - offsets + np.repeat(lo, per)
        lags = tb[partner] - np.repeat(sub, per)
        counts += np.bincount((lags - lag_min) // bin_width, minlength=n_bins)
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
    _chunk: int = 1 << 15,
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
    _chunk: int = 1 << 15,
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


def swap_symmetry_check(h_ab: CorrelationHistogram, h_ba: CorrelationHistogram) -> dict:
    """Verify that swapping the inputs mirrors the histogram, counts_ab[k] == counts_ba[n-k].

    The identity is exact for 1 ps bins (each bin holds a single integer
    lag, and negation maps it onto its mirror bin).  For wider bins a pair
    sitting exactly on a bin edge legitimately lands one bin off after the
    swap, so run this check on 1 ps binning.  The two lowest bins have no
    mirror partner inside the window and are skipped; for a single-bin
    histogram the bin is compared with itself.

    Returns a small report dict; raises SymmetryViolation on mismatch.
    """
    for attr in ("bin_width", "lag_min", "lag_max", "duration"):
        if getattr(h_ab, attr) != getattr(h_ba, attr):
            raise ValueError(f"histograms disagree on {attr}")
    n = h_ab.n_bins
    if n == 1:
        ks = np.array([0])
        mirrored = h_ba.counts
    else:
        ks = np.arange(1, n)
        mirrored = h_ba.counts[n - ks]
    diff = h_ab.counts[ks] - mirrored
    bad = np.nonzero(diff)[0]
    if bad.size:
        edges = h_ab.lag_edges[ks[bad]]
        raise SymmetryViolation(
            f"{bad.size} mirrored bins disagree, first at lag edge {edges[0]} ps "
            f"({h_ab.counts[ks[bad][0]]} vs {mirrored[bad[0]]})")
    return {
        "checked_bins": int(ks.size),
        "max_abs_diff": 0,
        "total_pairs": int(h_ab.counts[ks].sum()),
        "ok": True,
    }
