"""Pair-counting correlator: exact oracles, symmetry, and normalisation.

The rank-stepping estimator is checked bin-exactly against an O(n^2)
brute-force oracle on small inputs, so statistical tolerances only appear in
the Poisson baseline tests.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rate_oracles import SymmetryViolation, swap_symmetry_check
from spphbt import correlator, montecarlo
from spphbt.correlator import (
    ChannelTags,
    CorrelationHistogram,
    TimeTagStream,
    auto_correlate,
    cross_correlate,
)
from spphbt.errors import EmptyStream, UnsortedInput
from thread_checks import meeting


def brute_force_counts(ta, tb, lag_min, lag_max, bin_width, drop_diagonal=False,
                       forward_only=False):
    """All ordered pair lags tb[i] - ta[j], binned the slow and obvious way.

    drop_diagonal drops the pairs i = j, forward_only keeps only i > j.
    """
    ta = np.asarray(ta, dtype=np.int64)
    tb = np.asarray(tb, dtype=np.int64)
    lags = tb[:, None] - ta[None, :]
    if drop_diagonal:
        keep = ~np.eye(len(tb), len(ta), dtype=bool)
        lags = lags[keep]
    if forward_only:
        lags = lags[np.tri(len(tb), len(ta), k=-1, dtype=bool)]
    lags = lags.ravel()
    lags = lags[(lags >= lag_min) & (lags < lag_max)]
    n_bins = (lag_max - lag_min) // bin_width
    return np.bincount((lags - lag_min) // bin_width, minlength=n_bins)


def forward_bins(slots):
    """The forward half of an auto-correlation's slot histogram: bin b holds slots 3b to 3b + 2."""
    return slots[:-1:3] + slots[1::3] + slots[2::3]


# the int64 clock's last picosecond
CLOCK_TOP = (1 << 63) - 1


def stream(tags, duration, label="a"):
    return TimeTagStream(np.asarray(tags, dtype=np.int64), label, duration)


class TestTimeTagStream:
    def test_rate_hz(self):
        s = stream(np.arange(100) * 1000, 1_000_000_000)
        assert s.rate_hz == pytest.approx(1e5)

    def test_rejects_unsorted(self):
        with pytest.raises(UnsortedInput):
            stream([5, 3], 10)

    @pytest.mark.parametrize("tags,duration", [
        ([-1, 3], 10),       # negative tag
        ([3, 11], 10),       # beyond duration
        ([1, 2], 0),         # empty window
        ([[1, 2]], 10),      # not 1-d
    ])
    def test_rejects_invalid(self, tags, duration):
        with pytest.raises(ValueError):
            stream(tags, duration)

    def test_empty_stream_is_constructible(self):
        assert len(stream([], 10)) == 0

    def test_rejects_fractional_picoseconds(self):
        # truncating would read a time in ns as a ps tag without a word
        for tags, duration in [([1.7, 2.9, 5.5], 10), ([1, 2, 5], 10.9), ([1.0, np.nan], 10),
                               ([1.0, np.inf], 10), ([1e30], 10), ([1, 2], np.inf)]:
            with pytest.raises(ValueError, match="whole picoseconds"):
                TimeTagStream(np.array(tags), "A", duration)
        whole = TimeTagStream(np.array([1.0, 2.0, 5.0]), "A", 10.0)
        assert whole.tags.dtype == np.int64 and whole.tags.tolist() == [1, 2, 5]
        assert whole.duration == 10 and isinstance(whole.duration, int)
        assert len(TimeTagStream(np.array([]), "A", 10)) == 0


class TestStreamChecks:
    """The order check and the tie search, which compare neighbouring tags a block at a time."""

    @staticmethod
    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_no_check_holds_a_byte_per_tag(self):
        # 8 M sorted tags, 7.6 MiB of bools had either check compared them whole
        tags = np.arange(1 << 23, dtype=np.int64)
        tags[5_000:5_010] = 5_000
        on_b = np.zeros(tags.size, dtype=bool)
        on_b[5_000] = True
        # once untraced: numpy's one-off allocations on a first call are not the search's
        correlator._a_first_at_ties(tags[4_990:5_020], on_b[4_990:5_020].copy())
        assert self.traced_peak(TimeTagStream, tags, "A+B", 1 << 23) <= 2**20
        assert self.traced_peak(correlator._a_first_at_ties, tags, on_b) <= 2**20
        assert on_b[5_009] and np.count_nonzero(on_b) == 1

    @settings(max_examples=300, deadline=None)
    @given(tags=st.lists(st.integers(0, 6), max_size=30), block=st.integers(1, 5),
           on_b=st.lists(st.booleans(), min_size=30, max_size=30))
    def test_checks_match_the_whole_array_across_block_edges(self, tags, block, on_b):
        # few distinct values: falls and runs of equal tags fall on every block edge
        tags, on_b = np.array(tags, dtype=np.int64), np.array(on_b[:len(tags)])
        with patch.object(montecarlo, "_CHECK_BLOCK", block):
            if np.any(tags[1:] < tags[:-1]):
                with pytest.raises(UnsortedInput):
                    stream(tags, 6)
                tags.sort()
            stream(tags, 6)
            oracle = on_b[np.lexsort((on_b, tags))]
            correlator._a_first_at_ties(tags, on_b)
        assert np.array_equal(on_b, oracle)

    @pytest.mark.parametrize("edge", [3, 7])
    def test_a_fall_or_a_run_across_a_block_edge(self, edge):
        # blocks of 4 pairs: tags 0-4 and 4-8 are compared together, so the pairs
        # (3, 4) and (7, 8) are their blocks' last
        tags = np.arange(12, dtype=np.int64)
        fallen = tags.copy()
        fallen[edge + 1] -= 2
        run = tags.copy()
        run[edge - 1:edge + 3] = edge
        on_b = np.array([i in (edge - 1, edge) for i in range(12)])
        with patch.object(montecarlo, "_CHECK_BLOCK", 4):
            with pytest.raises(UnsortedInput):
                stream(fallen, 12)
            correlator._a_first_at_ties(run, on_b)
        assert np.flatnonzero(on_b).tolist() == [edge + 1, edge + 2]


class TestWorkedExample:
    """Three tags against two at 1 ns bins over a +-6 ns window."""

    def setup_method(self):
        self.a = stream([0, 10_000, 20_000], 25_000)
        self.b = stream([5_000, 15_000], 25_000)

    def test_all_pairs_land_at_plus_minus_5ns(self):
        h = cross_correlate(self.a, self.b, lag_max=6_000, bin_width=1_000)
        assert h.n_bins == 12
        expected = np.zeros(12, dtype=np.int64)
        expected[(-5_000 + 6_000) // 1_000] = 2
        expected[(5_000 + 6_000) // 1_000] = 2
        assert np.array_equal(h.counts, expected)


class TestAgainstBruteForce:
    def test_dense_random_tags_exact(self):
        rng = np.random.default_rng(3)
        ta = np.sort(rng.integers(0, 1_000, 600))
        tb = np.sort(rng.integers(0, 1_000, 500))
        h = cross_correlate(stream(ta, 1_000), stream(tb, 1_000),
                            lag_max=64, bin_width=4)
        oracle = brute_force_counts(ta, tb, -64, 64, 4)
        assert np.array_equal(h.counts, oracle)

    def test_window_holds_minus_lag_max_but_not_plus_lag_max(self):
        # lags -41, -40, 0, 39 and 40 around one A tag, by rank steps and by the tail
        ta = np.array([1_000])
        tb = 1_000 + np.array([-41, -40, 0, 39, 40])
        for tail in (1, 2):
            with patch.object(correlator, "_TAIL", tail):
                counts = correlator._pair_counts(ta, tb, 40, 8)
            assert counts.tolist() == [1, 0, 0, 0, 0, 1, 0, 0, 0, 1]
            assert np.array_equal(counts, brute_force_counts(ta, tb, -40, 40, 8))

    def test_chunk_size_does_not_change_counts(self):
        rng = np.random.default_rng(5)
        ta = np.sort(rng.integers(0, 10_000, 1_000))
        tb = np.sort(rng.integers(0, 10_000, 1_000))
        a, b = stream(ta, 10_000), stream(tb, 10_000)
        h_big = cross_correlate(a, b, lag_max=100, bin_width=10)
        with patch.object(correlator, "_CHUNK", 7):
            h_tiny = cross_correlate(a, b, lag_max=100, bin_width=10)
        assert np.array_equal(h_big.counts, h_tiny.counts)

    def test_auto_excludes_self_pairs_only(self):
        rng = np.random.default_rng(6)
        ta = np.sort(rng.integers(0, 2_000, 400))
        a = stream(ta, 2_000)
        h = auto_correlate(a, lag_max=50, bin_width=5)
        oracle = brute_force_counts(ta, ta, -50, 50, 5, drop_diagonal=True)
        assert np.array_equal(h.counts, oracle)

    def test_auto_equals_cross_minus_self(self):
        rng = np.random.default_rng(7)
        ta = np.sort(rng.integers(0, 2_000, 300))
        a = stream(ta, 2_000)
        h_auto = auto_correlate(a, lag_max=50, bin_width=5)
        h_cross = cross_correlate(a, a, lag_max=50, bin_width=5)
        fixed = h_cross.counts.copy()
        fixed[50 // 5] -= len(a)
        assert np.array_equal(h_auto.counts, fixed)

    @pytest.mark.parametrize("tags", [
        [CLOCK_TOP - 5_000, CLOCK_TOP - 3_000, CLOCK_TOP - 2_000, CLOCK_TOP],
        # lags on bin edges, the window's edge included
        [CLOCK_TOP - 5_000, CLOCK_TOP - 4_000, CLOCK_TOP - 1_000, CLOCK_TOP],
        # at both ends of the clock: the tags' quotients span it
        [0, 1_000, 2_500, CLOCK_TOP - 2_000, CLOCK_TOP - 1_000, CLOCK_TOP],
    ], ids=["top", "edges", "both_ends"])
    def test_counts_hold_at_the_int64_clock_top(self, tags):
        # a reach t + lag_max past 2^63 - 1 ps wrapped round and miscounted
        tags = np.array(tags, dtype=np.int64)
        on_b = np.arange(tags.size) % 2 == 1
        h = auto_correlate(stream(tags, CLOCK_TOP), lag_max=4_000, bin_width=1_000)
        oracle = brute_force_counts(tags, tags, -4_000, 4_000, 1_000, drop_diagonal=True)
        assert np.array_equal(h.counts, oracle)
        h = cross_correlate(ChannelTags(stream(tags, CLOCK_TOP), on_b), None,
                            lag_max=4_000, bin_width=1_000)
        oracle = brute_force_counts(tags[~on_b], tags[on_b], -4_000, 4_000, 1_000)
        assert oracle.sum() > 0
        assert np.array_equal(h.counts, oracle)

    @pytest.mark.parametrize("lag", [0, 1_000, 1 << 62, CLOCK_TOP], ids=["0", "1000", "2_62", "top"])
    def test_ahead_adds_the_lag_up_to_the_clock_top(self, lag):
        tags = np.array([0, 5, 1 << 62, CLOCK_TOP - 1_000, CLOCK_TOP], dtype=np.int64)
        expected = [min(t + lag, CLOCK_TOP) for t in tags.tolist()]
        ahead = correlator._ahead(tags, lag)
        assert ahead.dtype == np.int64 and ahead.tolist() == expected
        assert [int(correlator._ahead(t, lag)) for t in tags] == expected

    def test_bins_of_2_59_ps_over_the_whole_clock_are_counted(self):
        # no gap wider than the window: every lag is a multiple of 2^59 ps,
        # on a bin edge or on the window's ends
        tags = np.array([0, 1 << 61, 1 << 62, 3 << 61, CLOCK_TOP], dtype=np.int64)
        h = auto_correlate(stream(tags, CLOCK_TOP), lag_max=1 << 62, bin_width=1 << 59)
        oracle = brute_force_counts(tags, tags, -(1 << 62), 1 << 62, 1 << 59, drop_diagonal=True)
        assert oracle.sum() > 0
        assert np.array_equal(h.counts, oracle)

    @pytest.mark.parametrize("lag_max", [1 << 61, 1 << 62])
    @pytest.mark.parametrize("tags", [
        [0, 1_000, 1 << 61, (1 << 61) + 7, 1 << 62, 3 << 61, CLOCK_TOP - 2_000, CLOCK_TOP - 5,
         CLOCK_TOP],
        # two A tags at the clock's ends, B tags beside them
        [0, 5, CLOCK_TOP - 3, CLOCK_TOP],
    ], ids=["spread", "two_a_tags"])
    def test_cross_windows_of_2_62_ps_over_the_whole_clock_are_counted(self, tags, lag_max):
        # a chunk's buckets are at least as wide as the window, so candidate lags reach
        # past 2^63 - 1 ps; those past the window must not wrap into it
        tags = np.array(tags, dtype=np.int64)
        on_b = np.arange(tags.size) % 2 == 1
        h = cross_correlate(ChannelTags(stream(tags, CLOCK_TOP), on_b), None,
                            lag_max=lag_max, bin_width=1 << 58)
        oracle = brute_force_counts(tags[~on_b], tags[on_b], -lag_max, lag_max, 1 << 58)
        assert oracle.sum() > 0
        assert np.array_equal(h.counts, oracle)

    def test_duplicate_timestamps_pair_with_each_other(self):
        # three tags at the same instant give 3*2 ordered cross-pairs at lag 0
        a = stream([100, 100, 100], 200)
        h = auto_correlate(a, lag_max=10, bin_width=1)
        assert h.counts[10] == 6

    @settings(max_examples=60, deadline=None)
    @given(
        ta=st.lists(st.integers(0, 400), min_size=1, max_size=60),
        tb=st.lists(st.integers(0, 400), min_size=1, max_size=60),
        bin_width=st.sampled_from([1, 2, 4, 16]),
    )
    def test_property_matches_oracle(self, ta, tb, bin_width):
        ta, tb = np.sort(ta), np.sort(tb)
        h = cross_correlate(stream(ta, 400), stream(tb, 400),
                            lag_max=32, bin_width=bin_width)
        oracle = brute_force_counts(ta, tb, -32, 32, bin_width)
        assert np.array_equal(h.counts, oracle)


@st.composite
def windows(draw, lags, span):
    """A symmetric whole-bin window (lag_max, bin_width) placed on the actual `lags` of tags
    within [0, span]."""
    lag = abs(draw(st.sampled_from(lags.tolist())))
    placement = draw(st.sampled_from(["on_edge", "at_lag_max", "any", "wider_than_span"]))
    if placement in ("on_edge", "at_lag_max"):
        # the bin width divides an actual lag, which then sits on a bin edge
        # inside the window or on its ends -lag_max and +lag_max
        bin_width = draw(st.sampled_from([w for w in range(1, 17) if lag % w == 0]))
        n_half = max(lag // bin_width, 1)
        if placement == "on_edge":
            n_half += draw(st.integers(0, 20))
    else:
        bin_width = draw(st.integers(1, 16))
        n_half = draw(st.integers(1, 40))
        if placement == "wider_than_span":
            n_half = -(-(span + 1) // bin_width) + draw(st.integers(0, 3))
    return n_half * bin_width, bin_width


@st.composite
def kernel_cases(draw):
    """Tags with duplicates, a window placed on their lags, a chunk size and a tail."""
    span = draw(st.integers(0, 300))
    times = st.integers(0, span)
    ta = np.sort(draw(st.lists(times, min_size=1, max_size=150)))
    tb = np.sort(draw(st.lists(st.sampled_from(ta.tolist()) | times, min_size=1, max_size=150)))
    lag_max, bin_width = draw(windows(np.unique(tb[:, None] - ta[None, :]), span))
    chunk = draw(st.integers(1, ta.size))
    tail = draw(st.sampled_from([1, 2, correlator._TAIL]))
    return ta, tb, lag_max, bin_width, chunk, tail


@st.composite
def auto_cases(draw):
    """Tags with duplicates, a window placed on their lags, and a chunk size."""
    span = draw(st.integers(0, 300))
    ta = draw(st.lists(st.integers(0, span), min_size=1, max_size=120))
    ta = np.sort(ta + draw(st.lists(st.sampled_from(ta), max_size=30)))
    lag_max, bin_width = draw(windows(np.unique(ta[:, None] - ta[None, :]), span))
    return ta, lag_max, bin_width, draw(st.integers(1, ta.size))


@st.composite
def forward_cases(draw):
    """An auto case, its tags optionally on a lattice of the bin width, a dense share and the
    length of the pieces split into quotients and residues."""
    ta, lag_max, bin_width, chunk = draw(auto_cases())
    if draw(st.booleans()):
        ta = ta * bin_width  # every lag sits on a bin edge
    dense = draw(st.sampled_from([0, correlator._DENSE, 2]))
    piece = draw(st.sampled_from([1, 5, correlator._PIECE]))
    return ta, lag_max, bin_width, chunk, dense, piece


class TestRankSteppedKernel:
    """Both correlations' pair counters against the brute-force oracle.

    Besides the module's tail constant, the cross tests run tails of 1 (every
    rank is stepped) and 2 (one tag left for the expansion), so small inputs
    reach both branches of the cross kernel; the auto kernel has no tail.
    """

    @settings(max_examples=300, deadline=None)
    @given(case=kernel_cases(), buckets=st.sampled_from([1, 2, 3, correlator._BUCKETS_PER_WINDOW]))
    def test_cross_matches_oracle(self, case, buckets):
        # a window spans `buckets` buckets where the tags are dense enough
        ta, tb, lag_max, bin_width, chunk, tail = case
        with patch.object(correlator, "_TAIL", tail), patch.object(correlator, "_CHUNK", chunk), \
                patch.object(correlator, "_BUCKETS_PER_WINDOW", buckets):
            counts = correlator._pair_counts(ta, tb, lag_max, bin_width)
        assert np.array_equal(counts, brute_force_counts(ta, tb, -lag_max, lag_max, bin_width))

    @pytest.mark.parametrize("n_a,lag_max", [(20_000, 2_500_000), (200, 1_000)],
                             ids=["100_partners_per_tag", "sparse_a_dense_b"])
    def test_candidates_overrun_the_pairs_by_little(self, n_a, lag_max):
        # 20 000 B tags over 1 ms: buckets a window wide would double a wide window's
        # candidates, and buckets one per A tag would hold ~100 B tags each for the sparse A;
        # buckets 1/32 of the window wide overrun it by about 3 %
        rng = np.random.default_rng(3)
        ta = np.sort(rng.integers(0, 10**9, n_a))
        tb = np.sort(rng.integers(0, 10**9, 20_000))
        # every candidate is binned, those outside the window into the spare bin
        with patch.object(correlator, "_count", wraps=correlator._count) as count:
            counts = correlator._pair_counts(ta, tb, lag_max, 1_000)
        candidates = [call.args[0].size for call in count.call_args_list]
        pairs = int(counts.sum())
        if n_a == 200:
            assert np.array_equal(counts, brute_force_counts(ta, tb, -lag_max, lag_max, 1_000))
        else:
            assert pairs > 90 * n_a
        assert sum(candidates) <= 1.1 * pairs + 3 * n_a

    @settings(max_examples=300, deadline=None)
    @given(case=auto_cases())
    def test_auto_matches_oracle(self, case):
        ta, lag_max, bin_width, chunk = case
        duration = int(max(ta[-1], 1))
        with patch.object(correlator, "_CHUNK", chunk):
            h = auto_correlate(stream(ta, duration), lag_max, bin_width)
        oracle = brute_force_counts(ta, ta, -lag_max, lag_max, bin_width, drop_diagonal=True)
        assert np.array_equal(h.counts, oracle)

    def test_auto_on_a_lattice(self):
        # every lag is a multiple of the bin width, so every pair sits on a
        # bin edge and the mirrored half is all edge terms
        rng = np.random.default_rng(32)
        bin_width = 8
        ta = np.sort(rng.integers(0, 120, 400)) * bin_width
        with patch.object(correlator, "_CHUNK", 37):
            h = auto_correlate(stream(ta, int(ta[-1])), 10 * bin_width, bin_width)
        oracle = brute_force_counts(ta, ta, -10 * bin_width, 10 * bin_width, bin_width,
                                    drop_diagonal=True)
        assert np.array_equal(h.counts, oracle)

    def test_burst_takes_the_tail_path_exactly(self):
        # one tag of `a` sits on a burst of 10^5 tags of `b`; its pairs are
        # expanded in one go after the sparse tags have been rank-stepped
        rng = np.random.default_rng(31)
        burst_at, n_burst = 500_000, 100_000
        ta = np.sort(np.append(rng.integers(0, 1_000_000, 2_000), burst_at))
        tb_sparse = np.sort(rng.integers(0, 1_000_000, 2_000))
        tb = np.sort(np.concatenate([tb_sparse, np.full(n_burst, burst_at)]))
        a, b = stream(ta, 1_000_000), stream(tb, 1_000_000, "b")
        h = cross_correlate(a, b, lag_max=2_000, bin_width=100)
        oracle = brute_force_counts(ta, tb_sparse, -2_000, 2_000, 100) \
            + n_burst * brute_force_counts(ta, [burst_at], -2_000, 2_000, 100)
        assert oracle.sum() > n_burst
        assert np.array_equal(h.counts, oracle)


class TestDenseRankKernel:
    """The auto kernel's forward pairs i < j: rank slices while a chunk is dense, then compaction.

    A dense share of 0 slices every rank, the module's share hands the
    survivors to compaction once the chunk thins out, and a share above 1
    hands every tag over before the first slice.
    """

    @settings(max_examples=300, deadline=None)
    @given(case=forward_cases())
    def test_forward_pairs_match_oracle(self, case):
        ta, lag_max, bin_width, chunk, dense, piece = case
        with patch.object(correlator, "_DENSE", dense), \
                patch.object(correlator, "_CHUNK", chunk), \
                patch.object(correlator, "_PIECE", piece), \
                patch.object(correlator, "_compact_ranks",
                             wraps=correlator._compact_ranks) as compacted:
            slots = correlator._slot_counts(ta, 0, ta.size, lag_max, bin_width)
        oracle = brute_force_counts(ta, ta, 0, lag_max, bin_width, forward_only=True)
        assert np.array_equal(forward_bins(slots), oracle)
        oracle = brute_force_counts(ta, ta, -lag_max, lag_max, bin_width, drop_diagonal=True)
        assert np.array_equal(correlator._mirrored(slots), oracle)
        if dense == 0:
            assert not compacted.called
        elif dense > 1:
            # no rank is sliced: every chunk's tags go on by compaction from rank 0
            assert compacted.call_count == -(-ta.size // chunk)
            assert all(call.args[2] == 0 for call in compacted.call_args_list)

    def test_dense_ranks_hand_over_to_compaction(self):
        # about one partner per tag: rank 1 is sliced, rank 2 leaves fewer
        # than a third of the chunk inside, and those go on rank by rank, compacted
        rng = np.random.default_rng(33)
        ta = np.unique(rng.integers(0, 4_000_000, 4_000))
        with patch.object(correlator, "_CHUNK", 1_000), \
                patch.object(correlator, "_compact_ranks",
                             wraps=correlator._compact_ranks) as compacted:
            slots = correlator._slot_counts(ta, 0, ta.size, 1_000, 100)
        oracle = brute_force_counts(ta, ta, 0, 1_000, 100, forward_only=True)
        assert np.array_equal(forward_bins(slots), oracle)
        assert compacted.call_count == 4
        for i0, call in zip(range(0, ta.size, 1_000), compacted.call_args_list):
            k, inside = call.args[2:4]
            # ranks 1 and 2 were sliced, and each survivor's rank-2 partner is inside
            assert k == 2
            assert inside.size < 1_000 / 3
            chunk = ta[i0:]
            assert np.all(chunk[inside + k] - chunk[inside] <= 1_000)

    @pytest.mark.parametrize("chunk", [700, correlator._CHUNK])
    def test_auto_burst_is_exact(self, chunk):
        # a burst of equal tags among sparse ones: its ranks run long after
        # the sparse tags have left the window
        rng = np.random.default_rng(34)
        burst_at, n_burst = 400_000, 3_000
        sparse = np.sort(rng.integers(0, 1_000_000, 2_000))
        ta = np.sort(np.concatenate([sparse, np.full(n_burst, burst_at)]))
        with patch.object(correlator, "_CHUNK", chunk):
            h = auto_correlate(stream(ta, 1_000_000), 2_000, 100)
        oracle = brute_force_counts(sparse, sparse, -2_000, 2_000, 100, drop_diagonal=True) \
            + n_burst * brute_force_counts(sparse, [burst_at], -2_000, 2_000, 100) \
            + n_burst * brute_force_counts([burst_at], sparse, -2_000, 2_000, 100)
        oracle[2_000 // 100] += n_burst * (n_burst - 1)
        assert np.array_equal(h.counts, oracle)


    def test_burst_among_many_tags_is_compacted(self):
        # 5 000 equal tags among 200 000: once only the burst is left inside, compaction
        # takes it rank by rank to the window's end, and the cross kernel is never called
        rng = np.random.default_rng(38)
        burst_at, n_burst = 400_000_000, 5_000
        sparse = np.sort(rng.integers(0, 10**9, 195_000))
        ta = np.sort(np.concatenate([sparse, np.full(n_burst, burst_at)]))
        with patch.object(correlator, "_pair_counts", wraps=correlator._pair_counts) as crossed:
            h = auto_correlate(stream(ta, 10**9), 2_000, 100)
        # pairs never span a gap longer than the window, so the sparse tags' pairs are
        # those within the groups of about 300 tags cut at such gaps
        gaps = np.flatnonzero(np.diff(sparse) > 2_000) + 1
        cuts = [0, *gaps[np.searchsorted(gaps, np.arange(300, sparse.size, 300))], sparse.size]
        oracle = sum(brute_force_counts(group, group, -2_000, 2_000, 100, drop_diagonal=True)
                     for group in np.split(sparse, np.unique(cuts)[1:-1]))
        oracle += n_burst * brute_force_counts(sparse, [burst_at], -2_000, 2_000, 100) \
            + n_burst * brute_force_counts([burst_at], sparse, -2_000, 2_000, 100)
        oracle[2_000 // 100] += n_burst * (n_burst - 1)
        assert np.array_equal(h.counts, oracle)
        assert not crossed.called


class TestSlotTypes:
    """The auto kernel's quotients and residues at the limits of their integer types."""

    @pytest.mark.parametrize("bin_width,residue_type", [
        (32_767, np.int16), (32_768, np.int16), (32_769, np.int32)])
    def test_residue_type_switches_above_int16(self, bin_width, residue_type):
        # residues 0 and w - 1 side by side, so residue differences reach -(w - 1) and w - 1
        rng = np.random.default_rng(37)
        lattice = np.arange(0, 12 * bin_width, bin_width)
        tags = np.sort(np.concatenate([lattice, lattice + bin_width - 1, lattice + 1,
                                       rng.integers(0, 12 * bin_width, 200)]))
        assert correlator._quotients(tags, bin_width, 4)[1].dtype == residue_type
        h = auto_correlate(stream(tags, int(tags[-1])), 4 * bin_width, bin_width)
        oracle = brute_force_counts(tags, tags, -4 * bin_width, 4 * bin_width, bin_width,
                                    drop_diagonal=True)
        assert np.array_equal(h.counts, oracle)

    @pytest.mark.parametrize("span,quotient_type", [
        ((1 << 31) - 1, np.int32), (1 << 31, np.int64)])
    def test_quotient_type_switches_at_the_int32_limit(self, span, quotient_type):
        # one chunk of 1 ps bins whose quotients span up to the limit, with
        # pairs at both ends; the slots' clipped quotient differences stay small
        tags = np.array([0, 1, 3, 5, span - 4, span - 2, span - 1, span], dtype=np.int64)
        assert correlator._quotients(tags, 1, 4)[0].dtype == quotient_type
        h = auto_correlate(stream(tags, span), 4, 1)
        oracle = brute_force_counts(tags, tags, -4, 4, 1, drop_diagonal=True)
        assert oracle.sum() > 0
        assert np.array_equal(h.counts, oracle)

    def test_quotient_differences_past_2_62_do_not_overflow(self):
        # 1 ps bins: quotient differences reach 2^63 - 1, three times which
        # leaves int64; every chunk's rank slices meet them
        tags = np.array([0, 1, 2, 4, 1 << 62, (1 << 62) + 3, CLOCK_TOP - 2, CLOCK_TOP],
                        dtype=np.int64)
        for chunk in (1, 3, correlator._CHUNK):
            with patch.object(correlator, "_CHUNK", chunk), patch.object(correlator, "_DENSE", 0):
                h = auto_correlate(stream(tags, CLOCK_TOP), 4, 1)
            oracle = brute_force_counts(tags, tags, -4, 4, 1, drop_diagonal=True)
            assert np.array_equal(h.counts, oracle)


@st.composite
def cross_cases(draw):
    """Two channels sharing some tags, a symmetric window with partners on its ends, a chunk
    size and a number of time blocks."""
    span = draw(st.integers(0, 300))
    ta = np.sort(draw(st.lists(st.integers(0, span), min_size=1, max_size=100)))
    tb = draw(st.lists(st.sampled_from(ta.tolist()) | st.integers(0, span), min_size=1,
                       max_size=100))
    bin_width = draw(st.integers(1, 16))
    n_half = draw(st.integers(1, 30))
    if draw(st.booleans()):
        # B tags exactly lag_max before and after some A tags: -lag_max is in
        # the window, +lag_max is not
        near = draw(st.lists(st.sampled_from(ta.tolist()), min_size=1, max_size=10))
        tb += [t + sign * n_half * bin_width for t in near for sign in (-1, 1)]
    tb = np.sort(np.clip(tb, 0, None))
    chunk = draw(st.integers(1, ta.size))
    n_blocks = draw(st.sampled_from([2, montecarlo._TIME_BLOCKS, 40]))
    return ta, tb, n_half * bin_width, bin_width, chunk, n_blocks


class TestTimeBlocks:
    """Both correlations in time blocks on 1, 2 and 3 threads against the brute-force oracle.

    The first blocks to start, one per usable core, wait for each other, so each
    count below is made on as many threads at once as there are cores.
    """

    @staticmethod
    def counts_on_threads(ta, lag_max, bin_width, chunk):
        """auto_correlate's counts at 1, 2 and 3 usable cores, and the threads of its blocks."""
        results = []
        blocks = correlator._slot_counts
        a = stream(ta, int(max(ta[-1], 1)))
        for n_cores in (1, 2, 3):
            threads = set()

            def recording(*args):
                threads.add(threading.current_thread())
                meet()
                return blocks(*args)

            with patch.object(correlator, "_CHUNK", chunk), \
                    patch.object(montecarlo, "_BLOCKED_MIN", chunk), \
                    patch.object(correlator, "_usable_cores", lambda: n_cores), \
                    patch.object(correlator, "_slot_counts", recording):
                meet = meeting(min(n_cores, len(montecarlo._time_blocks(a.tags, a.duration))))
                results.append((auto_correlate(a, lag_max, bin_width).counts, threads))
        return results

    @settings(max_examples=200, deadline=None)
    @given(case=auto_cases(), dense=st.sampled_from([0, correlator._DENSE, 2]))
    def test_blocks_match_oracle_on_any_thread_count(self, case, dense):
        # a dense share of 2 counts every block by compaction alone, from rank 0, reading its
        # partners past the block's end
        ta, lag_max, bin_width, chunk = case
        oracle = brute_force_counts(ta, ta, -lag_max, lag_max, bin_width, drop_diagonal=True)
        with patch.object(correlator, "_DENSE", dense):
            results = self.counts_on_threads(ta, lag_max, bin_width, chunk)
        for counts, _ in results:
            assert counts.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("ta,lag_max,bin_width,chunk", [
        # shorter than one chunk: one block, on the calling thread
        ([3, 5, 5, 9, 40], 20, 5, 8),
        # eight blocks about 15 ps long, under a window of 60 ps
        (sorted(np.random.default_rng(36).integers(0, 120, 90).tolist()), 60, 4, 2),
        # a burst of 25 equal tags across several chunk edges
        ([1, 4, 9, *[30] * 25, 33, 50, 58, 71], 12, 3, 3),
        # each tag's partner at exactly lag_max lies in the next block
        ([0, 10, 20, 30, 40, 50, 60, 70, 75, 80], 10, 5, 1),
    ], ids=["shorter_than_a_block", "blocks_shorter_than_window", "burst_across_edges",
            "partner_at_lag_max"])
    def test_named_cases(self, ta, lag_max, bin_width, chunk):
        ta = np.array(ta, dtype=np.int64)
        oracle = brute_force_counts(ta, ta, -lag_max, lag_max, bin_width, drop_diagonal=True)
        assert oracle.sum() > 0
        for n_cores, (counts, threads) in enumerate(
                self.counts_on_threads(ta, lag_max, bin_width, chunk), start=1):
            assert counts.tobytes() == oracle.tobytes()
            if ta.size <= chunk:
                assert threads == {threading.current_thread()}
            else:
                # the blocks' first meeting took every core, and no more threads
                assert len(threads) == n_cores

    def test_a_stream_of_one_chunk_is_one_block(self):
        # the merge and both correlators share the gate: at most one chunk runs whole
        assert montecarlo._BLOCKED_MIN == correlator._CHUNK
        ta = np.arange(correlator._CHUNK, dtype=np.int64)
        assert montecarlo._time_blocks(ta, int(ta[-1])) == [(0, ta.size)]
        assert len(montecarlo._time_blocks(np.append(ta, ta[-1]), int(ta[-1]))) > 1

    def test_blocks_longer_than_a_chunk(self):
        # 8 blocks of about 150 k tags, each more than one chunk; every lag is
        # a multiple of 20 ps, so a fifth of them sit on 100 ps bin edges
        rng = np.random.default_rng(38)
        n = 9 * correlator._CHUNK
        ta = np.sort(rng.integers(0, 50 * n, n)) * 20
        a = stream(ta, 1_000 * n)
        assert min(stop - start for start, stop in montecarlo._time_blocks(ta, a.duration)) \
            > correlator._CHUNK
        counts = []
        for n_cores in (1, 2, 3):
            with patch.object(correlator, "_usable_cores", lambda: n_cores):
                counts.append(auto_correlate(a, 2_000, 100).counts.tobytes())
        # every ordered pair of distinct tags, from the cross-correlation's kernel
        cross = cross_correlate(a, a, 2_000, 100).counts
        cross[2_000 // 100] -= n
        assert counts == [cross.tobytes()] * 3


    @staticmethod
    def cross_on_threads(ta, tb, lag_max, bin_width, chunk, n_blocks=montecarlo._TIME_BLOCKS):
        """cross_correlate's counts at 1, 2 and 3 usable cores, the threads of its blocks, and
        how many blocks counted pairs."""
        results = []
        map_on_threads, pair_counts = correlator._map_on_threads, correlator._pair_counts
        duration = int(max(ta[-1], tb[-1], 1))
        a, b = stream(ta, duration), stream(tb, duration, "b")
        for n_cores in (1, 2, 3):
            threads, counted = set(), []

            def mapping(fn, blocks, n_threads):
                meet = meeting(min(n_cores, len(blocks)))

                def block(item):
                    threads.add(threading.current_thread())
                    meet()
                    return fn(item)

                return map_on_threads(block, blocks, n_threads)

            def counting(*args):
                counted.append(1)
                return pair_counts(*args)

            with patch.object(correlator, "_CHUNK", chunk), \
                    patch.object(montecarlo, "_BLOCKED_MIN", chunk), \
                    patch.object(montecarlo, "_TIME_BLOCKS", n_blocks), \
                    patch.object(correlator, "_usable_cores", lambda: n_cores), \
                    patch.object(correlator, "_map_on_threads", mapping), \
                    patch.object(correlator, "_pair_counts", counting):
                counts = cross_correlate(a, b, lag_max, bin_width).counts
            results.append((counts, threads, len(counted)))
        return results

    @settings(max_examples=200, deadline=None)
    @given(case=cross_cases())
    def test_cross_blocks_match_oracle_on_any_thread_count(self, case):
        ta, tb, lag_max, bin_width, chunk, n_blocks = case
        oracle = brute_force_counts(ta, tb, -lag_max, lag_max, bin_width)
        one_shot = correlator._pair_counts(ta, tb, lag_max, bin_width)
        assert one_shot.tobytes() == oracle.tobytes()
        for counts, *_ in self.cross_on_threads(ta, tb, lag_max, bin_width, chunk, n_blocks):
            assert counts.dtype == np.int64 and counts.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("ta,tb,lag_max,bin_width,blocks_with_a", [
        # one A tag per block of 10 ps, each with B partners exactly lag_max
        # before it (counted) and after it (not counted), in the next blocks
        ([0, 10, 20, 30, 40, 50, 60, 70], [0, 10, 20, 30, 40, 50, 60, 70, 80], 10, 5, 8),
        # equal A and B tags on the block edges at 20 and 40
        ([3, 20, 20, 29, 40, 55, 80], [20, 20, 31, 40, 40, 61, 79], 12, 4, 5),
        # A tags only in the first and last of eight blocks; B tags in every block
        ([1, 2, 3, 75, 80], list(range(0, 81, 4)), 16, 2, 2),
    ], ids=["partners_at_lag_max_across_edges", "equal_tags_on_edges", "blocks_without_a_tags"])
    def test_cross_named_cases(self, ta, tb, lag_max, bin_width, blocks_with_a):
        ta, tb = np.array(ta, dtype=np.int64), np.array(tb, dtype=np.int64)
        oracle = brute_force_counts(ta, tb, -lag_max, lag_max, bin_width)
        assert oracle.sum() > 0
        for n_cores, (counts, threads, counted) in enumerate(
                self.cross_on_threads(ta, tb, lag_max, bin_width, chunk=1), start=1):
            assert counts.tobytes() == oracle.tobytes()
            assert len(threads) == n_cores  # every core met in the first blocks, and no more
            assert counted == blocks_with_a  # a block without A tags counts nothing

    def test_the_running_total_loses_no_block(self):
        # 64 blocks of ones added on five threads, switching as often as the interpreter
        # can: a lost update of the total shows as a count below 64
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with patch.object(correlator, "_usable_cores", lambda: 5):
                total = correlator._summed(lambda _: np.ones(1_000, np.int64), list(range(64)))
        finally:
            sys.setswitchinterval(interval)
        assert total.tolist() == [64] * 1_000

    def test_lag_max_partner_counts_once(self):
        # the first case by hand: every A tag pairs at -lag_max, the one B tag
        # past the last A tag only at +lag_max, outside the window
        ta, tb = np.arange(0, 80, 10), np.arange(0, 90, 10)
        for counts, *_ in self.cross_on_threads(ta, tb, 10, 5, chunk=1):
            assert counts.tolist() == [7, 0, 8, 0]


class TestMemory:
    @pytest.mark.parametrize("n_cores", [1, 2])
    def test_auto_peak_stays_near_the_tags(self, n_cores):
        # each chunk's quotients, residues and slots are the largest arrays
        # auto_correlate holds
        rng = np.random.default_rng(35)
        n = 1 << 18
        a = stream(np.sort(rng.integers(0, n * 1_000, n)), n * 1_000)
        tracemalloc.start()
        try:
            with patch.object(correlator, "_usable_cores", lambda: n_cores):
                auto_correlate(a, 50_000, 1_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * a.tags.nbytes


    @pytest.mark.parametrize("n_cores,bound_mib", [(1, 70), (2, 115)])
    def test_block_histograms_add_into_one_running_total(self, n_cores, bound_mib):
        # 10^6 bins a side (1 ns bins over +/-1 ms) on 2^18 tags about 0.5 ms apart, in 8
        # blocks: a block's 24 MiB of slots and 15 MiB histogram last until it is added
        # to the total, so the peak is the total and one block per thread, not 8 blocks
        rng = np.random.default_rng(35)
        n = 1 << 18
        a = stream(np.sort(rng.integers(0, n * 500_000_000, n)), n * 500_000_000)
        assert len(montecarlo._time_blocks(a.tags, a.duration)) == montecarlo._TIME_BLOCKS
        tracemalloc.start()
        try:
            with patch.object(correlator, "_usable_cores", lambda: n_cores):
                counts = auto_correlate(a, 1_000_000_000, 1_000).counts
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.sum() > n
        assert peak <= bound_mib * 2**20

    @pytest.mark.parametrize("n", [4, 1024])
    def test_a_chunk_over_the_whole_clock_holds_memory_of_its_tags(self, n):
        # tags about 2^62 / n ps apart under a 2 ns window: buckets as wide as the window
        # would number 2^51
        ta = np.linspace(0, 1 << 62, n).astype(np.int64)
        tb = np.sort(np.concatenate([ta + 300, ta[1:] - 700, ta + 1_000]))
        tracemalloc.start()
        try:
            counts = correlator._pair_counts(ta, tb, 1_000, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(counts, brute_force_counts(ta, tb, -1_000, 1_000, 100))
        assert peak < 16_384 + 128 * n


class TestChannelTags:
    @pytest.mark.parametrize("on_b", [
        np.array([0, 1, 0, 1]),          # an int mask: ~ of it selects every tag
        np.array([False, True, False]),  # one entry short
        np.zeros((2, 2), dtype=bool),    # one entry per tag, but 2-d
        [False, True, False, True],      # not an array
    ], ids=["int", "short", "2d", "list"])
    def test_mask_must_be_one_bool_per_tag(self, on_b):
        with pytest.raises(ValueError, match="on_b must be a 1-d bool array of 4 entries"):
            ChannelTags(stream([1, 2, 2, 3], 10), on_b)

    def test_pool_lists_a_first_at_equal_tags(self):
        a, b = stream([5, 5, 9], 10), stream([0, 5, 9, 9], 10, "b")
        tags = ChannelTags.pool(a, b)
        assert tags.pooled.tags.tolist() == [0, 5, 5, 5, 9, 9, 9]
        assert tags.on_b.tolist() == [True, False, False, True, False, True, True]
        assert tags.a.tags.tolist() == [5, 5, 9] and tags.b.tags.tolist() == [0, 5, 9, 9]
        assert tags.counts == (3, 4)


class TestSwapSymmetry:
    def test_mirror_identity_at_1ps_bins(self):
        rng = np.random.default_rng(11)
        ta = np.sort(rng.integers(0, 300, 250))
        tb = np.sort(rng.integers(0, 300, 250))
        a, b = stream(ta, 300), stream(tb, 300, "b")
        h_ab = cross_correlate(a, b, lag_max=16, bin_width=1)
        h_ba = cross_correlate(b, a, lag_max=16, bin_width=1)
        report = swap_symmetry_check(h_ab, h_ba)
        assert report["ok"] and report["max_abs_diff"] == 0
        assert report["checked_bins"] == 31

    def test_corrupted_counts_raise(self):
        rng = np.random.default_rng(12)
        ta = np.sort(rng.integers(0, 300, 200))
        a = stream(ta, 300)
        h1 = auto_correlate(a, lag_max=16, bin_width=1)
        bad = np.array(h1.counts)
        bad[20] += 1
        h2 = CorrelationHistogram(
            counts=bad, bin_width=1, lag_max=16,
            duration=300, rate_a=h1.rate_a, rate_b=h1.rate_b)
        with pytest.raises(SymmetryViolation):
            swap_symmetry_check(h1, h2)

    def test_mismatched_windows_rejected(self):
        a = stream([10, 20], 100)
        h1 = auto_correlate(a, lag_max=16, bin_width=1)
        h2 = auto_correlate(a, lag_max=8, bin_width=1)
        with pytest.raises(ValueError):
            swap_symmetry_check(h1, h2)


class TestNormalisation:
    def test_g2_definition(self):
        rng = np.random.default_rng(21)
        ta = np.sort(rng.integers(0, 100_000, 2_000))
        tb = np.sort(rng.integers(0, 100_000, 2_000))
        h = cross_correlate(stream(ta, 100_000), stream(tb, 100_000, "b"),
                            lag_max=500, bin_width=50)
        denom = (h.rate_a / 1e12) * (h.rate_b / 1e12) * h.duration * h.bin_width
        assert np.allclose(h.g2, h.counts / denom, rtol=0, atol=0)
        assert np.allclose(h.sigma, np.sqrt(h.counts) / denom, rtol=0, atol=0)

    def test_independent_poisson_channels_are_flat(self):
        # lambda per bin ~ 1000; >= 95% of the 100 bins must sit within 3 sigma
        rng = np.random.default_rng(22)
        duration = 1_000_000_000
        ta = np.sort(rng.integers(0, duration, 100_000))
        tb = np.sort(rng.integers(0, duration, 100_000))
        h = cross_correlate(stream(ta, duration), stream(tb, duration, "b"),
                            lag_max=5_000, bin_width=100)
        z = (h.g2 - 1.0) / h.sigma
        assert np.mean(np.abs(z) <= 3.0) >= 0.95
        assert abs(h.g2.mean() - 1.0) < 3.0 / np.sqrt(h.counts.sum())

    def test_g2_invariant_under_thinning(self):
        # dropping half the tags rescales counts and rates consistently
        rng = np.random.default_rng(23)
        duration = 500_000_000
        ta = np.sort(rng.integers(0, duration, 80_000))
        tb = np.sort(rng.integers(0, duration, 80_000))
        h_full = cross_correlate(stream(ta, duration), stream(tb, duration, "b"),
                                 lag_max=2_000, bin_width=100)
        ta_thin = ta[rng.random(ta.size) < 0.5]
        tb_thin = tb[rng.random(tb.size) < 0.5]
        h_thin = cross_correlate(stream(ta_thin, duration),
                                 stream(tb_thin, duration, "b"),
                                 lag_max=2_000, bin_width=100)
        z = (h_full.g2 - h_thin.g2) / np.hypot(h_full.sigma, h_thin.sigma)
        assert np.mean(np.abs(z) <= 3.0) >= 0.95

    def test_periodic_stream_has_empty_short_window(self):
        tags = np.arange(0, 1_000_000, 1_000, dtype=np.int64)
        h = auto_correlate(stream(tags, 1_000_000), lag_max=600, bin_width=100)
        assert np.all(h.counts == 0)


class TestValidation:
    def test_empty_inputs_raise(self):
        a, e = stream([5], 10), stream([], 10)
        with pytest.raises(EmptyStream):
            cross_correlate(a, e, lag_max=4, bin_width=1)
        with pytest.raises(EmptyStream):
            auto_correlate(e, lag_max=4, bin_width=1)

    @pytest.mark.parametrize("kwargs", [
        dict(lag_max=10, bin_width=3),                  # 10 not divisible by 3
        dict(lag_max=10, bin_width=0),
        dict(lag_max=10, bin_width=4),                  # 2.5 bins per side, though 20 = 5 bins
        dict(lag_max=0, bin_width=1),
        dict(lag_max=-8, bin_width=4),
    ])
    def test_bad_windows_raise(self, kwargs):
        # both kinds follow one rule: a positive whole number of bins per side
        a = stream([1, 2], 10)
        with pytest.raises(ValueError):
            cross_correlate(a, a, **kwargs)
        with pytest.raises(ValueError):
            auto_correlate(a, **kwargs)

    def test_cross_windows_past_2_62_ps_raise(self):
        # the window's span would overrun the int64 clock
        tags = ChannelTags(stream([0, 5, 1 << 62, CLOCK_TOP], CLOCK_TOP),
                           np.array([False, True, False, True]))
        assert cross_correlate(tags, None, lag_max=1 << 62, bin_width=1 << 58).counts.sum() > 0
        with pytest.raises(ValueError, match="at most 2\\^62 ps"):
            cross_correlate(tags, None, lag_max=(1 << 62) + (1 << 58), bin_width=1 << 58)

    @pytest.mark.parametrize("lag_max,bin_width", [(10, 4), (0, 1), (-8, 4), (8, 0)])
    def test_auto_needs_whole_bins_per_side(self, lag_max, bin_width):
        with pytest.raises(ValueError):
            auto_correlate(stream([1, 2], 10), lag_max=lag_max, bin_width=bin_width)

    def test_histogram_shape_checks(self):
        with pytest.raises(ValueError):
            CorrelationHistogram(counts=np.zeros(3, dtype=np.int64), bin_width=1,
                                 lag_max=2, duration=10, rate_a=1.0, rate_b=1.0)
        with pytest.raises(ValueError):  # lag_max is not a whole number of bins
            CorrelationHistogram(counts=np.zeros(3, dtype=np.int64), bin_width=2,
                                 lag_max=3, duration=10, rate_a=1.0, rate_b=1.0)
        with pytest.raises(ValueError):
            CorrelationHistogram(counts=np.array([1, -1]), bin_width=1,
                                 lag_max=1, duration=10, rate_a=1.0, rate_b=1.0)

    def test_lag_grid_properties(self):
        h = CorrelationHistogram(counts=np.zeros(4, dtype=np.int64), bin_width=5,
                                 lag_max=10, duration=100, rate_a=1e9, rate_b=1e9)
        assert h.n_bins == 4 and h.lag_min == -10
        assert h.lag_edges.tolist() == [-10, -5, 0, 5]
        assert h.lag_centers.tolist() == [-7.5, -2.5, 2.5, 7.5]
