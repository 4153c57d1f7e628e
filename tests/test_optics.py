"""Detection chain: ring geometry, efficiency bookkeeping, and routing.

Closed-form quantities are asserted at machine precision; routing statistics
and the per-photon ring oracle use fixed seeds with 3 sigma binomial
tolerances.
"""

from __future__ import annotations

import math
import threading
import tracemalloc
from typing import NamedTuple
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from spphbt import montecarlo
from spphbt.correlator import ChannelTags
from spphbt.errors import InvalidGeometry, UnknownScenario
from spphbt.montecarlo import TimeTagStream, poisson_background
from spphbt.optics import (
    DetectionGeometry,
    DipoleMix,
    EfficiencyBudget,
    collection_fraction,
    coupling_ratio,
    expected_channel_efficiencies,
    route_events,
)
from spphbt.scenarios import budget_preset, geometry_preset
from spphbt.tagio import write_time_tags
from thread_checks import meeting


def signal_stream(n, duration, seed):
    """n uniform event times over [0, duration] ns, in ps."""
    rng = np.random.default_rng(seed)
    duration_ps = round(duration * 1000.0)
    return TimeTagStream(np.sort(rng.integers(0, duration_ps, n, endpoint=True)), "events",
                         duration_ps)


class SppRing(NamedTuple):
    na: float         # numerical-aperture coordinate of the ring
    theta_lrm: float  # leakage polar angle inside the substrate, rad


def spp_ring_na(n_spp: float, n_glass: float = 1.5) -> SppRing:
    """Ring position in the back focal plane: NA = n_spp, above the critical angle.

    Leakage radiation exits into the substrate at sin(theta) = n_spp/n_glass,
    so the mode only radiates while n_spp < n_glass.
    """
    if not (n_glass > 1.0):
        raise InvalidGeometry(f"n_glass must be > 1, got {n_glass!r}")
    if not (1.0 <= n_spp < n_glass):
        raise InvalidGeometry(
            f"leakage requires 1 <= n_spp < n_glass, got n_spp={n_spp!r}, n_glass={n_glass!r}")
    return SppRing(na=n_spp, theta_lrm=math.asin(n_spp / n_glass))


def ring_oracle(n, geometry, budget, mix, seed):
    """Per-photon Monte Carlo of the Fourier-plane chain, the reference for
    `expected_channel_efficiencies`: orientation, loss chain, uniform ring
    azimuth, arc pickup, beamsplitter and quantum-efficiency draws.
    Returns the photon counts on channels A and B."""
    rng = np.random.default_rng(seed)
    vertical = rng.random(n) < mix.fraction_vertical
    p_couple = np.where(vertical, budget.p_couple_vertical, budget.p_couple_horizontal)
    chain_ok = rng.random(n) < p_couple * budget.p_survive * budget.p_leak
    phi = rng.random(n) * 2.0 * math.pi
    split_a = rng.random(n) < budget.p_bs
    detected = chain_ok & (rng.random(n) < budget.p_qe)
    w = math.pi * geometry.fiber_fraction

    def in_arc(center):
        return np.abs((phi - center + math.pi) % (2.0 * math.pi) - math.pi) < w

    in_a, in_b = in_arc(geometry.fiber_a_angle), in_arc(geometry.fiber_b_angle)
    n_a = np.count_nonzero(detected & in_a & (~in_b | split_a))
    n_b = np.count_nonzero(detected & in_b & (~in_a | ~split_a))
    return int(n_a), int(n_b)


def within_binomial(count, n, p):
    return abs(count - n * p) < 3.0 * math.sqrt(n * p * (1.0 - p))


FULL_RING = DetectionGeometry(fiber_effective_diameter=2.0 * math.pi,
                              ring_radius_bfp=1.0)

IDEAL = EfficiencyBudget()


class TestRingGeometry:
    def test_ring_sits_at_mode_index(self):
        ring = spp_ring_na(1.04, 1.5)
        assert ring.na == 1.04
        assert ring.theta_lrm == pytest.approx(math.asin(1.04 / 1.5), rel=1e-15)

    def test_critical_angle_boundary_allowed(self):
        ring = spp_ring_na(1.0, 1.5)
        assert ring.na == 1.0
        assert ring.theta_lrm == pytest.approx(math.asin(1.0 / 1.5), rel=1e-15)

    @pytest.mark.parametrize("n_spp,n_glass", [
        (1.6, 1.5),   # bound mode cannot leak
        (1.5, 1.5),   # grazing, no radiation
        (0.9, 1.5),   # below the light line
        (1.2, 1.0),   # substrate must be denser than air
    ])
    def test_non_radiating_configurations_raise(self, n_spp, n_glass):
        with pytest.raises(InvalidGeometry):
            spp_ring_na(n_spp, n_glass)


class TestCouplingRatio:
    def test_reference_index(self):
        assert coupling_ratio(1.04) == pytest.approx(13.254901960784315, abs=1e-13)

    def test_sqrt_two_gives_two(self):
        assert coupling_ratio(math.sqrt(2.0)) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("n_spp", [1.0, 0.5, 0.0, -2.0, float("nan"), float("inf")])
    def test_unbound_modes_rejected(self, n_spp):
        with pytest.raises(InvalidGeometry):
            coupling_ratio(n_spp)

    def test_diverges_toward_light_line(self):
        assert coupling_ratio(1.0001) > coupling_ratio(1.01) > coupling_ratio(1.1)


class TestCollectionFraction:
    def test_reference_fiber(self):
        assert collection_fraction(0.44, 1.0) == pytest.approx(0.44 / (2.0 * math.pi),
                                                               rel=1e-15)

    def test_zero_diameter(self):
        assert collection_fraction(0.0, 1.0) == 0.0

    def test_clamped_at_full_circumference(self):
        assert collection_fraction(100.0, 1.0) == 1.0

    def test_invalid_arguments(self):
        with pytest.raises(InvalidGeometry):
            collection_fraction(0.44, 0.0)
        with pytest.raises(InvalidGeometry):
            collection_fraction(-0.1, 1.0)


class TestRouting:
    def test_deterministic_given_seed(self):
        s = signal_stream(5_000, 1e5, seed=1)
        r1 = route_events(s, 0.3, seed=9).channels
        r2 = route_events(s, 0.3, seed=9).channels
        assert np.array_equal(r1.pooled.tags, r2.pooled.tags)
        assert np.array_equal(r1.on_b, r2.on_b)

    def test_routes_every_event_at_share_a(self):
        n = 20_000
        s = signal_stream(n, 1e5, seed=2)
        r = route_events(s, 0.3, seed=3)
        assert r.n_detected == r.n_events == n
        assert within_binomial(r.channels.counts[0], n, 0.3)
        assert np.array_equal(r.channels.pooled.tags, s.tags)

    def test_split_peak_stays_near_boolean_indexing(self):
        # routing holds the channel mask and its tie check's temporaries, nothing
        # else as long as the events: the tags are the events' times
        s = signal_stream(1 << 20, 1e9, seed=21)
        tracemalloc.start()
        try:
            route_events(s, 0.5, seed=22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * s.tags.nbytes

    def test_full_ring_overlap_splits_at_beamsplitter(self):
        # both arcs cover the whole ring, so every photon is shared and split
        n = 20_000
        budget = EfficiencyBudget(p_bs=0.7)
        n_a, n_b = ring_oracle(n, FULL_RING, budget, DipoleMix(), seed=5)
        assert n_a + n_b == n
        assert within_binomial(n_a, n, 0.7)
        eff_a, eff_b = expected_channel_efficiencies(FULL_RING, budget, DipoleMix())
        assert (eff_a, eff_b) == pytest.approx((0.7, 0.3), rel=1e-12)

    def test_orientation_contrast_matches_coupling_ratio(self):
        eta = coupling_ratio(1.04)
        budget = EfficiencyBudget(p_couple_vertical=0.48,
                                  p_couple_horizontal=0.48 / eta)
        n = 200_000
        n_v = sum(ring_oracle(n, FULL_RING, budget, DipoleMix(1.0), seed=7))
        n_h = sum(ring_oracle(n, FULL_RING, budget, DipoleMix(0.0), seed=8))
        ratio = n_v / n_h
        sigma = ratio * math.sqrt(1.0 / n_v + 1.0 / n_h)
        assert abs(ratio - eta) < 3.0 * sigma
        vertical = sum(expected_channel_efficiencies(FULL_RING, budget, DipoleMix(1.0)))
        horizontal = sum(expected_channel_efficiencies(FULL_RING, budget, DipoleMix(0.0)))
        assert vertical / horizontal == pytest.approx(eta, rel=1e-12)

    def test_counts_match_analytic_efficiencies(self):
        geometry = geometry_preset("fourier_default")
        budget = EfficiencyBudget(p_couple_vertical=0.9, p_couple_horizontal=0.2,
                                  p_survive=0.5, p_leak=0.8, p_qe=0.7)
        mix = DipoleMix()
        n = 200_000
        counts = ring_oracle(n, geometry, budget, mix, seed=10)
        for count, eff in zip(counts, expected_channel_efficiencies(geometry, budget, mix)):
            assert within_binomial(count, n, eff)

    def test_overlapping_arcs_share_instead_of_duplicating(self):
        # identical fiber positions: every collected photon is in both arcs
        geometry = DetectionGeometry(fiber_a_angle=1.0, fiber_b_angle=1.0,
                                     fiber_effective_diameter=0.44)
        n = 200_000
        n_a, n_b = ring_oracle(n, geometry, IDEAL, DipoleMix(), seed=12)
        f = geometry.fiber_fraction
        assert within_binomial(n_a + n_b, n, f)
        assert within_binomial(n_a, n_a + n_b, 0.5)
        eff_a, eff_b = expected_channel_efficiencies(geometry, IDEAL, DipoleMix())
        assert eff_a + eff_b == pytest.approx(f, rel=1e-12)

    def test_background_shares_the_signal_split(self):
        # background is routed like signal: at share_a = 1 every event,
        # background included, lands on A
        bg = poisson_background(0.01, 1e5, seed=15)
        s = TimeTagStream.merge([bg, signal_stream(2_000, 1e5, seed=14)], 100_000_000)
        r = route_events(s, 1.0, seed=16)
        assert r.channels.counts == (len(s), 0)
        r = route_events(s, 0.3, seed=16)
        assert within_binomial(r.channels.counts[0], len(s), 0.3)

    def test_thinned_poisson_stays_poisson(self):
        # channel-A inter-arrivals of a routed Poisson stream stay exponential
        rate, duration = 0.01, 1e6
        s = poisson_background(rate, duration, seed=17)
        r = route_events(s, 0.5, seed=18)
        # channel A holds ~ rate/2
        gaps = np.diff(r.channels.a.tags)
        ks = stats.kstest(gaps, "expon", args=(0.0, 1.0 / (rate / 2.0) * 1000.0))
        assert ks.pvalue > 0.01

    def test_jitter_moves_and_drops_events(self):
        n = 10_000
        s = signal_stream(n, 1e3, seed=19)
        r0 = route_events(s, 0.5, seed=20)
        r1 = route_events(s, 0.5, seed=20, jitter_sigma_ns=5.0)
        assert not np.array_equal(r0.channels.pooled.tags, r1.channels.pooled.tags)
        assert r1.n_detected <= n  # edge events may jitter out of the window
        for stream in (r1.channels.a, r1.channels.b):
            tags = stream.tags
            assert np.all(np.diff(tags) >= 0)
            if tags.size:
                assert tags[0] >= 0 and tags[-1] <= r1.channels.duration

    @pytest.mark.parametrize("share_a", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_jittered_routing_is_exact(self, share_a, seed):
        # the direct formula: jitter by whole ps, keep what lies in [0, duration],
        # sort each channel
        def direct(stream, sigma):
            rng = np.random.default_rng(seed)
            to_a = rng.random(len(stream)) < share_a
            jitter = np.rint(rng.normal(0.0, sigma * 1000.0, len(stream))).astype(np.int64)
            tags = stream.tags + jitter
            in_range = (tags >= 0) & (tags <= stream.duration)
            return np.sort(tags[to_a & in_range]), np.sort(tags[~to_a & in_range])

        duration = 50_000
        rng = np.random.default_rng(seed + 100)
        # events at both ends, and events on a 1 ns grid whose sub-ps jitter
        # leaves many of them on the same ps tag
        times = np.sort(np.concatenate([[0, 0, duration, duration],
                                        rng.integers(0, duration, 400, endpoint=True),
                                        1000 * rng.integers(0, 51, 400)]))
        s = TimeTagStream(times, "events", duration)
        for sigma in (2e-4, 0.35, 5.0):
            r = route_events(s, share_a, seed, jitter_sigma_ns=sigma)
            tags_a, tags_b = direct(s, sigma)
            a, b, _ = r.channels
            assert np.array_equal(a.tags, tags_a) and np.array_equal(b.tags, tags_b)
            assert r.n_events == len(s) and r.channels.duration == 50_000
            if sigma == 5.0:
                assert tags_a.size + tags_b.size < len(s)  # jitter pushed tags out

    def test_empty_stream(self):
        s = TimeTagStream(np.empty(0, np.int64), "events", 1_000_000)
        r = route_events(s, 0.5, seed=0)
        assert r.n_events == 0 and r.n_detected == 0
        assert r.channels.duration == 1_000_000

    def test_invalid_arguments(self):
        s = signal_stream(10, 1e3, seed=0)
        with pytest.raises(ValueError):
            route_events(s, 0.5, seed=0, jitter_sigma_ns=-1.0)


@st.composite
def emitter_runs(draw):
    """Sorted runs of event times over [0, duration] ps, often on a coarse lattice so
    that times tie within and across runs, and whether Poisson background joins them."""
    duration = draw(st.sampled_from([50, 1_000, 40_000]))
    step = draw(st.sampled_from([1, 250]))
    times = st.integers(0, duration // step).map(lambda k: k * step)
    runs = [np.sort(np.array(draw(st.lists(times, max_size=60)), dtype=np.int64))
            for _ in range(draw(st.integers(1, 4)))]
    return runs, duration, draw(st.booleans())


class TestBlockedMergeAndRound:
    """The merge in time blocks, then routing with its whole-ps jitter, against one sort
    of the whole and one pass of the routing's draws."""

    @staticmethod
    def one_shot(times, duration, share_a, seed, sigma):
        """route_events' draws on the sorted union, A's first at equal tags."""
        rng = np.random.default_rng(seed)
        on_b = rng.random(times.size) >= share_a
        tags = times
        if sigma > 0.0:
            tags = tags + np.rint(rng.normal(0.0, sigma * 1000.0, times.size)).astype(np.int64)
        keep = (tags >= 0) & (tags <= duration)
        tags, on_b = tags[keep], on_b[keep]
        order = np.lexsort((on_b, tags))
        return tags[order], on_b[order]

    @staticmethod
    def blocked(streams, duration, share_a, seed, sigma, n_blocks, n_cores):
        """TimeTagStream.merge with every stream cut into n_blocks blocks, then route_events;
        also the threads that merged a block."""
        merged_on = set()
        map_on_threads = montecarlo._map_on_threads

        def recording(fn, blocks, n_threads):
            # the first blocks to start, one per core, wait for each other
            meet = meeting(min(n_cores, len(blocks)))

            def block(item):
                merged_on.add(threading.current_thread())
                meet()
                return fn(item)

            return map_on_threads(block, blocks, n_threads)

        with patch.object(montecarlo, "_BLOCKED_MIN", 0), \
                patch.object(montecarlo, "_TIME_BLOCKS", n_blocks), \
                patch.object(montecarlo, "_usable_cores", lambda: n_cores), \
                patch.object(montecarlo, "_map_on_threads", recording):
            merged = TimeTagStream.merge(streams, duration)
            routed = route_events(merged, share_a, seed, jitter_sigma_ns=sigma)
        return merged, routed, merged_on

    @settings(max_examples=150, deadline=None)
    @given(case=emitter_runs(), share_a=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
           sigma=st.sampled_from([0.0, 2e-4, 0.35]), n_blocks=st.sampled_from([2, 8, 40]))
    def test_blocks_match_one_shot_sort_and_rint(self, case, share_a, sigma, n_blocks):
        runs, duration, background = case
        streams = [TimeTagStream(run, "events", duration) for run in runs]
        if background:
            streams.append(poisson_background(20.0 / duration * 1000.0, duration / 1000.0,
                                              seed=len(runs)))
        times = np.sort(np.concatenate([s.tags for s in streams]))
        tags, on_b = self.one_shot(times, duration, share_a, 5, sigma)
        for n_cores in (1, 2, 3):
            merged, routed, _ = self.blocked(streams, duration, share_a, 5, sigma, n_blocks,
                                             n_cores)
            assert merged.tags.tobytes() == times.tobytes()
            assert routed.channels.pooled.tags.tobytes() == tags.tobytes()
            assert routed.channels.on_b.tobytes() == on_b.tobytes()
            assert routed.n_events == times.size

    @pytest.mark.parametrize("n_cores", [1, 2, 3])
    def test_equal_tags_across_block_edges_list_a_first(self, n_cores):
        # two emitters detect at every edge of eight 5 ns blocks, one ps before
        # it and on it: each time is held twice, merged by the threads of two blocks
        duration = 40_000
        edges = np.arange(5_000, 40_000, 5_000)
        run = np.sort(np.concatenate([edges - 1, edges]))
        streams = [TimeTagStream(run, "events", duration), TimeTagStream(run, "events", duration)]
        times = np.sort(np.concatenate([run, run]))
        tags, on_b = self.one_shot(times, duration, 0.5, 8, 0.0)
        assert tags.tolist() == np.repeat(run, 2).tolist()
        # the draws put channel B first in event order on some pairs
        drawn = np.random.default_rng(8).random(times.size) >= 0.5
        assert np.any(drawn[0::2] & ~drawn[1::2])
        _, routed, merged_on = self.blocked(streams, duration, 0.5, 8, 0.0, 8, n_cores)
        assert routed.channels.pooled.tags.tobytes() == tags.tobytes()
        assert routed.channels.on_b.tobytes() == on_b.tobytes()
        assert len(merged_on) == n_cores  # every core met in the first blocks, and no more

    def test_small_streams_stay_on_the_calling_thread(self):
        s = signal_stream(montecarlo._BLOCKED_MIN // 2, 1e5, seed=4)
        with patch.object(montecarlo, "_map_on_threads",
                          wraps=montecarlo._map_on_threads) as mapped, \
                patch.object(montecarlo, "_usable_cores", lambda: 4):
            merged = TimeTagStream.merge([s, s], s.duration)
        assert mapped.call_args.args[1] == [0]
        assert np.array_equal(merged.tags, np.sort(np.concatenate([s.tags, s.tags])))


class TestTieOrder:
    """The router and ChannelTags.pool give one value, A's first at equal tags."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=emitter_runs(), share_a=st.sampled_from([0.3, 0.5, 0.7]),
           sigma=st.sampled_from([0.0, 2e-4]), seed=st.integers(0, 2**16))
    @example(case=([np.repeat(np.arange(0, 1_000, 250), 60)] * 2, 1_000, True),
             share_a=0.5, sigma=0.0, seed=3)  # runs of 120 and more equal tags
    def test_router_and_pool_give_one_value(self, tmp_path, case, share_a, sigma, seed):
        # a lattice of 250 ps, and jitter of 0.2 ps or none, leave many equal tags
        runs, duration, background = case
        streams = [TimeTagStream(run, "events", duration) for run in runs]
        if background:
            streams.append(poisson_background(20.0 / duration * 1000.0, duration / 1000.0,
                                              seed=len(runs)))
        routed = route_events(TimeTagStream.merge(streams, duration), share_a, seed,
                              jitter_sigma_ns=sigma).channels
        a, b, _ = routed
        pooled = ChannelTags.pool(a, b)
        assert routed.pooled.tags.tobytes() == pooled.pooled.tags.tobytes()
        assert routed.on_b.tobytes() == pooled.on_b.tobytes()
        assert routed.duration == pooled.duration
        assert write_time_tags(tmp_path / "routed.ttag", routed).read_bytes() \
            == write_time_tags(tmp_path / "pooled.ttag", a, b).read_bytes()


class TestAnalyticEfficiencies:
    def test_direct_mode(self):
        budget = EfficiencyBudget(p_collect=0.047, p_bs=0.4, p_qe=0.65)
        eff_a, eff_b = expected_channel_efficiencies(
            DetectionGeometry(), budget, DipoleMix(), mode="direct")
        assert eff_a == pytest.approx(0.047 * 0.65 * 0.4, rel=1e-15)
        assert eff_b == pytest.approx(0.047 * 0.65 * 0.6, rel=1e-15)

    def test_disjoint_arcs_sum_to_chain_times_coverage(self):
        geometry = geometry_preset("fourier_default")
        eff_a, eff_b = expected_channel_efficiencies(geometry, IDEAL, DipoleMix())
        f = geometry.fiber_fraction
        assert eff_a == pytest.approx(f, rel=1e-12)
        assert eff_b == pytest.approx(f, rel=1e-12)


class TestValidation:
    def test_geometry_rejects_bad_angles_and_sizes(self):
        with pytest.raises(InvalidGeometry):
            DetectionGeometry(fiber_a_angle=7.0)
        with pytest.raises(InvalidGeometry):
            DetectionGeometry(fiber_effective_diameter=-0.1)
        with pytest.raises(InvalidGeometry):
            DetectionGeometry(ring_radius_bfp=0.0)

    def test_budget_bounds(self):
        with pytest.raises(ValueError):
            EfficiencyBudget(p_qe=1.2)
        with pytest.raises(ValueError):
            EfficiencyBudget(p_survive=-0.1)

    def test_dipole_mix_bounds(self):
        with pytest.raises(ValueError):
            DipoleMix(1.5)


class TestScenarioBudgets:
    def test_glass_preset(self):
        budget, rho = budget_preset("glass")
        assert budget.p_collect == 0.047
        assert budget.p_qe == 0.65
        assert rho is None

    def test_silver_filtered_preset(self):
        budget, rho = budget_preset("silver_filtered")
        assert budget.p_couple_vertical == 0.48
        assert budget.p_couple_horizontal == pytest.approx(0.48 / coupling_ratio(1.04))
        assert budget.p_survive == 0.03 and budget.p_leak == 0.25
        assert rho is None

    def test_unfiltered_background_sets_signal_fraction(self):
        filtered, _ = budget_preset("silver_filtered")
        assert budget_preset("silver_unfiltered") == (filtered, 0.8)

    def test_name_normalisation(self):
        assert budget_preset("Silver-Filtered") == budget_preset("silver_filtered")

    def test_unknown_name(self):
        with pytest.raises(UnknownScenario):
            budget_preset("gold")

    def test_ideal_preset_is_lossless(self):
        budget, rho = budget_preset("ideal")
        assert budget == EfficiencyBudget()
        assert rho is None
