"""Stochastic detection sampler: determinism, statistics, and the slow reference.

The statistical checks use fixed seeds, so they are deterministic regression
tests of distributional properties; tolerances are 3 sigma of the relevant
estimator unless noted.
"""

from __future__ import annotations

import enum
import math
import sys
import threading

import numpy as np
import pytest
from scipy import stats

from spphbt import montecarlo
from spphbt.kinetics import RateSet, derived_params, steady_emission_rate, steady_state
from spphbt.montecarlo import (
    TimeTagStream,
    poisson_background,
    simulate_emitter,
    simulate_ensemble,
)

from rate_oracles import compound_geometric_gaps, float_clock_tags
from thread_checks import meeting


class EmitterState(enum.IntEnum):
    """Levels of the emitter; values match the conventional numbering."""

    GROUND = 1
    EXCITED = 2
    SHELVED = 3


def simulate_trajectory(
    rates: RateSet,
    n_jumps: int,
    seed,
    start: EmitterState = EmitterState.GROUND,
) -> tuple[np.ndarray, np.ndarray]:
    """Jump-by-jump state trajectory, the slow reference sampler.

    Returns (times, states): states[i] is entered at times[i]; times[0] = 0,
    states[0] = start.  Used to check dwell-time laws and occupation
    fractions against the analytic results, and the gap sampler against it.
    """
    if n_jumps < 1:
        raise ValueError("n_jumps must be >= 1")
    rng = np.random.default_rng(seed)
    times = np.zeros(n_jumps + 1)
    states = np.zeros(n_jumps + 1, dtype=np.int8)
    state = EmitterState(start)
    states[0] = state
    t = 0.0
    for i in range(1, n_jumps + 1):
        if state == EmitterState.GROUND:
            if rates.k12 <= 0.0:
                raise ValueError("k12 = 0: ground state is absorbing, no jumps possible")
            t += rng.exponential(1.0 / rates.k12)
            state = EmitterState.EXCITED
        elif state == EmitterState.EXCITED:
            w_rad = rng.exponential(1.0 / rates.k21)
            w_shelf = rng.exponential(1.0 / rates.k23) if rates.k23 > 0.0 else np.inf
            if w_rad <= w_shelf:
                t += w_rad
                state = EmitterState.GROUND
            else:
                t += w_shelf
                state = EmitterState.SHELVED
        else:
            if rates.k31 <= 0.0:
                raise ValueError("k31 = 0: shelved state is absorbing, no jumps possible")
            t += rng.exponential(1.0 / rates.k31)
            state = EmitterState.GROUND
        times[i] = t
        states[i] = state
    return times, states


def count_sigma(rates: RateSet, duration: float, n_emitters: int = 1) -> float:
    """3-level emission counts are not Poisson: shelving bunches them.

    Var(N) = E(N) * F with Fano factor F = 1 + 2 R int_0^inf (g2 - 1) dtau,
    which the two-exponential correlation gives in closed form.
    """
    dp = derived_params(rates)
    rate = steady_emission_rate(rates)
    corr_area = -dp.beta / dp.gamma1
    if dp.gamma2 > 0.0:
        corr_area += (dp.beta - 1.0) / dp.gamma2
    fano = 1.0 + 2.0 * rate * corr_area
    return math.sqrt(n_emitters * rate * duration * fano)


class TestMerge:
    def test_merge_sorts_and_keeps_all_events(self):
        a = TimeTagStream(np.array([1, 5]), "a", 10)
        b = TimeTagStream(np.array([2, 5, 9]), "b", 10)
        m = TimeTagStream.merge([a, b], 10)
        assert m.tags.tolist() == [1, 2, 5, 5, 9]  # equal tags both kept
        assert m.tags.dtype == np.int64 and (m.duration, m.channel_label) == (10, "events")
        assert len(TimeTagStream.merge([], 10)) == 0


class TestEventStream:
    """The sampler's detection stream: a TimeTagStream labelled "events"."""

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            TimeTagStream(np.array([2, 1]), "events", 10)

    def test_rejects_out_of_range_times(self):
        with pytest.raises(ValueError):
            TimeTagStream(np.array([1, 11]), "events", 10)

    def test_rejects_fractional_picoseconds(self):
        # a time or duration in ns read as ps would otherwise be truncated silently
        for times, duration in [([1.7, 2.9, 5.5], 10), ([1, 2, 5], 10.9),
                                ([1.0, math.nan], 10), ([1.0, math.inf], 10), ([1, 2], math.inf)]:
            with pytest.raises(ValueError, match="whole picoseconds"):
                TimeTagStream(np.array(times), "events", duration)
        whole = TimeTagStream(np.array([1.0, 2.0, 5.0]), "events", 10.0)
        assert whole.tags.dtype == np.int64 and whole.tags.tolist() == [1, 2, 5]
        assert whole.duration == 10 and isinstance(whole.duration, int)
        assert len(TimeTagStream(np.empty(0), "events", 10)) == 0


class TestSimulateEmitter:
    def test_deterministic_given_seed(self, silver_rates):
        s1 = simulate_emitter(silver_rates, 1e5, seed=42)
        s2 = simulate_emitter(silver_rates, 1e5, seed=42)
        assert np.array_equal(s1.tags, s2.tags)
        assert len(s1) > 0

    def test_different_seeds_differ(self, silver_rates):
        s1 = simulate_emitter(silver_rates, 1e5, seed=1)
        s2 = simulate_emitter(silver_rates, 1e5, seed=2)
        assert not np.array_equal(s1.tags, s2.tags)

    def test_no_pumping_gives_no_events(self, silver_rates):
        rates = RateSet(0.0, silver_rates.k21, silver_rates.k23, silver_rates.k31)
        assert len(simulate_emitter(rates, 1e5, seed=0)) == 0

    def test_times_within_window_and_sorted(self, silver_rates):
        s = simulate_emitter(silver_rates, 1e5, seed=3)
        assert s.tags.dtype == np.int64 and s.duration == 100_000_000
        assert np.all(np.diff(s.tags) >= 0)
        assert s.tags[0] >= 0 and s.tags[-1] <= 100_000_000

    def test_symmetric_two_level_rate(self):
        # k23 = 0, k12 = k21 = 0.1 -> stationary emission rate 0.05 per ns
        rates = RateSet(0.1, 0.1, 0.0, 0.0)
        s = simulate_emitter(rates, 1e6, seed=5)
        expected = 0.05 * 1e6
        assert abs(len(s) - expected) < 3.0 * math.sqrt(expected)

    def test_silver_rate_matches_steady_state(self, silver_rates):
        duration = 1e7
        s = simulate_emitter(silver_rates, duration, seed=11)
        expected = steady_emission_rate(silver_rates) * duration
        assert abs(len(s) - expected) < 3.0 * count_sigma(silver_rates, duration)

    def test_rate_unbiased_across_seeds(self, silver_rates):
        # mean over independent seeds sharpens the rate check ~1/sqrt(20)
        duration = 1e6
        counts = [len(simulate_emitter(silver_rates, duration, seed=s)) for s in range(20)]
        expected = steady_emission_rate(silver_rates) * duration
        sigma_mean = count_sigma(silver_rates, duration) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - expected) < 3.0 * sigma_mean

    def test_rejects_bad_arguments(self, silver_rates):
        with pytest.raises(ValueError):
            simulate_emitter(silver_rates, 0.0, seed=0)
        for efficiency in (-0.1, 1.1):
            with pytest.raises(ValueError, match="efficiency"):
                simulate_emitter(silver_rates, 1e4, seed=0, efficiency=efficiency)
        with pytest.raises(ValueError, match="absorbing"):
            simulate_emitter(RateSet(0.1, 0.1, 0.2, 0.0), 1e4, seed=0)
        # tags are int64 ps: the duration alone, or with its burn-in, must fit
        for duration in (1e16, 9.2233720368547e15):
            with pytest.raises(ValueError, match=r"2\^63 - 1 ps"):
                simulate_emitter(silver_rates, duration, seed=0)
        with pytest.raises(ValueError, match=r"2\^63 - 1 ps"):
            poisson_background(1e-12, 1e16, seed=0)


@pytest.mark.parametrize("preset", ["silver_rates", "glass_rates"])
class TestDetectedSampler:
    """Sampling only detected photons equals thinning every emission."""

    P = 0.1

    def test_gaps_match_bernoulli_thinned_emission(self, preset, request):
        rates = request.getfixturevalue(preset)
        duration = 2e4 / (self.P * steady_emission_rate(rates))  # ~2e4 detections
        emitted = simulate_emitter(rates, duration, seed=41).tags
        kept = np.random.default_rng(43).random(emitted.size) < self.P
        detected = simulate_emitter(rates, duration, seed=47, efficiency=self.P).tags
        ks = stats.ks_2samp(np.diff(detected), np.diff(emitted[kept]))
        assert ks.pvalue > 0.01

    def test_detected_count_matches_analytic_rate(self, preset, request):
        rates = request.getfixturevalue(preset)
        duration, n, p = 1e7, 4, self.P
        emitted_mean = n * rates.k21 * steady_state(rates).p2 * duration
        # independent thinning: Var = p^2 Var(emitted) + p (1 - p) E(emitted)
        sigma = math.sqrt(p * p * count_sigma(rates, duration, n) ** 2
                          + p * (1.0 - p) * emitted_mean)
        ens = simulate_ensemble(rates, n, duration, 53, efficiency=p)
        assert abs(len(ens) - p * emitted_mean) < 3.0 * sigma


# the builtin rate sets, one without a shelf, and one whose correlation oscillates
GAP_CASES = {
    "silver": RateSet.from_lifetimes(tau12=27.0, tau21=9.7, tau23=27.4, tau31=102.0),
    "glass": RateSet.from_lifetimes(tau12=51.0, tau21=60.0, tau23=23.0, tau31=300.0),
    "no_shelf": RateSet.from_lifetimes(tau12=27.0, tau21=9.7, tau23=math.inf, tau31=math.inf),
    "oscillatory": RateSet(0.5, 0.2, 0.8, 0.3),
}
EFFICIENCIES = [1.0, 0.14, 1e-3, 1e-5]


@pytest.mark.parametrize("efficiency", EFFICIENCIES)
@pytest.mark.parametrize("case", GAP_CASES)
class TestSegmentSampler:
    """The sampler's gaps, from the poles or as segments between shelvings, equal gaps
    drawn cycle by cycle."""

    def test_segment_rates_factor_the_cycle_sum(self, case, efficiency):
        rates = GAP_CASES[case]
        lam1, lam2 = montecarlo._segment_rates(rates, efficiency)
        k2 = rates.k21 + rates.k23
        p_end = (rates.k21 * efficiency + rates.k23) / k2
        assert lam1 >= lam2 > 0.0
        assert lam1 + lam2 == pytest.approx(rates.k12 + k2, rel=1e-12)
        assert lam1 * lam2 == pytest.approx(p_end * rates.k12 * k2, rel=1e-12)
        if efficiency == 1.0:  # every cycle ends a segment
            assert sorted((lam1, lam2)) == pytest.approx(sorted((rates.k12, k2)), rel=1e-12)

    def test_gaps_match_the_compound_geometric_reference(self, case, efficiency):
        rates = GAP_CASES[case]
        seed = 100 * list(GAP_CASES).index(case) + EFFICIENCIES.index(efficiency)
        mean_gap = 1.0 / (steady_emission_rate(rates) * efficiency)
        gaps = np.diff(simulate_emitter(rates, 4e4 * mean_gap, seed,
                                        efficiency=efficiency).tags) / 1000.0
        reference = compound_geometric_gaps(rates, efficiency, gaps.size,
                                            np.random.default_rng(seed + 50))
        assert stats.ks_2samp(gaps, reference).pvalue > 0.01
        sem = gaps.std() / math.sqrt(gaps.size)
        assert abs(gaps.mean() - mean_gap) < 3.0 * sem


class TestGapPoles:
    """The gap's three real poles, E1/mu_a + E2/mu_b + max(E3 - t0, 0)/mu_c, carry its law."""

    # 1.26e-4 is the paper budget's efficiency
    @pytest.mark.parametrize("efficiency", [1.0, 0.14, 1e-3, 1.26e-4, 1e-7])
    @pytest.mark.parametrize("case", ["silver", "glass"])
    def test_poles_give_the_moments_of_the_gap(self, case, efficiency):
        rates = GAP_CASES[case]
        mu_a, mu_b, mu_c = montecarlo._gap_poles(rates, efficiency)
        assert mu_a >= mu_b >= mu_c > 0.0
        assert mu_c < rates.k31
        # J ~ Geometric(q) segments, Exp(lam1) + Exp(lam2), and J - 1 shelvings, Exp(k31)
        lam1, lam2 = montecarlo._segment_rates(rates, efficiency)
        q = rates.k21 * efficiency / (rates.k21 * efficiency + rates.k23)
        segment, shelf = 1.0 / lam1 + 1.0 / lam2, 1.0 / rates.k31
        mean_gap = (segment + (1.0 - q) * shelf) / q
        var_gap = ((lam1 ** -2 + lam2 ** -2 + (1.0 - q) * shelf ** 2) / q
                   + (1.0 - q) / q ** 2 * (segment + shelf) ** 2)
        assert mean_gap == pytest.approx(
            1.0 / (steady_emission_rate(rates) * efficiency), rel=1e-12)
        p = 1.0 - mu_c / rates.k31  # the shelf factor's weight off 0
        assert 1.0 / mu_a + 1.0 / mu_b + p / mu_c == pytest.approx(mean_gap, rel=1e-12)
        assert (mu_a ** -2 + mu_b ** -2 + p * (2.0 - p) / mu_c ** 2
                == pytest.approx(var_gap, rel=1e-12))

    @pytest.mark.parametrize("efficiency", EFFICIENCIES)
    @pytest.mark.parametrize("case", ["no_shelf", "oscillatory"])
    def test_without_three_real_poles_the_segments_are_drawn(self, case, efficiency):
        assert montecarlo._gap_poles(GAP_CASES[case], efficiency) is None


class ShortGaps:
    """A generator whose every standard exponential is 1e-3: gaps far below their mean."""

    def standard_exponential(self, size=None, out=None):
        if out is None:
            return np.full(size, 1e-3)
        out.fill(1e-3)
        return out


def test_a_run_past_its_expected_count_keeps_every_tag(silver_rates):
    # the run's array holds its expected count and four sd; ~2500 times that grows it
    times = montecarlo._emission_times(silver_rates, 0.14, 0, 10**9, ShortGaps())
    lam1, lam2, _ = (mu / 1000.0 for mu in montecarlo._gap_poles(silver_rates, 0.14))
    gap = 1e-3 / lam1 + 1e-3 / lam2  # ps; 1e-3 is below t0, so the shelf adds 0
    expected = 10**9 * 0.14 * steady_emission_rate(silver_rates) / 1000.0
    assert times.size > 2000 * expected
    # no tag lost at a growth: every step is one gap, from the first to the last
    assert set(np.diff(times).tolist()) <= {math.floor(gap), math.ceil(gap)}
    assert 0 < times[0] <= math.ceil(gap) and 10**9 - gap < times[-1] <= 10**9


class TestPicosecondClock:
    """Detections are int64 ps from the sampler on; no absolute time is held in a float."""

    def test_late_tags_keep_every_picosecond(self, silver_rates):
        # on a float64 ns clock every tag past 5e13 ns lies on a lattice of 8 ps or more
        late = 5 * 10**16  # ps
        for stream in (simulate_emitter(silver_rates, 1e14, 71, efficiency=1e-7),
                       poisson_background(1.2e-9, 1e14, 72)):
            tags = stream.tags[stream.tags > late]
            assert tags.size > 40_000
            assert np.gcd.reduce(np.diff(tags)) == 1
            odd = np.count_nonzero(tags % 2) / tags.size
            assert abs(odd - 0.5) < 3.0 * math.sqrt(0.25 / tags.size)

    @pytest.mark.parametrize("efficiency", [1.0, 0.14])
    @pytest.mark.parametrize("preset", ["silver_rates", "glass_rates"])
    def test_tags_stay_within_a_picosecond_of_the_float_clock(self, preset, efficiency,
                                                               request):
        rates = request.getfixturevalue(preset)
        # ~2e4 detections: one chunk, whose draws the float clock repeats
        duration = 2e4 / (efficiency * steady_emission_rate(rates))
        tags = simulate_emitter(rates, duration, 81, efficiency=efficiency).tags
        reference = float_clock_tags(rates, efficiency, duration, 81)
        assert tags.size == reference.size
        assert np.all(np.abs(tags - reference) <= 1)
        # the int clock rounds the burn-in and the times apart, so about a third move
        assert 0.1 < np.mean(tags != reference) < 0.5


class TestSimulateEnsemble:
    def test_single_emitter_equals_substream(self, silver_rates):
        ens = simulate_ensemble(silver_rates, 1, 1e5, 9)
        child = np.random.SeedSequence(9).spawn(2)[0]
        solo = simulate_emitter(silver_rates, 1e5, child)
        assert np.array_equal(ens.tags, solo.tags)

    def test_deterministic_and_sorted(self, silver_rates):
        e1 = simulate_ensemble(silver_rates, 5, 1e5, 21)
        e2 = simulate_ensemble(silver_rates, 5, 1e5, 21)
        assert np.array_equal(e1.tags, e2.tags)
        assert np.all(np.diff(e1.tags) >= 0.0)

    def test_rate_scales_with_n(self, silver_rates):
        duration, n = 1e6, 10
        ens = simulate_ensemble(silver_rates, n, duration, 2)
        expected = n * steady_emission_rate(silver_rates) * duration
        assert abs(len(ens) - expected) < 3.0 * count_sigma(silver_rates, duration, n)

    def test_background_carried_at_total_rate(self, silver_rates):
        # the background rate is the total over both detectors, added as given
        rate, duration = 0.002, 1e6
        clean = simulate_ensemble(silver_rates, 1, duration, 4)
        ens = simulate_ensemble(silver_rates, 1, duration, 4, background_rate=rate)
        background = poisson_background(rate, duration, np.random.SeedSequence(4).spawn(2)[1])
        assert np.array_equal(ens.tags, np.sort(np.concatenate([clean.tags, background.tags])))
        expected = rate * duration
        assert abs(len(background) - expected) < 3.0 * math.sqrt(expected)

    @pytest.mark.parametrize("duration", [6e6, 1e5], ids=["above_gate", "below_gate"])
    def test_thread_count_never_changes_the_result(self, silver_rates, monkeypatch, duration):
        def sample():
            return simulate_ensemble(silver_rates, 4, duration, 31, background_rate=1e-3).tags

        above = steady_emission_rate(silver_rates) * duration >= montecarlo._THREADED_MIN_DETECTIONS
        assert above == (duration > 1e6)
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 8)
        # every usable core above the gate; the map caps it at the 4 emitters
        assert montecarlo._worker_count(silver_rates, duration, 1.0) == (8 if above else 1)
        reference = sample()
        # Thread objects, not idents: the system may reuse an exited thread's ident,
        # and the set keeps each object alive
        sampled_on: set[threading.Thread] = set()
        original = montecarlo.simulate_emitter

        def recording(*args, **kwargs):
            sampled_on.add(threading.current_thread())
            meet()
            return original(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "simulate_emitter", recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL over as often as possible
        try:
            for n_threads in (1, 2, 3, 8):
                sampled_on.clear()
                monkeypatch.setattr(montecarlo, "_worker_count", lambda *args: n_threads)
                # the threads claim the emitters as they free up: the first ones meet, so
                # each thread the map may use samples one
                meet = meeting(min(n_threads, 4))
                assert np.array_equal(sample(), reference)
                assert len(sampled_on) == min(n_threads, 4)
        finally:
            sys.setswitchinterval(interval)

    def test_worker_exception_reaches_the_caller(self, silver_rates, monkeypatch):
        original = montecarlo.simulate_emitter

        def failing(rates, duration, seed, **kwargs):
            if seed.spawn_key[-1] == 2:  # an item in the middle
                raise RuntimeError("emitter 2 failed")
            return original(rates, duration, seed, **kwargs)

        monkeypatch.setattr(montecarlo, "simulate_emitter", failing)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda *args: 3)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="emitter 2 failed"):
            simulate_ensemble(silver_rates, 6, 1e5, 5)
        assert threading.active_count() == before

    def test_lowest_index_error_is_raised_whichever_fails_first(self):
        failed = threading.Event()
        ran_on: dict[int, threading.Thread] = {}

        def fn(i):
            ran_on[i] = threading.current_thread()
            if i == 1:
                failed.set()
                raise RuntimeError("item 1 failed")
            assert failed.wait(5)
            ran_on[1].join(5)  # item 1's error is recorded before item 0 fails
            assert not ran_on[1].is_alive()
            raise ValueError("item 0 failed")

        before = threading.active_count()
        with pytest.raises(ValueError, match="item 0 failed"):
            montecarlo._map_on_threads(fn, [0, 1, 2, 3], 2)
        # item 1's failure ended the claims: no thread started items 2 and 3
        assert sorted(ran_on) == [0, 1] and ran_on[0] is threading.current_thread()
        assert ran_on[1] is not ran_on[0]
        assert threading.active_count() == before

    def test_a_failure_ends_the_claims(self):
        # item 1 fails on the worker; item 0 then ends well, but its thread claims no more
        failed = threading.Event()
        ran_on: dict[int, threading.Thread] = {}

        def fn(i):
            ran_on[i] = threading.current_thread()
            if i == 1:
                failed.set()
                raise RuntimeError("item 1 failed")
            if i == 0:
                assert failed.wait(5)
                ran_on[1].join(5)
                assert not ran_on[1].is_alive()
            return i

        with pytest.raises(RuntimeError, match="item 1 failed"):
            montecarlo._map_on_threads(fn, [0, 1, 2, 3], 2)
        assert sorted(ran_on) == [0, 1]

    @pytest.mark.parametrize("n_threads", [1, 2, 5])
    def test_a_failed_item_never_stops_an_earlier_one(self, n_threads):
        ran = []

        def fn(i):
            ran.append(i)
            if i in (7, 11, 30):
                raise RuntimeError(f"item {i} failed")
            return i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL over as often as possible
        try:
            for _ in range(20):
                ran.clear()
                before = threading.active_count()
                with pytest.raises(RuntimeError, match="item 7 failed"):
                    montecarlo._map_on_threads(fn, list(range(48)), n_threads)
                assert threading.active_count() == before
                # every earlier item ran; a thread starts no item once a lower one has failed
                assert set(range(8)) <= set(ran)
                if n_threads == 1:
                    assert ran == list(range(8))
        finally:
            sys.setswitchinterval(interval)
        assert montecarlo._map_on_threads(fn, [0, 1, 2], n_threads) == [0, 1, 2]

    def test_config_validation(self, silver_rates, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 4)
        # the emitters' own checks run on the sampling threads above the gate
        assert montecarlo._worker_count(silver_rates, 6e6, 1.01) == 4
        before = threading.active_count()
        for n_emitters, duration, kwargs in [
            (1, -1.0, {}),
            (1, 0.0, {}),
            (1, math.nan, {}),
            (1, math.inf, {}),
            (0, 1.0, {}),
            (1.5, 1.0, {}),
            (1, 1.0, {"efficiency": 1.1}),
            (1, 1.0, {"efficiency": -0.1}),
            (1, 1.0, {"background_rate": -0.1}),
            (1, 1.0, {"background_rate": math.nan}),
            (4, 6e6, {"efficiency": 1.01}),
        ]:
            with pytest.raises(ValueError):
                simulate_ensemble(silver_rates, n_emitters, duration, 0, **kwargs)
            assert threading.active_count() == before


class TestCoreBudget:
    @pytest.mark.parametrize("n_threads,items", [(1, range(10)), (4, [0])],
                             ids=["one_thread", "one_item"])
    def test_a_stage_that_cannot_be_shared_is_a_plain_loop(self, monkeypatch, n_threads, items):
        def unusable(*args, **kwargs):
            raise AssertionError("a plain loop starts no thread and takes no lock")

        monkeypatch.setattr(threading, "Lock", unusable)
        monkeypatch.setattr(threading.Thread, "start", unusable)
        ran = []
        results = montecarlo._map_on_threads(
            lambda i: ran.append((i, threading.current_thread())) or -i, list(items), n_threads)
        assert results == [-i for i in items]
        assert ran == [(i, threading.current_thread()) for i in items]

    @pytest.mark.parametrize("cores", [1, 2, 3, 4])
    def test_workers_leave_the_usable_cores_unchanged(self, monkeypatch, cores):
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        start = threading.Thread.start
        started = []
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        seen = montecarlo._map_on_threads(lambda _: montecarlo._usable_cores(), [0, 1], cores)
        # one thread per item at most, the caller's included; no stage reserves a core,
        # so inside and after it every item sees all the cores of the affinity mask
        assert len(started) == min(2, cores) - 1
        assert seen == [cores] * 2
        assert montecarlo._usable_cores() == cores

    def test_a_thread_done_with_its_item_takes_the_next_unclaimed_one(self):
        # on two threads, item 0 waits until item 1 has started; item 1 then holds its
        # thread until item 0's thread, free again, has run one of the items after it
        released, helped = threading.Event(), threading.Event()
        ran_on: dict[int, threading.Thread] = {}

        def fn(i):
            ran_on[i] = threading.current_thread()
            if i == 0:
                assert released.wait(5)
            elif i == 1:
                released.set()
                assert helped.wait(5)
            elif threading.current_thread() is ran_on[0]:
                helped.set()
            return i

        assert montecarlo._map_on_threads(fn, list(range(6)), 2) == list(range(6))
        assert ran_on[0] is threading.current_thread()  # the caller runs item 0
        assert ran_on[1] is not ran_on[0] and helped.is_set()

    def test_every_item_is_claimed_once_under_contention(self):
        # five threads on fewer cores, each outer item opening an inner stage, with the
        # interpreter switching threads as often as it can: a claim lost or taken twice
        # shows as an item run twice or never
        runs = [0] * 400
        lock = threading.Lock()

        def inner(i):
            with lock:
                runs[i] += 1
            return i

        def outer(j):
            return montecarlo._map_on_threads(inner, list(range(40 * j, 40 * j + 40)), 5)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = montecarlo._map_on_threads(outer, list(range(10)), 5)
        finally:
            sys.setswitchinterval(interval)
        assert results == [list(range(40 * j, 40 * j + 40)) for j in range(10)]
        assert runs == [1] * 400

    @pytest.mark.parametrize("failing", ["item", "thread_start"])
    def test_a_failed_map_raises_and_joins_its_threads(self, monkeypatch, failing):
        def fail(*args):
            raise RuntimeError(f"{failing} failed")

        if failing == "thread_start":
            monkeypatch.setattr(threading.Thread, "start", fail)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{failing} failed"):
            montecarlo._map_on_threads(fail, [0, 1, 2], 3)
        assert threading.active_count() == before


class TestTrajectoryReference:
    def test_ground_dwell_times_are_exponential(self, silver_rates):
        # Kolmogorov-Smirnov at the 1% level on >= 1e4 dwell samples
        times, states = simulate_trajectory(silver_rates, 60_000, seed=17)
        dwell = np.diff(times)[states[:-1] == EmitterState.GROUND]
        assert dwell.size >= 10_000
        ks = stats.kstest(dwell, "expon", args=(0.0, 1.0 / silver_rates.k12))
        assert ks.pvalue > 0.01

    def test_excited_dwell_rate_is_k21_plus_k23(self, silver_rates):
        times, states = simulate_trajectory(silver_rates, 60_000, seed=23)
        dwell = np.diff(times)[states[:-1] == EmitterState.EXCITED]
        total = silver_rates.k21 + silver_rates.k23
        ks = stats.kstest(dwell, "expon", args=(0.0, 1.0 / total))
        assert ks.pvalue > 0.01

    def test_occupation_matches_steady_state(self, silver_rates):
        times, states = simulate_trajectory(silver_rates, 200_000, seed=31)
        dt = np.diff(times)
        span = times[-1] - times[0]
        occ = np.array([dt[states[:-1] == lvl].sum() / span
                        for lvl in (EmitterState.GROUND, EmitterState.EXCITED,
                                    EmitterState.SHELVED)])
        ss = np.array(steady_state(silver_rates))
        # dwell sums over ~2e5 jumps: allow half a percent absolute per level
        assert np.max(np.abs(occ - ss)) < 5e-3

    def test_fast_sampler_agrees_with_reference(self, silver_rates):
        # compare the chunked sampler's inter-emission law against radiative
        # intervals extracted from the jump-by-jump reference
        fast = simulate_emitter(silver_rates, 2e6, seed=101).tags / 1000.0
        times, states = simulate_trajectory(silver_rates, 300_000, seed=202)
        radiative = (states[:-1] == EmitterState.EXCITED) & (states[1:] == EmitterState.GROUND)
        ref = times[1:][radiative]
        ks = stats.ks_2samp(np.diff(fast), np.diff(ref))
        assert ks.pvalue > 0.01

    def test_absorbing_states_raise(self, silver_rates):
        with pytest.raises(ValueError):
            simulate_trajectory(RateSet(0.0, 0.1, 0.0, 0.0), 10, seed=0)
        with pytest.raises(ValueError):
            simulate_trajectory(RateSet(0.1, 0.1, 0.2, 0.0), 10_000, seed=0)


class TestPoissonBackground:
    def test_zero_rate_is_empty(self):
        assert len(poisson_background(0.0, 1e6, seed=0)) == 0

    def test_count_statistics(self):
        s = poisson_background(0.01, 1e6, seed=13)
        assert abs(len(s) - 10_000) < 300  # 3 sigma of Poisson(1e4)
        assert np.all(np.diff(s.tags) >= 0)

    def test_uniform_conditional_law(self):
        s = poisson_background(0.01, 1e6, seed=29)
        ks = stats.kstest(s.tags / s.duration, "uniform")
        assert ks.pvalue > 0.01

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            poisson_background(-1.0, 1e3, seed=0)
