"""Kinetics layer: rate algebra, steady state, and the ODE correlation oracle.

The two-exponential shape parameters come in two flavours: the conventional
approximate maps (derived_params / invert_rates) and the exact eigenvalue
solution (exact_decay_params / exact_invert_rates).  Tests pin both, and pin
the measured size of the approximation error so it cannot silently change.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from rate_oracles import conditional_intensity, rate_matrix
from spphbt.errors import DegenerateRates, InvalidInversion
from spphbt.kinetics import (
    DerivedParams,
    EnsembleConfig,
    RateSet,
    derived_params,
    exact_decay_params,
    exact_invert_rates,
    g2_model,
    invert_rates,
    quantum_yield,
    steady_emission_rate,
    steady_state,
)



def g2_zero(config: EnsembleConfig) -> float:
    """Zero-lag value 1 - rho^2 / N, independent of the rates."""
    return 1.0 - config.rho ** 2 / config.n_emitters


rate_values = st.floats(min_value=1e-3, max_value=10.0,
                        allow_nan=False, allow_infinity=False)


class TestRateSet:
    def test_lifetime_roundtrip(self, silver_rates):
        assert silver_rates.lifetimes == pytest.approx((27.0, 9.7, 27.4, 102.0), rel=1e-12)
        again = RateSet.from_lifetimes(*silver_rates.lifetimes)
        assert again == silver_rates

    def test_infinite_lifetime_means_zero_rate(self):
        r = RateSet.from_lifetimes(27.0, 9.7, math.inf, 102.0)
        assert r.k23 == 0.0
        assert r.lifetimes[2] == math.inf

    @pytest.mark.parametrize("bad", [
        dict(k12=-0.1, k21=1.0, k23=0.0, k31=0.0),
        dict(k12=0.1, k21=0.0, k23=0.0, k31=0.0),
        dict(k12=0.1, k21=math.nan, k23=0.0, k31=0.0),
        dict(k12=0.1, k21=math.inf, k23=0.0, k31=0.0),
    ])
    def test_rejects_invalid_rates(self, bad):
        with pytest.raises(ValueError):
            RateSet(**bad)

    def test_rejects_nonpositive_lifetime(self):
        with pytest.raises(ValueError):
            RateSet.from_lifetimes(27.0, 0.0, 27.4, 102.0)


class TestDerivedParams:
    def test_silver_values(self, silver_rates):
        dp = derived_params(silver_rates)
        assert dp.gamma1 == pytest.approx(0.1401298205421917, rel=1e-12)
        assert dp.gamma2 == pytest.approx(0.01945009591577039, rel=1e-12)
        assert dp.beta == pytest.approx(1.98390978340858, rel=1e-12)

    def test_glass_values(self, glass_rates):
        dp = derived_params(glass_rates)
        assert dp.gamma1 == pytest.approx(0.036274509803921565, rel=1e-12)
        assert dp.gamma2 == pytest.approx(0.026835095965530752, rel=1e-12)
        assert dp.beta == pytest.approx(8.050528789659225, rel=1e-12)

    def test_no_shelving_is_two_level(self):
        dp = derived_params(RateSet(0.05, 0.2, 0.0, 0.01))
        assert dp.beta == 1.0
        assert dp.gamma2 == 0.01
        assert dp.gamma1 == pytest.approx(0.25)

    def test_dead_shelf_without_flux_is_allowed(self):
        dp = derived_params(RateSet(0.05, 0.2, 0.0, 0.0))
        assert (dp.gamma2, dp.beta) == (0.0, 1.0)

    def test_diverging_beta_raises(self):
        with pytest.raises(DegenerateRates):
            derived_params(RateSet(0.05, 0.2, 0.1, 0.0))

    def test_param_type_validation(self):
        with pytest.raises(ValueError):
            DerivedParams(gamma1=0.0, gamma2=0.1, beta=2.0)
        with pytest.raises(ValueError):
            DerivedParams(gamma1=0.1, gamma2=0.1, beta=0.5)
        with pytest.raises(ValueError):
            DerivedParams(gamma1=0.1, gamma2=0.1, beta=2.0, beta_excess=0.5)
        assert DerivedParams(gamma1=0.1, gamma2=0.1, beta=2.0).beta_excess == 1.0


class TestG2Model:
    def test_zero_lag_matches_closed_form(self):
        cfg = EnsembleConfig(n_emitters=10, rho=1.0)
        dp = DerivedParams(0.14, 0.019, 1.98)
        assert g2_model(0.0, dp, cfg) == pytest.approx(0.9, abs=1e-15)
        assert g2_zero(cfg) == pytest.approx(0.9, abs=1e-15)

    def test_g2_zero_examples(self):
        assert g2_zero(EnsembleConfig(1, 1.0)) == 0.0
        assert g2_zero(EnsembleConfig(10, 1.0)) == pytest.approx(0.9)
        assert g2_zero(EnsembleConfig(10, 0.0)) == 1.0

    def test_long_lag_limit(self, silver_rates):
        dp = derived_params(silver_rates)
        assert g2_model(1e6, dp) == pytest.approx(1.0, abs=1e-12)

    def test_negative_lag_is_mirrored(self, silver_rates):
        dp = derived_params(silver_rates)
        tau = np.array([-30.0, -5.0, 5.0, 30.0])
        vals = g2_model(tau, dp)
        assert vals[0] == vals[3] and vals[1] == vals[2]

    @given(g1=rate_values, g2r=st.floats(0.01, 0.99), beta=st.floats(1.0, 10.0),
           n=st.integers(1, 50), rho=st.floats(0.0, 1.0))
    @settings(deadline=None)
    def test_bounded_deviation_from_one(self, g1, g2r, beta, n, rho):
        dp = DerivedParams(g1, g1 * g2r, beta)
        cfg = EnsembleConfig(n, rho)
        tau = np.linspace(0.0, 20.0 / g1, 64)
        bound = (2.0 * beta - 1.0) * rho ** 2 / n + 1e-12
        assert np.all(np.abs(g2_model(tau, dp, cfg) - 1.0) <= bound)
        assert g2_model(0.0, dp, cfg) == pytest.approx(g2_zero(cfg), abs=1e-12)


class TestQuantumYield:
    def test_table_values(self, silver_rates, glass_rates):
        assert quantum_yield(silver_rates) == pytest.approx(0.738544474393531, rel=1e-12)
        assert quantum_yield(glass_rates) == pytest.approx(0.27710843373493976, rel=1e-12)
        # headline percentages
        assert round(100 * quantum_yield(silver_rates)) == 74
        assert round(100 * quantum_yield(glass_rates)) == 28

    def test_no_shelving_yield_is_one(self):
        assert quantum_yield(RateSet(0.1, 0.2, 0.0, 0.0)) == 1.0


class TestInversion:
    def test_silver_roundtrip(self, silver_rates):
        dp = derived_params(silver_rates)
        back = invert_rates(dp, k12=1.0 / 27.0)
        for name in ("k12", "k21", "k23", "k31"):
            assert getattr(back, name) == pytest.approx(getattr(silver_rates, name), rel=1e-12)

    def test_glass_roundtrip(self, glass_rates):
        dp = derived_params(glass_rates)
        back = invert_rates(dp, k12=1.0 / 51.0)
        for name in ("k12", "k21", "k23", "k31"):
            assert getattr(back, name) == pytest.approx(getattr(glass_rates, name), rel=1e-12)

    def test_beta_one_collapses_to_two_level(self):
        r = invert_rates(DerivedParams(0.2, 0.05, 1.0), k12=0.1)
        assert r.k23 == 0.0
        assert r.k31 == pytest.approx(0.05)

    @pytest.mark.parametrize("k12", [0.0, -0.1, 0.2, 0.5, math.nan])
    def test_pump_rate_outside_gamma1_rejected(self, k12):
        with pytest.raises(InvalidInversion):
            invert_rates(DerivedParams(0.2, 0.05, 2.0), k12=k12)

    @given(k12=rate_values, k21=rate_values, k23=rate_values, k31=rate_values)
    @example(k12=0.001, k21=4, k23=0.001, k31=3)  # beta - 1 = 8.3e-8
    @settings(deadline=None)
    def test_roundtrip_property(self, k12, k21, k23, k31):
        r = RateSet(k12, k21, k23, k31)
        back = invert_rates(derived_params(r), r.k12)
        for name in ("k12", "k21", "k23", "k31"):
            assert getattr(back, name) == pytest.approx(getattr(r, name), rel=1e-9, abs=1e-12)


class TestSteadyState:
    def test_symmetric_two_level(self):
        p = steady_state(RateSet(0.1, 0.1, 0.0, 0.0))
        assert p.p2 == pytest.approx(0.5, abs=1e-12)
        assert p.p3 == 0.0

    def test_no_pumping(self):
        p = steady_state(RateSet(0.0, 0.3, 0.1, 0.2))
        assert (p.p1, p.p2, p.p3) == (1.0, 0.0, 0.0)

    def test_silver_against_balance_equations(self, silver_rates):
        # independent closed form: p1 = (k21+k23)/k12 p2, p3 = k23/k31 p2
        r = silver_rates
        p2 = 1.0 / ((r.k21 + r.k23) / r.k12 + 1.0 + r.k23 / r.k31)
        p = steady_state(r)
        assert p.p2 == pytest.approx(p2, rel=1e-12)
        assert p.p1 == pytest.approx((r.k21 + r.k23) / r.k12 * p2, rel=1e-12)
        assert p.p3 == pytest.approx(r.k23 / r.k31 * p2, rel=1e-12)

    def test_absorbing_shelf_rejected(self):
        # no stationary state exists, so no such rate set can be built
        with pytest.raises(DegenerateRates, match="absorbing"):
            RateSet(**{"k12": 0.1, "k21": 0.2, "k23": 0.05, "k31": 0.0})
        with pytest.raises(DegenerateRates, match="absorbing"):
            RateSet.from_lifetimes(27.0, 9.7, 27.4, math.inf)

    @given(k12=rate_values, k21=rate_values, k23=rate_values, k31=rate_values)
    @settings(deadline=None)
    def test_simplex_property(self, k12, k21, k23, k31):
        p = np.array(steady_state(RateSet(k12, k21, k23, k31)))
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0.0) and np.all(p <= 1.0)
        # stationarity of the master equation
        r = RateSet(k12, k21, k23, k31)
        assert np.allclose(rate_matrix(r) @ p, 0.0, atol=1e-12)

    def test_emission_rate_is_k21_p2(self, silver_rates):
        expected = silver_rates.k21 * steady_state(silver_rates).p2
        assert steady_emission_rate(silver_rates) == pytest.approx(expected, rel=1e-15)
        assert steady_emission_rate(silver_rates) == pytest.approx(0.012140654354684345, rel=1e-12)


class TestConditionalIntensity:
    def test_starts_at_zero_and_relaxes_to_one(self, silver_rates):
        tau = np.array([0.0, 1.0, 10.0, 50.0, 2000.0])
        g = conditional_intensity(silver_rates, tau)
        assert g[0] == 0.0
        assert g[-1] == pytest.approx(1.0, abs=1e-6)

    def test_matches_matrix_exponential(self, silver_rates):
        tau = np.linspace(0.0, 200.0, 41)
        g = conditional_intensity(silver_rates, tau)
        q = rate_matrix(silver_rates)
        p2_ss = steady_state(silver_rates).p2
        ref = np.array([(expm(q * t) @ [1.0, 0.0, 0.0])[1] / p2_ss for t in tau])
        assert np.max(np.abs(g - ref)) < 1e-8

    def test_rejects_unsorted_or_negative_grid(self, silver_rates):
        with pytest.raises(ValueError):
            conditional_intensity(silver_rates, [1.0, 0.5])
        with pytest.raises(ValueError):
            conditional_intensity(silver_rates, [-1.0, 0.5])

    def test_two_level_matches_model_to_1e6(self):
        # with k23 = 0 the two-exponential form is exact, not approximate
        r = RateSet(k12=1.0 / 27.0, k21=1.0 / 9.7, k23=0.0, k31=0.01)
        tau = np.linspace(0.0, 10.0 / derived_params(r).gamma1, 400)
        g_ode = conditional_intensity(r, tau)
        g_closed = g2_model(tau, derived_params(r))
        assert np.max(np.abs(g_ode - g_closed)) < 1e-6

    def test_exact_eigenform_matches_ode(self, silver_rates, glass_rates):
        tau = np.linspace(0.0, 300.0, 601)
        for r in (silver_rates, glass_rates):
            resid = np.abs(g2_model(tau, exact_decay_params(r))
                           - conditional_intensity(r, tau))
            assert resid.max() < 1e-8

    def test_approximate_maps_residual_is_documented(self, silver_rates, glass_rates):
        # The conventional gamma1/gamma2/beta maps are only first order in the
        # shelving rates.  Pin the measured deviation from the exact curve so
        # any change to either side shows up here.
        tau = np.linspace(0.0, 300.0, 3001)
        resid_ag = np.abs(g2_model(tau, derived_params(silver_rates))
                          - conditional_intensity(silver_rates, tau))
        assert resid_ag.max() == pytest.approx(0.1355, abs=0.002)
        assert resid_ag[200] == pytest.approx(0.0624, abs=0.002)  # tau = 20 ns
        resid_gl = np.abs(g2_model(tau, derived_params(glass_rates))
                          - conditional_intensity(glass_rates, tau))
        assert resid_gl.max() == pytest.approx(1.99, abs=0.02)


class TestExactDecayParams:
    def test_eigenvalues_match_rate_matrix(self, silver_rates, glass_rates):
        for r in (silver_rates, glass_rates):
            ex = exact_decay_params(r)
            eig = np.sort(np.linalg.eigvals(rate_matrix(r)).real)
            assert ex.gamma1 == pytest.approx(-eig[0], rel=1e-10)
            assert ex.gamma2 == pytest.approx(-eig[1], rel=1e-10)
            assert abs(eig[2]) < 1e-12

    def test_silver_frozen_values(self, silver_rates):
        ex = exact_decay_params(silver_rates)
        assert ex.gamma1 == pytest.approx(0.1680862625924267, rel=1e-12)
        assert ex.gamma2 == pytest.approx(0.018343829883355936, rel=1e-12)
        assert ex.beta == pytest.approx(1.9777790239186508, rel=1e-12)

    def test_exact_roundtrip(self, silver_rates, glass_rates):
        for r, k12 in ((silver_rates, 1.0 / 27.0), (glass_rates, 1.0 / 51.0)):
            back = exact_invert_rates(exact_decay_params(r), k12)
            for name in ("k12", "k21", "k23", "k31"):
                assert getattr(back, name) == pytest.approx(getattr(r, name), rel=1e-10)

    def test_oscillatory_rates_rejected(self):
        with pytest.raises(DegenerateRates):
            exact_decay_params(RateSet(1.0, 0.01, 1.0, 1.0))

    def test_fast_deshelving_uses_mirrored_labeling(self):
        # deshelving faster than the optical cycle flips the natural amplitude
        # sign; the mirrored labeling keeps beta >= 1 and still round-trips
        for r in (RateSet(1.0, 1.0, 1.0, 6.0), RateSet(0.1, 0.1, 0.0, 1.0)):
            ex = exact_decay_params(r)
            assert ex.beta >= 1.0
            back = exact_invert_rates(ex, r.k12)
            for name in ("k12", "k21", "k23", "k31"):
                assert getattr(back, name) == pytest.approx(getattr(r, name),
                                                            rel=1e-9, abs=1e-12)

    @given(k12=rate_values, k21=rate_values, k23=rate_values, k31=rate_values)
    @example(k12=0.001, k21=0.00390625, k23=0.0078125, k31=5)  # raw amplitude -8e-10
    @settings(deadline=None)
    def test_exact_roundtrip_property(self, k12, k21, k23, k31):
        r = RateSet(k12, k21, k23, k31)
        s = k12 + k21 + k23 + k31
        p = k31 * (k12 + k21 + k23) + k12 * k23
        assume(s * s - 4.0 * p > 1e-6)  # keep away from the oscillatory boundary
        try:
            ex = exact_decay_params(r)
        except DegenerateRates:
            # amplitudes with 0 < beta < 1 have no beta >= 1 labeling
            assume(False)
        back = exact_invert_rates(ex, r.k12)
        for name in ("k12", "k21", "k23", "k31"):
            assert getattr(back, name) == pytest.approx(getattr(r, name), rel=1e-7, abs=1e-9)

    def test_ensemble_config_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(n_emitters=0)
        with pytest.raises(ValueError):
            EnsembleConfig(n_emitters=1, rho=1.5)
