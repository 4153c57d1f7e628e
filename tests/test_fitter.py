"""Model fitting: exact recovery on clean data, diagnostics, and reports."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rate_oracles import jacobian_check
from spphbt.correlator import CorrelationHistogram, TimeTagStream, cross_correlate
from spphbt.errors import InvalidInversion, NonConvergence
from spphbt.fitter import (
    LOWER_BOUNDS,
    UPPER_BOUNDS,
    FitResult,
    _initial_guess,
    fit_curve,
    fit_g2,
    fit_warnings,
    model_jacobian,
    report_photophysics,
)
from spphbt.kinetics import (
    DerivedParams,
    RateSet,
    derived_params,
    exact_decay_params,
    exact_invert_rates,
    invert_rates,
    model_g2,
    quantum_yield,
)
from spphbt.montecarlo import simulate_emitter
from spphbt.optics import route_events
from spphbt.pipeline import fit_payload

SILVER_TRUTH = (0.1401298205421917, 0.01945009591577039, 1.98390978340858, 0.1)


def clean_fit(truth, tau=None, start_scale=(1.4, 0.6, 1.3, 0.85)):
    """Fit noiseless model data from a perturbed starting point."""
    g1, g2, b, c = truth
    if tau is None:
        tau = np.linspace(-min(5.0 / max(g2, 1e-3), 5000.0),
                          min(5.0 / max(g2, 1e-3), 5000.0), 401)
    y = model_g2(tau, *truth)
    sigma = np.full_like(tau, 1e-3)
    p0 = np.clip(np.asarray(truth) * np.asarray(start_scale),
                 np.asarray(LOWER_BOUNDS) * 1.01 + 1e-9, np.asarray(UPPER_BOUNDS) * 0.99)
    return fit_curve(tau, y, sigma, p0)


def perfect_fit_result(params, c, sigma=1e-4):
    """FitResult as if a fit had landed exactly on the given decay params."""
    cov = np.eye(4) * sigma**2
    return FitResult(params=(params.gamma1, params.gamma2, params.beta, c),
                     covariance=cov, chi2_reduced=1.0, converged=True,
                     n_iterations=1, n_points=300)


class TestCleanRecovery:
    def test_silver_parameters_recovered(self):
        fit = clean_fit(SILVER_TRUTH)
        assert fit.converged
        for got, want in zip(fit.params, SILVER_TRUTH):
            assert got == pytest.approx(want, rel=1e-6)

    def test_refit_from_own_solution_is_fixed_point(self):
        first = clean_fit(SILVER_TRUTH)
        tau = np.linspace(-250.0, 250.0, 501)
        y = model_g2(tau, *SILVER_TRUTH)
        again = fit_curve(tau, y, np.full_like(tau, 1e-3), first.params)
        for got, want in zip(again.params, SILVER_TRUTH):
            assert got == pytest.approx(want, rel=1e-6)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        gamma1=st.floats(0.05, 5.0),
        ratio=st.floats(3.0, 30.0),
        beta=st.floats(1.2, 10.0),
        c=st.floats(0.1, 1.0),
    )
    def test_property_separated_scales_recovered(self, gamma1, ratio, beta, c):
        truth = (gamma1, gamma1 / ratio, beta, c)
        fit = clean_fit(truth)
        assert fit.converged
        for got, want in zip(fit.params, truth):
            assert got == pytest.approx(want, rel=1e-5)

    def test_canonical_ordering_and_covariance_shape(self):
        fit = clean_fit(SILVER_TRUTH)
        assert fit.gamma1 >= fit.gamma2
        cov = fit.covariance
        assert cov.shape == (4, 4)
        assert np.allclose(cov, cov.T)
        assert np.min(np.linalg.eigvalsh(cov)) > -1e-20
        assert all(e >= 0.0 for e in fit.errors)

    @pytest.mark.parametrize("start", [(3.0, 5.0, 1.1, 0.45), (5.0, 3.0, 1.1, 0.45)],
                             ids=["mirrored_start", "ordered_start"])
    def test_fast_deshelving_keeps_the_mirrored_labeling(self, start):
        # deshelving faster than the optical cycle: the exact curve has
        # gamma1 < gamma2 with beta >= 1, which the exact inversion maps back
        rates = RateSet(1.0, 1.0, 1.0, 6.0)
        exact = exact_decay_params(rates)
        assert exact.gamma1 < exact.gamma2 and exact.beta > 1.0
        truth = (exact.gamma1, exact.gamma2, exact.beta, 0.5)
        tau = np.linspace(-3.0, 3.0, 600)
        fit = fit_curve(tau, model_g2(tau, *truth), np.full_like(tau, 1e-3), start)
        assert fit.converged and fit_warnings(fit) == []
        assert fit.params == pytest.approx(truth, rel=1e-6)
        rep = report_photophysics(fit, k12=rates.k12, inversion="exact")
        for name in ("k12", "k21", "k23", "k31"):
            assert getattr(rep.rates, name) == pytest.approx(getattr(rates, name), rel=1e-6)

    def test_cost_history_is_monotone(self):
        rng = np.random.default_rng(41)
        tau = np.linspace(-150.0, 150.0, 301)
        y = model_g2(tau, *SILVER_TRUTH) + rng.normal(0.0, 0.02, tau.size)
        fit = fit_curve(tau, y, np.full_like(tau, 0.02), (0.2, 0.01, 1.5, 0.2))
        history = np.array(fit.diagnostics["cost_history"])
        assert np.all(np.diff(history) <= 0.0)
        assert fit.diagnostics["reason"] in ("gradient", "step", "stalled")


class TestJacobian:
    def test_matches_central_differences(self):
        assert jacobian_check(SILVER_TRUTH) < 1e-5

    def test_no_shelving_point(self):
        assert jacobian_check((0.14, 0.019, 1.0, 0.5)) < 1e-5

    def test_degenerate_scales_point(self):
        # gamma1 == gamma2 makes d/d(beta) vanish; differences still agree
        assert jacobian_check((0.1, 0.1, 2.0, 0.5)) < 1e-4

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            jacobian_check((1.0, 2.0, 3.0))

    def test_jacobian_contrast_column_identity(self):
        # the model is affine in c, so dm/dc == (m - 1)/c exactly
        tau = np.array([0.0, 1.0, 5.0, 20.0, 80.0])
        jac = model_jacobian(tau, *SILVER_TRUTH)
        m = model_g2(tau, *SILVER_TRUTH)
        assert np.allclose(jac[:, 3], (m - 1.0) / SILVER_TRUTH[3], rtol=1e-12)
        assert np.all(jac[1:, 0] > 0.0)  # at tau > 0, raising gamma1 lifts the curve
        assert jac[0, 0] == 0.0          # zero lag is insensitive to the decay rates


class TestFlatData:
    def test_poisson_flat_is_flagged_non_identifiable(self):
        rng = np.random.default_rng(53)
        counts = rng.poisson(1000.0, 120)
        tau = np.linspace(-300.0, 300.0, 120)
        y = counts / 1000.0
        sigma = np.sqrt(counts) / 1000.0
        fit = fit_curve(tau, y, sigma, (0.1, 0.01, 1.5, 0.05))
        assert fit.c < 0.05
        assert fit.diagnostics.get("non_identifiable") is True


class TestFitInputs:
    def test_fit_curve_validation(self):
        tau = np.linspace(0, 10, 20)
        y = np.ones(20)
        start = (0.1, 0.01, 1.5, 0.1)
        with pytest.raises(ValueError):
            fit_curve(tau, y[:-1], np.ones(20), start)
        with pytest.raises(ValueError):
            fit_curve(tau[:4], y[:4], np.ones(4), start)
        bad_sigma = np.ones(20)
        bad_sigma[3] = 0.0
        with pytest.raises(ValueError):
            fit_curve(tau, y, bad_sigma, start)

    def test_config_validation(self):
        # the start point and the iteration budget are checked, never clipped
        tau = np.linspace(0, 10, 20)
        y = np.ones(20)
        sigma = np.ones(20)
        for start, message in [((0.1, 0.01, 1.5), "four entries"),
                               ((0.1, 0.01, 1.5, 2.0), "inside the bounds"),   # c above 1
                               ((0.1, 0.01, 0.5, 0.1), "inside the bounds")]:  # beta below 1
            with pytest.raises(ValueError, match=message):
                fit_curve(tau, y, sigma, start)
        with pytest.raises(ValueError, match="max_iterations"):
            fit_curve(tau, y, sigma, (0.1, 0.01, 1.5, 0.1), max_iterations=0)
        assert fit_curve(tau, y, sigma, LOWER_BOUNDS, max_iterations=1).n_iterations <= 1

    def test_fit_g2_needs_populated_bins(self):
        counts = np.zeros(40, dtype=np.int64)
        counts[[1, 5, 9, 13, 17]] = 3
        hist = CorrelationHistogram(counts=counts, bin_width=1000, lag_max=20_000,
                                    duration=10_000_000, rate_a=1e6, rate_b=1e6)
        with pytest.raises(ValueError):
            fit_g2(hist)

    def test_from_histogram_seeds_a_converging_fit(self):
        tau_ps = np.arange(-150_000, 150_000, 1000) + 500
        model = model_g2(tau_ps / 1000.0, *SILVER_TRUTH)
        lam = 2000.0
        rng = np.random.default_rng(67)
        counts = rng.poisson(model * lam)
        # 1e7 Hz x 2e7 Hz over 10 ms in 1 ns bins: lam uncorrelated pairs per bin
        hist = CorrelationHistogram(counts=counts, bin_width=1000, lag_max=150_000,
                                    duration=10_000_000_000, rate_a=1e7, rate_b=2e7)
        assert hist.g2 == pytest.approx(counts / lam, rel=1e-12)
        initial = np.asarray(_initial_guess(hist))
        assert np.all(initial >= LOWER_BOUNDS) and np.all(initial <= UPPER_BOUNDS)
        fit = fit_g2(hist, max_iterations=150)
        assert fit.converged and fit.n_iterations <= 150
        assert fit.gamma1 == pytest.approx(SILVER_TRUTH[0], rel=0.2)
        assert fit.c == pytest.approx(0.1, abs=0.02)


class TestPhotophysicsReport:
    def test_model_inversion_roundtrip(self, silver_rates):
        dp = derived_params(silver_rates)
        fit = perfect_fit_result(dp, c=0.1)
        rep = report_photophysics(fit, k12=silver_rates.k12, inversion="model")
        assert rep.tau21 == pytest.approx(9.7, rel=1e-9)
        assert rep.tau23 == pytest.approx(27.4, rel=1e-9)
        assert rep.tau31 == pytest.approx(102.0, rel=1e-9)
        assert rep.quantum_yield == pytest.approx(quantum_yield(silver_rates), rel=1e-12)
        assert rep.inversion == "model"
        assert not rep.no_shelving

    def test_exact_inversion_roundtrip(self, glass_rates):
        dp = exact_decay_params(glass_rates)
        fit = perfect_fit_result(dp, c=0.1)
        rep = report_photophysics(fit, k12=glass_rates.k12, inversion="exact")
        assert rep.tau21 == pytest.approx(60.0, rel=1e-9)
        assert rep.tau23 == pytest.approx(23.0, rel=1e-9)
        assert rep.tau31 == pytest.approx(300.0, rel=1e-9)

    def test_error_propagation_scales_with_covariance(self, silver_rates):
        dp = derived_params(silver_rates)
        small = report_photophysics(perfect_fit_result(dp, 0.1, sigma=1e-5),
                                    k12=silver_rates.k12, inversion="model")
        big = report_photophysics(perfect_fit_result(dp, 0.1, sigma=1e-3),
                                  k12=silver_rates.k12, inversion="model")
        assert big.errors["tau21"] == pytest.approx(100.0 * small.errors["tau21"],
                                                    rel=1e-3)
        assert big.errors["tau21"] > 0.0

    def test_no_shelving_sentinel(self):
        fit = FitResult(params=(0.14, 0.019, 1.0, 0.5),
                        covariance=np.eye(4) * 1e-8, chi2_reduced=1.0,
                        converged=True, n_iterations=3, n_points=100)
        rep = report_photophysics(fit, k12=0.04, inversion="model")
        assert rep.no_shelving
        assert math.isinf(rep.tau23)
        assert rep.rates.k23 == 0.0
        assert rep.rates.k21 == pytest.approx(0.14 - 0.04)
        assert rep.rates.k31 == pytest.approx(0.019)
        assert rep.errors["tau23"] is None
        assert "inf" in rep.format_table()

    @pytest.mark.parametrize("beta", [1.0, 1.0 + 5e-10])
    def test_no_shelving_inverts_alike_under_both_names(self, beta):
        # without shelving the closed-form map is exact, so both names give one answer
        fit = FitResult(params=(0.14, 0.019, beta, 0.5),
                        covariance=np.eye(4) * 1e-8, chi2_reduced=1.0,
                        converged=True, n_iterations=3, n_points=100)
        exact, model = (report_photophysics(fit, k12=0.04, inversion=name)
                        for name in ("exact", "model"))
        assert exact.rates == model.rates and exact.rates.k23 == 0.0
        assert exact.errors == model.errors

    @pytest.mark.parametrize("inversion", ["exact", "model"])
    def test_errors_hold_beta_variance_at_the_no_shelving_boundary(self, inversion):
        # k31 = gamma2/beta depends on beta however close beta lies to 1, so beta's
        # variance reaches the errors on both sides of the no-shelving switch
        def errors(beta):
            fit = FitResult(params=(0.14, 0.019, beta, 0.5),
                            covariance=np.diag([1e-8, 1e-8, 0.25, 1e-8]), chi2_reduced=1.0,
                            converged=True, n_iterations=3, n_points=100)
            return report_photophysics(fit, k12=0.04, inversion=inversion).errors

        near, far = errors(1.0 + 2e-9), errors(1.0 + 1e-6)
        for name in ("tau21", "tau31", "quantum_yield"):
            assert near[name] == pytest.approx(far[name], rel=1e-3), name
        if inversion == "model":
            at_one = errors(1.0)
            for name in ("tau21", "tau31"):
                assert at_one[name] == pytest.approx(far[name], rel=1e-3), name

    @pytest.mark.parametrize("preset", ["silver_rates", "glass_rates"])
    @pytest.mark.parametrize("inversion", ["exact", "model"])
    @pytest.mark.parametrize("beta", [None, 2.0])
    def test_errors_are_derivatives_of_the_inversion(self, request, preset, inversion, beta):
        # one fitted parameter with unit variance at a time: each error is the
        # magnitude of that parameter's derivative, here by central difference
        rates = request.getfixturevalue(preset)
        forward, invert = {"exact": (exact_decay_params, exact_invert_rates),
                           "model": (derived_params, invert_rates)}[inversion]
        dp = forward(rates)
        shape = np.array([dp.gamma1, dp.gamma2, dp.beta if beta is None else beta])

        def reported(x):
            r = invert(DerivedParams(*x), rates.k12)
            return {"tau21": 1.0 / r.k21, "tau31": 1.0 / r.k31, "tau23": 1.0 / r.k23,
                    "quantum_yield": quantum_yield(r)}

        for j in range(3):
            cov = np.zeros((4, 4))
            cov[j, j] = 1.0
            fit = FitResult(params=(*shape, 0.1), covariance=cov, chi2_reduced=1.0,
                            converged=True, n_iterations=1, n_points=300)
            rep = report_photophysics(fit, k12=rates.k12, inversion=inversion)
            h = 1e-6 * shape[j]
            up, down = reported(shape + h * np.eye(3)[j]), reported(shape - h * np.eye(3)[j])
            for name, error in rep.errors.items():
                slope = (up[name] - down[name]) / (2.0 * h)
                assert error == pytest.approx(abs(slope), rel=1e-6), (name, j)

    @pytest.mark.parametrize("inversion", ["exact", "model"])
    def test_infinite_lifetimes_are_written_as_null(self, inversion):
        # gamma2 at its bound 0 gives k31 = 0, and the fit JSON must stay JSON
        fit = FitResult(params=(0.14, 0.0, 2.0, 0.5), covariance=np.eye(4) * 1e-8,
                        chi2_reduced=1.0, converged=True, n_iterations=3, n_points=100)
        payload, rep, _ = fit_payload(fit, "edge", 0.04, inversion, 2, None)
        assert math.isinf(rep.tau31) and rep.errors["tau31"] is None
        json.dumps(payload, allow_nan=False)
        assert payload["report"]["tau31_ns"] is None
        assert payload["report"]["errors"]["tau31"] is None

    def test_pump_rate_must_stay_below_gamma1(self):
        fit = FitResult(params=(0.14, 0.019, 1.0, 0.5),
                        covariance=np.eye(4) * 1e-8, chi2_reduced=1.0,
                        converged=True, n_iterations=3, n_points=100)
        with pytest.raises(InvalidInversion):
            report_photophysics(fit, k12=0.2, inversion="model")

    def test_unconverged_fit_rejected(self, silver_rates):
        dp = derived_params(silver_rates)
        fit = FitResult(params=(dp.gamma1, dp.gamma2, dp.beta, 0.1),
                        covariance=np.eye(4), chi2_reduced=1.0, converged=False,
                        n_iterations=200, n_points=100,
                        diagnostics={"reason": "max_iterations"})
        with pytest.raises(NonConvergence):
            report_photophysics(fit, k12=silver_rates.k12, inversion="model")

    def test_expected_contrast_bookkeeping(self, silver_rates):
        # the fit JSON's report records the fitted c beside rho^2/N
        fit = perfect_fit_result(derived_params(silver_rates), 0.08)
        payload, rep, _ = fit_payload(fit, "silver", silver_rates.k12, "model", 10, 0.9)
        assert payload["report"]["c_expected"] == pytest.approx(0.081)
        assert payload["report"]["c_fitted"] == pytest.approx(0.08)
        assert payload["report"]["tau21_ns"] == rep.tau21
        payload, _, _ = fit_payload(fit, "silver", silver_rates.k12, "model", 10, None)
        assert payload["report"]["c_expected"] is None

    def test_bad_inversion_name(self, silver_rates):
        dp = derived_params(silver_rates)
        with pytest.raises(ValueError):
            report_photophysics(perfect_fit_result(dp, 0.1), k12=silver_rates.k12,
                                inversion="fancy")

    def test_format_table_lists_all_times(self, silver_rates):
        dp = derived_params(silver_rates)
        rep = report_photophysics(perfect_fit_result(dp, 0.1), k12=silver_rates.k12,
                                  inversion="model")
        table = rep.format_table("silver film")
        for token in ("tau21", "tau12", "tau23", "tau31", "quantum yield",
                      "silver film", "model inversion"):
            assert token in table


def _single_emitter_fit(rates, duration_ns, seed):
    stream = simulate_emitter(rates, duration_ns, seed)
    routed = route_events(stream, 0.5, seed=seed + 7919)
    a = TimeTagStream(routed.tags_a, "A", routed.duration_ps)
    b = TimeTagStream(routed.tags_b, "B", routed.duration_ps)
    hist = cross_correlate(a, b, lag_max=150_000, bin_width=1_000)
    return fit_g2(hist)


class TestEstimatorConsistency:
    def test_spread_shrinks_with_acquisition_time(self, silver_rates):
        # quadrupling the record should roughly halve the contrast scatter;
        # short records sit a bit above the asymptotic factor 2 because the
        # estimator is still mildly nonlinear there, hence the wide band
        short = [_single_emitter_fit(silver_rates, 2.5e5, s).c for s in range(20)]
        long = [_single_emitter_fit(silver_rates, 1.0e6, 100 + s).c for s in range(20)]
        ratio = np.std(short, ddof=1) / np.std(long, ddof=1)
        assert 1.5 < ratio < 4.5
