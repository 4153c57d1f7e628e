"""Weighted least-squares fitting of the two-exponential correlation model.

The model is `kinetics.model_g2` with parameters p = (gamma1, gamma2, beta, c);
c absorbs the rho^2/N contrast.  A damped Gauss-Newton (Levenberg-Marquardt) loop with an
analytic Jacobian and box projection does the minimisation; errors come
from the curvature at the optimum scaled by the reduced chi-square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .correlator import CorrelationHistogram
from .errors import InvalidInversion, NonConvergence
from .kinetics import (
    DerivedParams,
    RateSet,
    exact_invert_rates,
    invert_rates,
    model_g2,
    quantum_yield,
)

__all__ = [
    "FitConfig",
    "FitResult",
    "PhotophysicsReport",
    "DipWidthReport",
    "model_jacobian",
    "fit_g2",
    "fit_curve",
    "jacobian_check",
    "report_photophysics",
    "dip_width_compare",
]

_PARAM_NAMES = ("gamma1", "gamma2", "beta", "c")


def model_jacobian(tau, gamma1: float, gamma2: float, beta: float, c: float) -> np.ndarray:
    """d(model)/d(params), shape (len(tau), 4)."""
    t = np.abs(np.asarray(tau, dtype=float))
    e1 = np.exp(-gamma1 * t)
    e2 = np.exp(-gamma2 * t)
    return np.column_stack([
        c * beta * t * e1,            # d/d gamma1
        -c * (beta - 1.0) * t * e2,   # d/d gamma2
        -c * (e1 - e2),               # d/d beta
        -(beta * e1 - (beta - 1.0) * e2),  # d/d c
    ])


@dataclass(frozen=True)
class FitConfig:
    """Initial point, box bounds and stopping rules for the fit."""

    initial: tuple[float, float, float, float]
    lower: tuple[float, float, float, float] = (1e-6, 0.0, 1.0, 0.0)
    upper: tuple[float, float, float, float] = (100.0, 100.0, 1e3, 1.0)
    max_iterations: int = 200
    gradient_tol: float = 1e-10
    step_tol: float = 1e-12

    def __post_init__(self) -> None:
        lo, hi, p0 = map(np.asarray, (self.lower, self.upper, self.initial))
        if not (lo.shape == hi.shape == p0.shape == (4,)):
            raise ValueError("initial, lower and upper must each have four entries")
        if np.any(lo >= hi):
            raise ValueError("lower bounds must be strictly below upper bounds")
        if np.any(p0 < lo) or np.any(p0 > hi):
            raise ValueError("initial point must lie inside the bounds")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")

    @classmethod
    def from_histogram(cls, hist: CorrelationHistogram, **overrides) -> "FitConfig":
        """Data-driven starting point: contrast from the dip, gamma1 from its width."""
        tau = np.abs(hist.lag_centers) / 1000.0  # ns
        y = hist.g2
        # light smoothing so single-bin noise does not drive the guesses
        kernel = np.ones(5) / 5.0
        ys = np.convolve(y, kernel, mode="same") if y.size >= 5 else y
        c0 = float(np.clip(1.0 - ys.min(), 1e-3, 1.0))
        half = 1.0 - 0.5 * c0
        recovered = tau[ys >= half]
        tau_half = float(recovered.min()) if recovered.size else float(tau.max()) / 10.0
        g1 = float(np.clip(math.log(2.0) / max(tau_half, 1e-3), 1e-4, 10.0))
        overshoot = max(float(ys.max()) - 1.0, 0.0)
        b0 = float(np.clip(1.0 + overshoot / c0, 1.05, 50.0))
        if "initial" not in overrides:
            overrides["initial"] = (g1, g1 / 10.0, max(b0, 1.05), c0)
        return cls(**overrides)


@dataclass(frozen=True)
class FitResult:
    """Converged parameters with covariance and bookkeeping."""

    params: tuple[float, float, float, float]
    covariance: np.ndarray
    chi2_reduced: float
    converged: bool
    n_iterations: int
    n_points: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def gamma1(self) -> float:
        return self.params[0]

    @property
    def gamma2(self) -> float:
        return self.params[1]

    @property
    def beta(self) -> float:
        return self.params[2]

    @property
    def c(self) -> float:
        return self.params[3]

    @property
    def errors(self) -> tuple[float, float, float, float]:
        return tuple(float(math.sqrt(max(v, 0.0))) for v in np.diag(self.covariance))

    def derived(self) -> DerivedParams:
        return DerivedParams(gamma1=self.gamma1, gamma2=self.gamma2,
                             beta=max(self.beta, 1.0))


def fit_curve(tau, y, sigma, config: FitConfig) -> FitResult:
    """Levenberg-Marquardt minimisation of sum(((y - m)/sigma)^2).

    Steps are accepted only when they lower the objective, so the recorded
    cost history is non-increasing; rejected steps raise the damping.
    Bound handling is by projection of the trial point onto the box.
    """
    tau = np.asarray(tau, dtype=float)
    y = np.asarray(y, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if not (tau.shape == y.shape == sigma.shape) or tau.ndim != 1:
        raise ValueError("tau, y and sigma must be 1-d arrays of equal length")
    if tau.size < 5:
        raise ValueError("need at least 5 points to fit 4 parameters")
    if np.any(sigma <= 0.0):
        raise ValueError("sigma must be positive on every fitted point")

    lo = np.asarray(config.lower)
    hi = np.asarray(config.upper)
    p = np.clip(np.asarray(config.initial, dtype=float), lo, hi)

    def cost_at(q: np.ndarray) -> tuple[float, np.ndarray]:
        r = (y - model_g2(tau, *q)) / sigma
        return float(r @ r), r

    cost, resid = cost_at(p)
    history = [cost]
    lam = 1e-3
    converged = False
    reason = "max_iterations"
    singular = False
    n_iter = 0

    for n_iter in range(1, config.max_iterations + 1):
        jac = -model_jacobian(tau, *p) / sigma[:, None]
        grad = jac.T @ resid
        # a parameter pinned at its bound whose descent direction points
        # outside the box is held fixed this iteration; convergence is
        # judged on the projected gradient, i.e. the free subspace only
        pinned = ((p <= lo) & (grad > 0.0)) | ((p >= hi) & (grad < 0.0))
        free = ~pinned
        if np.max(np.abs(grad[free]), initial=0.0) < config.gradient_tol:
            converged, reason = True, "gradient"
            break
        hess = jac.T @ jac
        damp = np.diag(hess).copy()
        damp[damp <= 0.0] = 1.0  # keep the damping matrix positive
        stepped = False
        while lam <= 1e12:
            try:
                delta = np.zeros_like(p)
                delta[free] = np.linalg.solve(
                    hess[np.ix_(free, free)] + lam * np.diag(damp[free]),
                    -grad[free])
            except np.linalg.LinAlgError:
                singular = True
                lam *= 10.0
                continue
            trial = np.clip(p + delta, lo, hi)
            trial_cost, trial_resid = cost_at(trial)
            if trial_cost < cost:
                step = trial - p
                p, cost, resid = trial, trial_cost, trial_resid
                history.append(cost)
                lam = max(lam / 3.0, 1e-14)
                stepped = True
                if np.linalg.norm(step) < config.step_tol * (np.linalg.norm(p) + config.step_tol):
                    converged, reason = True, "step"
                break
            lam *= 5.0
        if not stepped:
            # no damping level lowers the cost: stationary to machine precision
            converged, reason = True, "stalled"
            break
        if converged:
            break

    diagnostics: dict = {"reason": reason, "cost_history": history}
    if singular:
        diagnostics["singular_jacobian"] = True

    # canonical ordering gamma1 > gamma2; the swap maps beta to 1 - beta
    if p[0] < p[1]:
        p = np.array([p[1], p[0], 1.0 - p[2], p[3]])
        diagnostics["order_swapped"] = True
        if p[2] < 1.0:
            diagnostics["outside_model_family"] = True

    dof = max(tau.size - 4, 1)
    chi2_red = cost / dof
    jac = -model_jacobian(tau, *p) / sigma[:, None]
    hess = jac.T @ jac
    try:
        cov = chi2_red * np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        cov = chi2_red * np.linalg.pinv(hess)
        diagnostics["singular_jacobian"] = True
    cov = 0.5 * (cov + cov.T)

    sigma_c = math.sqrt(max(cov[3, 3], 0.0))
    if p[3] <= max(1e-3, 2.0 * sigma_c):
        diagnostics["non_identifiable"] = True

    return FitResult(
        params=tuple(float(v) for v in p),
        covariance=cov,
        chi2_reduced=float(chi2_red),
        converged=converged,
        n_iterations=n_iter,
        n_points=int(tau.size),
        diagnostics=diagnostics,
    )


def fit_g2(hist: CorrelationHistogram, config: FitConfig | None = None) -> FitResult:
    """Fit the model to a histogram, weighting each bin by its Poisson error.

    Only bins with at least one pair carry a defined error bar and enter the
    fit; at least 8 such bins are required.
    """
    keep = hist.counts > 0
    if int(keep.sum()) < 8:
        raise ValueError(f"need >= 8 bins with counts > 0, have {int(keep.sum())}")
    tau = hist.lag_centers[keep] / 1000.0  # ps -> ns
    if config is None:
        config = FitConfig.from_histogram(hist)
    return fit_curve(tau, hist.g2[keep], hist.sigma[keep], config)


def jacobian_check(params, tau_grid=None, h_rel: float = 1e-6) -> float:
    """Max relative deviation of the analytic Jacobian from central differences.

    The comparison denominator is max(|analytic|, |numeric|, 1) per entry.
    """
    p = np.asarray(params, dtype=float)
    if p.shape != (4,):
        raise ValueError("params must be (gamma1, gamma2, beta, c)")
    tau = np.linspace(-150.0, 150.0, 301) if tau_grid is None else np.asarray(tau_grid, float)
    analytic = model_jacobian(tau, *p)
    worst = 0.0
    for j in range(4):
        h = h_rel * max(abs(p[j]), 1.0)
        up, dn = p.copy(), p.copy()
        up[j] += h
        dn[j] -= h
        numeric = (model_g2(tau, *up) - model_g2(tau, *dn)) / (2.0 * h)
        denom = np.maximum(np.maximum(np.abs(analytic[:, j]), np.abs(numeric)), 1.0)
        worst = max(worst, float(np.max(np.abs(analytic[:, j] - numeric) / denom)))
    return worst


_NO_SHELVING_EPS = 1e-9


@dataclass(frozen=True)
class PhotophysicsReport:
    """Recovered rates expressed as characteristic times, with uncertainties.

    Times in ns; `errors` maps field name to one standard deviation
    (None when undefined, e.g. tau23 without shelving).  `no_shelving`
    marks fits with beta indistinguishable from 1, where tau23 is infinite.
    """

    rates: RateSet
    tau12: float
    tau21: float
    tau23: float
    tau31: float
    quantum_yield: float
    errors: dict
    no_shelving: bool
    c_fitted: float
    c_expected: float | None
    inversion: str

    def format_table(self, configuration: str = "recovered") -> str:
        def fmt(v: float, e) -> str:
            if math.isinf(v):
                return "inf"
            return f"{v:.3g}" if e is None else f"{v:.3g} +/- {e:.2g}"
        rows = [
            ("tau21 (ns)", fmt(self.tau21, self.errors.get("tau21"))),
            ("tau12 (ns)", fmt(self.tau12, None)),
            ("tau23 (ns)", fmt(self.tau23, self.errors.get("tau23"))),
            ("tau31 (ns)", fmt(self.tau31, self.errors.get("tau31"))),
            ("quantum yield (%)", fmt(100.0 * self.quantum_yield,
                                      None if self.errors.get("quantum_yield") is None
                                      else 100.0 * self.errors["quantum_yield"])),
        ]
        width = max(len(r[0]) for r in rows)
        lines = [f"configuration: {configuration} ({self.inversion} inversion)"]
        lines += [f"  {k.ljust(width)}  {v}" for k, v in rows]
        return "\n".join(lines)


def _numeric_rate_grads(params: DerivedParams, k12: float, inversion: str) -> dict:
    """d(k21, k23, k31)/d(gamma1, gamma2, beta) by central differences."""
    invert = invert_rates if inversion == "model" else exact_invert_rates
    base = np.array([params.gamma1, params.gamma2, params.beta])
    grads = {name: np.zeros(3) for name in ("k21", "k23", "k31")}
    for j in range(3):
        h = 1e-7 * max(abs(base[j]), 1e-3)
        up, dn = base.copy(), base.copy()
        up[j] += h
        dn[j] -= h
        try:
            r_up = invert(DerivedParams(*up), k12)
            r_dn = invert(DerivedParams(*dn), k12)
        except (InvalidInversion, ValueError):
            continue  # gradient undefined at the boundary; leave zero
        for name in grads:
            grads[name][j] = (getattr(r_up, name) - getattr(r_dn, name)) / (2.0 * h)
    return grads


def report_photophysics(
    fit: FitResult,
    k12: float,
    n_emitters: int = 1,
    rho: float | None = None,
    *,
    inversion: str = "model",
) -> PhotophysicsReport:
    """Translate a converged fit into rates, lifetimes and quantum yield.

    `inversion` selects the closed-form model maps ("model", the default)
    or the exact eigenvalue inversion ("exact"); see kinetics for when they
    differ.  Parameter uncertainties are propagated to the lifetimes and
    the quantum yield to first order.
    """
    if inversion not in ("model", "exact"):
        raise ValueError(f"inversion must be 'model' or 'exact', got {inversion!r}")
    if not fit.converged:
        raise NonConvergence(
            f"fit did not converge ({fit.diagnostics.get('reason', 'unknown')})")
    no_shelving = fit.beta <= 1.0 + _NO_SHELVING_EPS
    if no_shelving:
        params = DerivedParams(gamma1=fit.gamma1, gamma2=fit.gamma2, beta=1.0)
        if fit.gamma1 - k12 <= 0.0:
            raise InvalidInversion(f"k12={k12!r} must be below gamma1={fit.gamma1!r}")
        rates = RateSet(k12=k12, k21=fit.gamma1 - k12, k23=0.0, k31=fit.gamma2)
    else:
        params = DerivedParams(gamma1=fit.gamma1, gamma2=fit.gamma2, beta=fit.beta)
        invert = invert_rates if inversion == "model" else exact_invert_rates
        rates = invert(params, k12)

    cov3 = np.asarray(fit.covariance)[:3, :3]
    grads = _numeric_rate_grads(params, k12, inversion)

    def sd(vec: np.ndarray) -> float:
        return float(math.sqrt(max(vec @ cov3 @ vec, 0.0)))

    errors: dict = {}
    errors["tau21"] = sd(grads["k21"]) / rates.k21 ** 2 if rates.k21 > 0 else None
    errors["tau31"] = sd(grads["k31"]) / rates.k31 ** 2 if rates.k31 > 0 else None
    if no_shelving or rates.k23 <= 0.0:
        errors["tau23"] = None
        errors["quantum_yield"] = None
    else:
        errors["tau23"] = sd(grads["k23"]) / rates.k23 ** 2
        ksum = rates.k21 + rates.k23
        q_grad = (grads["k21"] * rates.k23 - rates.k21 * grads["k23"]) / ksum ** 2
        errors["quantum_yield"] = sd(q_grad)

    t12, t21, t23, t31 = rates.lifetimes
    return PhotophysicsReport(
        rates=rates,
        tau12=t12,
        tau21=t21,
        tau23=t23,
        tau31=t31,
        quantum_yield=quantum_yield(rates),
        errors=errors,
        no_shelving=no_shelving,
        c_fitted=fit.c,
        c_expected=(None if rho is None else rho ** 2 / n_emitters),
        inversion=inversion,
    )


@dataclass(frozen=True)
class DipWidthReport:
    """Comparison of antibunching dip widths between two environments."""

    gamma1_glass: float
    gamma1_silver: float
    narrower_on_silver: bool
    tau21_glass: float
    tau21_silver: float
    tau21_ratio: float


def dip_width_compare(
    fit_glass: FitResult,
    fit_silver: FitResult,
    k12_glass: float,
    k12_silver: float,
    *,
    inversion: str = "model",
) -> DipWidthReport:
    """Quantify how much faster the dip recovers on the plasmonic sample.

    Reports gamma1 of both fits, whether the silver dip is narrower, and
    the ratio tau21(glass)/tau21(silver) after inversion with the supplied
    pump rates.  Identical fits give a ratio of exactly 1.
    """
    rep_g = report_photophysics(fit_glass, k12_glass, inversion=inversion)
    rep_s = report_photophysics(fit_silver, k12_silver, inversion=inversion)
    return DipWidthReport(
        gamma1_glass=fit_glass.gamma1,
        gamma1_silver=fit_silver.gamma1,
        narrower_on_silver=fit_silver.gamma1 > fit_glass.gamma1,
        tau21_glass=rep_g.tau21,
        tau21_silver=rep_s.tau21,
        tau21_ratio=rep_g.tau21 / rep_s.tau21,
    )
