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
from .errors import NonConvergence
from .kinetics import (
    DerivedParams,
    RateSet,
    _exact_rate_map,
    _model_rate_map,
    exact_invert_rates,
    invert_rates,
    model_g2,
    quantum_yield,
)

__all__ = [
    "DEFAULT_INVERSION",
    "DEFAULT_MAX_ITERATIONS",
    "INVERSIONS",
    "LOWER_BOUNDS",
    "PARAM_NAMES",
    "UPPER_BOUNDS",
    "FitResult",
    "PhotophysicsReport",
    "model_jacobian",
    "fit_g2",
    "fit_curve",
    "report_photophysics",
    "fit_warnings",
    "require_converged",
]

# rate inversions by name, the default first, each a validating inverter and its
# bare arithmetic: the exact eigenvalue inversion is unbiased at any shelving
# rate, "model" assumes slow shelving
_INVERTERS = {"exact": (exact_invert_rates, _exact_rate_map),
              "model": (invert_rates, _model_rate_map)}
INVERSIONS = tuple(_INVERTERS)
DEFAULT_INVERSION = INVERSIONS[0]
DEFAULT_MAX_ITERATIONS = 200
# the fitted parameters, and the box that holds every fit
PARAM_NAMES = ("gamma1", "gamma2", "beta", "c")
LOWER_BOUNDS = (1e-6, 0.0, 1.0, 0.0)
UPPER_BOUNDS = (100.0, 100.0, 1e3, 1.0)
# stopping rules: projected gradient, and step relative to the parameter norm
_GRADIENT_TOL = 1e-10
_STEP_TOL = 1e-12


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


def fit_curve(tau, y, sigma, initial, max_iterations: int = DEFAULT_MAX_ITERATIONS) -> FitResult:
    """Levenberg-Marquardt minimisation of sum(((y - m)/sigma)^2) from `initial`.

    `initial` is (gamma1, gamma2, beta, c) inside the box.  Steps are
    accepted only when they lower the objective, so the recorded cost
    history is non-increasing; rejected steps raise the damping.  Bound
    handling is by projection of the trial point onto the box, so the
    result lies in it.  The result is not reordered: gamma1 < gamma2 is the
    mirrored labeling of fast deshelving (`kinetics.exact_decay_params`),
    and the rate inversion alone judges whether a rate set produces it.
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

    lo = np.asarray(LOWER_BOUNDS)
    hi = np.asarray(UPPER_BOUNDS)
    p = np.array(initial, dtype=float)
    if p.shape != (4,):
        raise ValueError("initial must have four entries")
    if np.any(p < lo) or np.any(p > hi):
        raise ValueError("initial point must lie inside the bounds")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")

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

    for n_iter in range(1, max_iterations + 1):
        jac = -model_jacobian(tau, *p) / sigma[:, None]
        grad = jac.T @ resid
        # a parameter pinned at its bound whose descent direction points
        # outside the box is held fixed this iteration; convergence is
        # judged on the projected gradient, i.e. the free subspace only
        pinned = ((p <= lo) & (grad > 0.0)) | ((p >= hi) & (grad < 0.0))
        free = ~pinned
        if np.max(np.abs(grad[free]), initial=0.0) < _GRADIENT_TOL:
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
                if np.linalg.norm(step) < _STEP_TOL * (np.linalg.norm(p) + _STEP_TOL):
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


def _initial_guess(hist: CorrelationHistogram) -> tuple[float, float, float, float]:
    """Data-driven starting point: contrast from the dip, gamma1 from its width."""
    tau = np.abs(hist.lag_centers) / 1000.0  # ns
    # light smoothing so single-bin noise does not drive the guesses; fit_g2 calls this
    # only with 8 or more bins
    ys = np.convolve(hist.g2, np.ones(5) / 5.0, mode="same")
    c0 = float(np.clip(1.0 - ys.min(), 1e-3, 1.0))
    half = 1.0 - 0.5 * c0
    recovered = tau[ys >= half]
    tau_half = float(recovered.min()) if recovered.size else float(tau.max()) / 10.0
    g1 = float(np.clip(math.log(2.0) / max(tau_half, 1e-3), 1e-4, 10.0))
    overshoot = max(float(ys.max()) - 1.0, 0.0)
    b0 = float(np.clip(1.0 + overshoot / c0, 1.05, 50.0))
    return (g1, g1 / 10.0, b0, c0)


def fit_g2(hist: CorrelationHistogram, max_iterations: int = DEFAULT_MAX_ITERATIONS) -> FitResult:
    """Fit the model to a histogram, weighting each bin by its Poisson error.

    The fit starts from a guess read off the histogram.  Only bins with at
    least one pair carry a defined error bar and enter the fit; at least 8
    such bins are required.
    """
    keep = hist.counts > 0
    if int(keep.sum()) < 8:
        raise ValueError(f"need >= 8 bins with counts > 0, have {int(keep.sum())}")
    tau = hist.lag_centers[keep] / 1000.0  # ps -> ns
    return fit_curve(tau, hist.g2[keep], hist.sigma[keep], _initial_guess(hist), max_iterations)


_NO_SHELVING_EPS = 1e-9


@dataclass(frozen=True)
class PhotophysicsReport:
    """Recovered rates expressed as characteristic times, with uncertainties.

    Times in ns; `errors` maps field name to one standard deviation
    (None when undefined, e.g. tau23 without shelving).  `no_shelving`
    marks fits with beta indistinguishable from 1, where tau23 is infinite.
    The times and the quantum yield are derived from `rates`.
    """

    rates: RateSet
    errors: dict
    no_shelving: bool
    inversion: str

    @property
    def tau12(self) -> float:
        return self.rates.lifetimes[0]

    @property
    def tau21(self) -> float:
        return self.rates.lifetimes[1]

    @property
    def tau23(self) -> float:
        return self.rates.lifetimes[2]

    @property
    def tau31(self) -> float:
        return self.rates.lifetimes[3]

    @property
    def quantum_yield(self) -> float:
        return quantum_yield(self.rates)

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


# what each diagnostic flag `fit_curve` may set means for the fitted numbers
_HEALTH_FLAGS = {
    "singular_jacobian": "singular Jacobian, so the parameter errors are unreliable",
    "non_identifiable": "c is within two standard errors of 0, so the rates are undetermined",
}


def fit_warnings(fit: FitResult) -> list[str]:
    """One `warning:` line per diagnostic flag the fit set."""
    return [f"warning: {flag}: {meaning}" for flag, meaning in _HEALTH_FLAGS.items()
            if fit.diagnostics.get(flag)]


def require_converged(fit: FitResult) -> None:
    """Raise NonConvergence naming the stop reason unless the fit converged."""
    if not fit.converged:
        raise NonConvergence(f"fit did not converge ({fit.diagnostics.get('reason', 'unknown')})")


def report_photophysics(fit: FitResult, k12: float, *, inversion: str) -> PhotophysicsReport:
    """Translate a converged fit into rates, lifetimes and quantum yield.

    `inversion` selects the exact eigenvalue inversion ("exact") or the
    closed-form slow-shelving maps ("model"); see kinetics for when they
    differ.  A fit without shelving takes its rates from the closed-form map
    under either name, because it is then exact and gives k23 = 0.  Parameter
    uncertainties are propagated to the lifetimes and the quantum yield to
    first order, sd = sqrt(g^T C g), through exact derivatives g of the
    requested inversion's own arithmetic (complex step: Squire & Trapp, SIAM
    Rev. 40, 110), so they do not jump at the no-shelving switch.
    """
    if inversion not in INVERSIONS:
        raise ValueError(f"inversion must be one of {INVERSIONS}, got {inversion!r}")
    require_converged(fit)
    no_shelving = fit.beta <= 1.0 + _NO_SHELVING_EPS
    invert = _INVERTERS["model" if no_shelving else inversion][0]
    rate_map = _INVERTERS[inversion][1]
    params = DerivedParams(fit.gamma1, fit.gamma2, 1.0 if no_shelving else fit.beta)
    rates = invert(params, k12)

    def reported(gamma1, gamma2, excess) -> dict:
        # the numbers with an error; none for a rate at 0, nor for Q without shelving
        k21, k23, k31 = rate_map(gamma1, gamma2, excess, k12)
        out = {"tau21": 1.0 / k21}
        if rates.k31 > 0.0:
            out["tau31"] = 1.0 / k31
        if rates.k23 > 0.0:
            out.update(tau23=1.0 / k23, quantum_yield=k21 / (k21 + k23))
        return out

    # one evaluation per fitted parameter at an imaginary step h: no difference
    # of nearby values is taken, so imag / h is the derivative to rounding
    h = 1e-30
    shape = np.array([fit.gamma1, fit.gamma2, params.beta_excess])
    stepped = [reported(*row) for row in shape + 1j * h * np.eye(3)]
    cov3 = np.asarray(fit.covariance)[:3, :3]
    errors = dict.fromkeys(("tau21", "tau31", "tau23", "quantum_yield"))
    for name in stepped[0]:
        grad = np.array([values[name] for values in stepped]).imag / h
        errors[name] = float(math.sqrt(max(grad @ cov3 @ grad, 0.0)))
    return PhotophysicsReport(rates=rates, errors=errors, no_shelving=no_shelving,
                              inversion=inversion)
