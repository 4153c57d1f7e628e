"""Independent reference computations used only by the tests.

These oracles check the package from outside it, so they live with the
tests and keep their heavier dependencies (scipy's ODE integrator) out of
the package's import.  Oracles that only one test module uses live in that
module.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from spphbt.correlator import CorrelationHistogram
from spphbt.errors import SingularSystem
from spphbt.fitter import model_jacobian
from spphbt.kinetics import RateSet, model_g2, steady_state


def rate_matrix(r: RateSet) -> np.ndarray:
    """Generator Q of the master equation dp/dt = Q p, columns sum to zero."""
    return np.array([
        [-r.k12, r.k21, r.k31],
        [r.k12, -(r.k21 + r.k23), 0.0],
        [0.0, r.k23, -r.k31],
    ])


def conditional_intensity(rates: RateSet, tau_grid) -> np.ndarray:
    """Exact single-emitter g2 by integrating the rate equations.

    Starting from the ground state (the state just after a detection), the
    re-excitation probability p2(tau) normalised by its stationary value is
    the exact correlation function.  Serves as the numerical oracle for the
    closed-form model.
    """
    tau = np.asarray(tau_grid, dtype=float)
    if tau.ndim != 1:
        raise ValueError("tau_grid must be one-dimensional")
    if tau.size == 0:
        return np.empty(0)
    if np.any(tau < 0.0) or np.any(np.diff(tau) < 0.0):
        raise ValueError("tau_grid must be sorted and non-negative")
    p2_ss = steady_state(rates).p2
    if p2_ss <= 0.0:
        raise SingularSystem("stationary excited population is zero")
    if tau[-1] == 0.0:
        return np.zeros_like(tau)
    q = rate_matrix(rates)
    sol = solve_ivp(
        lambda _t, y: q @ y,
        t_span=(0.0, float(tau[-1])),
        y0=np.array([1.0, 0.0, 0.0]),
        t_eval=tau,
        method="DOP853",
        rtol=1e-10,
        atol=1e-13,
    )
    if not sol.success:
        raise RuntimeError(f"rate equation integration failed: {sol.message}")
    return sol.y[1] / p2_ss


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


class SymmetryViolation(RuntimeError):
    """Swapped-input histograms are not mirror images of each other."""


def swap_symmetry_check(h_ab: CorrelationHistogram, h_ba: CorrelationHistogram) -> dict:
    """Verify that swapping the inputs mirrors the histogram, counts_ab[k] == counts_ba[n-k].

    The identity is exact for 1 ps bins (each bin holds a single integer
    lag, and negation maps it onto its mirror bin).  For wider bins a pair
    sitting exactly on a bin edge legitimately lands one bin off after the
    swap, so run this check on 1 ps binning.  The lowest bin, lag -lag_max,
    has no mirror partner inside the window and is skipped.

    Returns a small report dict; raises SymmetryViolation on mismatch.
    """
    for attr in ("bin_width", "lag_max", "duration"):
        if getattr(h_ab, attr) != getattr(h_ba, attr):
            raise ValueError(f"histograms disagree on {attr}")
    n = h_ab.n_bins
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
