"""Independent reference computations used only by the tests.

These oracles check the package from outside it, so they live with the
tests and keep their heavier dependencies (scipy's ODE integrator) out of
the package's import.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from spphbt.errors import SingularSystem
from spphbt.kinetics import RateSet, steady_state


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
