"""Independent reference computations used only by the tests.

These oracles check the package from outside it, so they live with the
tests and keep their heavier dependencies (scipy's ODE integrator) out of
the package's import.  Oracles that only one test module uses live in that
module.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from spphbt import montecarlo
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


def compound_geometric_gaps(rates: RateSet, efficiency: float, n: int, rng) -> np.ndarray:
    """n gaps between detections, drawn cycle count first: the independent reference
    for the sampler's segment decomposition.

    After a detection the emitter is in the ground state.  The next detection
    follows M ~ Geometric(r p) pump cycles, r = k21 / (k21 + k23) the
    radiative branching ratio and p the detection efficiency; each of the
    M - 1 undetected cycles ended on the shelf with probability
    (1 - r) / (1 - r p), so S ~ Binomial(M - 1, that) of them did, and the
    gap is Gamma(M, 1/k12) + Gamma(M, 1/(k21 + k23)) + Gamma(S, 1/k31).
    """
    k2 = rates.k21 + rates.k23
    r = rates.k21 / k2
    cycles = rng.geometric(r * efficiency, n)
    gaps = rng.gamma(cycles, 1.0 / rates.k12) + rng.gamma(cycles, 1.0 / k2)
    if rates.k23 > 0.0:
        shelved = rng.binomial(cycles - 1, (1.0 - r) / (1.0 - r * efficiency))
        gaps += rng.gamma(shelved, 1.0 / rates.k31)
    return gaps


def float_clock_tags(rates: RateSet, efficiency: float, duration: float, seed) -> np.ndarray:
    """One emitter's detections on an absolute float64 ns clock, rounded to ps at the end:
    the sampler's earlier clock, the reference for its int64 ps clock.

    The rates must give the gap three real poles.  The draws are the
    sampler's, chunk for chunk while no chunk is cut short (a short run is one
    chunk): three exponentials per gap on the poles.  Each chunk's gaps are
    summed, shifted by the float time of the chunk's start and cut at duration
    plus burn-in; the times past the burn-in become rint((t - burn) * 1000) ps.
    """
    rng = np.random.default_rng(seed)
    burn = montecarlo._burn_in(rates)
    t_end = duration + burn
    lam1, lam2 = montecarlo._segment_rates(rates, efficiency)
    mu_a, mu_b, mu_c = montecarlo._gap_poles(rates, efficiency)
    k21, k23, k31 = rates.k21, rates.k23, rates.k31
    q = k21 * efficiency / (k21 * efficiency + k23)
    shelf = 1.0 / k31
    segment = 1.0 / lam1 + 1.0 / lam2
    mean_gap = (segment + (1.0 - q) * shelf) / q
    var_gap = ((lam1 ** -2 + lam2 ** -2 + (1.0 - q) * shelf ** 2) / q
               + (1.0 - q) / q ** 2 * (segment + shelf) ** 2)
    cv = np.sqrt(var_gap) / mean_gap
    chunks = []
    t = 0.0
    while t < t_end:
        expected = (t_end - t) / mean_gap
        n = int(min(expected + 4.0 * cv * np.sqrt(expected) + 16, 1 << 17))
        gaps = rng.standard_exponential(n) / mu_a + rng.standard_exponential(n) / mu_b
        gaps += np.maximum(rng.standard_exponential(n) + np.log1p(-mu_c / k31), 0.0) / mu_c
        times = np.cumsum(gaps)
        times += t
        chunks.append(times[:np.searchsorted(times, t_end, side="right")])
        t = times[-1]
    times = np.concatenate(chunks)
    kept = times[np.searchsorted(times, burn, side="right"):]
    return np.rint((kept - burn) * 1000.0).astype(np.int64)
