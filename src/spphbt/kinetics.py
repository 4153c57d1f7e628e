"""Three-level emitter kinetics and the closed-form intensity correlation.

The emitter is modelled as a ground state (1), a radiating excited state (2)
and a non-radiative shelving state (3), connected by four Poisson rates
k12, k21, k23, k31 in ns^-1.  Under continuous pumping the normalised
two-time intensity correlation of a single emitter is a difference of two
exponentials,

    g2(tau) = 1 - (beta * exp(-gamma1*|tau|) - (beta - 1) * exp(-gamma2*|tau|)),

which dips to zero at tau = 0 and, for beta > 1, overshoots 1 on the
shelving timescale.  For N independent emitters plus uncorrelated background
the contrast scales as rho^2 / N, with rho the per-detector signal fraction.

The shape parameters used throughout this package are the conventional
closed forms

    gamma1 = k12 + k21
    gamma2 = k31 + k12*k23 / (k12 + k21)
    beta   = 1 + k12*k23 / (k31 * (k12 + k21))

which are first-order approximations valid for slow shelving
(k23, k31 << k12 + k21).  `exact_decay_params` computes the exact
eigen-decomposition of the same rate matrix for comparison; see that
function for when the two disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateRates, InvalidInversion, SingularSystem

__all__ = [
    "RateSet",
    "DerivedParams",
    "EnsembleConfig",
    "Populations",
    "derived_params",
    "exact_decay_params",
    "exact_invert_rates",
    "g2_model",
    "model_g2",
    "quantum_yield",
    "invert_rates",
    "steady_state",
    "steady_emission_rate",
]


@dataclass(frozen=True)
class RateSet:
    """Transition rates of the three-level system, all in ns^-1.

    k12: pump rate ground -> excited (proportional to excitation power)
    k21: radiative decay excited -> ground
    k23: shelving excited -> dark state
    k31: deshelving dark state -> ground

    k31 = 0 is allowed only without shelving (k23 = 0): otherwise the shelf
    absorbs the population and no stationary state exists.
    """

    k12: float
    k21: float
    k23: float
    k31: float

    def __post_init__(self) -> None:
        for name in ("k12", "k21", "k23", "k31"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
        if self.k21 <= 0.0:
            raise ValueError("k21 must be > 0: the excited state must decay radiatively")
        if self.k31 == 0.0 < self.k23:
            raise DegenerateRates("k31 = 0 with k23 > 0: the shelved state is absorbing")

    @classmethod
    def from_lifetimes(cls, tau12: float, tau21: float, tau23: float, tau31: float) -> "RateSet":
        """Build from characteristic times in ns; an infinite time means rate zero."""
        def inv(t: float) -> float:
            if t <= 0.0:
                raise ValueError(f"lifetimes must be > 0, got {t!r}")
            return 0.0 if math.isinf(t) else 1.0 / t
        return cls(inv(tau12), inv(tau21), inv(tau23), inv(tau31))

    @property
    def lifetimes(self) -> tuple[float, float, float, float]:
        """(tau12, tau21, tau23, tau31) in ns; zero rate maps to inf."""
        return tuple(math.inf if k == 0.0 else 1.0 / k
                     for k in (self.k12, self.k21, self.k23, self.k31))


@dataclass(frozen=True)
class DerivedParams:
    """Shape parameters of the two-exponential correlation model.

    gamma1: antibunching recovery rate (ns^-1), > 0
    gamma2: bunching decay rate (ns^-1), >= 0
    beta:   bunching amplitude, >= 1 (beta = 1 means no shelving)
    beta_excess: beta - 1 at full precision, defaults to beta - 1; carried
        because beta rounds away most digits of a small excess, which
        `invert_rates` needs for k23
    """

    gamma1: float
    gamma2: float
    beta: float
    beta_excess: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma1) and self.gamma1 > 0.0):
            raise ValueError(f"gamma1 must be finite and > 0, got {self.gamma1!r}")
        if not (math.isfinite(self.gamma2) and self.gamma2 >= 0.0):
            raise ValueError(f"gamma2 must be finite and >= 0, got {self.gamma2!r}")
        if not (math.isfinite(self.beta) and self.beta >= 1.0):
            raise ValueError(f"beta must be finite and >= 1, got {self.beta!r}")
        if self.beta_excess is None:
            object.__setattr__(self, "beta_excess", self.beta - 1.0)
        elif not (self.beta_excess >= 0.0 and 1.0 + self.beta_excess == self.beta):
            raise ValueError(f"beta_excess {self.beta_excess!r} does not round to "
                             f"beta - 1 for beta = {self.beta!r}")


@dataclass(frozen=True)
class EnsembleConfig:
    """How many emitters contribute and how clean the detected signal is.

    rho is the per-detector signal fraction s/(s+b); rho = 1 means no
    background.
    """

    n_emitters: int = 1
    rho: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.n_emitters, (int, np.integer)) or self.n_emitters < 1:
            raise ValueError(f"n_emitters must be an integer >= 1, got {self.n_emitters!r}")
        if not (0.0 <= self.rho <= 1.0):
            raise ValueError(f"rho must lie in [0, 1], got {self.rho!r}")


class Populations(NamedTuple):
    """Occupation probabilities of the three levels; `steady_state` makes them sum to one."""

    p1: float
    p2: float
    p3: float


def derived_params(rates: RateSet) -> DerivedParams:
    """Map rates to the (gamma1, gamma2, beta) shape parameters.

    A rate set without deshelving (k31 = 0, which `RateSet` allows only
    with k23 = 0) has no bunching: gamma2 = 0 and beta = 1.
    """
    g1 = rates.k12 + rates.k21
    if rates.k31 == 0.0:
        return DerivedParams(gamma1=g1, gamma2=0.0, beta=1.0)
    shelf_flux = rates.k12 * rates.k23
    g2 = rates.k31 + shelf_flux / g1
    excess = shelf_flux / (rates.k31 * g1)
    return DerivedParams(gamma1=g1, gamma2=g2, beta=1.0 + excess, beta_excess=excess)


def model_g2(tau, gamma1: float, gamma2: float, beta: float, c: float):
    """The two-exponential curve with contrast c over lag in ns; scalar or array.

    g2(tau) = 1 - (beta e^{-gamma1|tau|} - (beta-1) e^{-gamma2|tau|}) * c
    """
    t = np.abs(np.asarray(tau, dtype=float))
    out = 1.0 - (beta * np.exp(-gamma1 * t) - (beta - 1.0) * np.exp(-gamma2 * t)) * c
    return out if out.ndim else float(out)


def g2_model(tau, params: DerivedParams, config: EnsembleConfig = EnsembleConfig()):
    """`model_g2` at the ensemble's contrast c = rho^2 / N."""
    return model_g2(tau, params.gamma1, params.gamma2, params.beta,
                    config.rho ** 2 / config.n_emitters)


def quantum_yield(rates: RateSet) -> float:
    """Probability that an excitation decays radiatively, k21/(k21 + k23)."""
    return rates.k21 / (rates.k21 + rates.k23)


def _model_rate_map(gamma1, gamma2, excess, k12):
    """(k21, k23, k31) of `invert_rates`, real or complex, without its checks."""
    beta = 1.0 + excess
    return gamma1 - k12, gamma1 * gamma2 * excess / (beta * k12), gamma2 / beta


def invert_rates(params: DerivedParams, k12: float) -> RateSet:
    """Recover the rate set from shape parameters, given the pump rate k12.

    The pump rate is not identifiable from the correlation shape alone
    (it is fixed by excitation power), so it must be supplied.  Inverts the
    closed-form maps exactly (`_model_rate_map`):

        k21 = gamma1 - k12
        k31 = gamma2 / beta
        k23 = gamma1 * gamma2 * (beta - 1) / (beta * k12)

    Raises InvalidInversion when k12 is outside (0, gamma1).
    """
    if not (math.isfinite(k12) and 0.0 < k12 < params.gamma1):
        raise InvalidInversion(
            f"k12 must lie in (0, gamma1={params.gamma1!r}), got {k12!r}")
    k21, k23, k31 = _model_rate_map(params.gamma1, params.gamma2, params.beta_excess, k12)
    return RateSet(k12=k12, k21=k21, k23=k23, k31=k31)


def steady_state(rates: RateSet) -> Populations:
    """Stationary occupation of the three levels under continuous pumping.

    The balance equations k12 p1 = (k21 + k23) p2 and k31 p3 = k23 p2 with
    p1 + p2 + p3 = 1 give, in closed form,

        p2 = k12 / (k12 (1 + k23/k31) + k21 + k23),   p3 = p2 k23/k31,

    where k23/k31 = 0 without shelving (k23 = 0, any k31).
    """
    shelved_per_excited = rates.k23 / rates.k31 if rates.k23 > 0.0 else 0.0
    p2 = rates.k12 / (rates.k12 * (1.0 + shelved_per_excited) + rates.k21 + rates.k23)
    p3 = p2 * shelved_per_excited
    return Populations(p1=1.0 - p2 - p3, p2=p2, p3=p3)


def steady_emission_rate(rates: RateSet) -> float:
    """Mean radiative photon rate per emitter, k21 * p2, in ns^-1."""
    return rates.k21 * steady_state(rates).p2


def exact_decay_params(rates: RateSet) -> DerivedParams:
    """Exact eigen-decomposition of the correlation into two exponentials.

    The exact g2 of the three-level chain is itself of the model form with

        gamma_fast + gamma_slow = k12 + k21 + k23 + k31
        gamma_fast * gamma_slow = k31 (k12 + k21 + k23) + k12 k23
        beta = (k12 / p2_ss - gamma_slow) / (gamma_fast - gamma_slow)

    These coincide with `derived_params` only in the slow-shelving limit
    k23, k31 << k12 + k21; outside it (including both presets shipped with
    this package) they differ at the tens-of-percent level.  Use this
    function to quantify that bias or to invert fits without it.

    Raises DegenerateRates when the relaxation is oscillatory (complex
    eigenvalues) and cannot be written as two real exponentials.
    """
    s = rates.k12 + rates.k21 + rates.k23 + rates.k31
    p = rates.k31 * (rates.k12 + rates.k21 + rates.k23) + rates.k12 * rates.k23
    disc = s * s - 4.0 * p
    if disc < 0.0:
        raise DegenerateRates("oscillatory relaxation: no real two-exponential form")
    root = math.sqrt(disc)
    g_fast = (s + root) / 2.0
    # the smaller root without the cancellation in (s - root) / 2
    g_slow = 2.0 * p / (s + root)
    p2_ss = steady_state(rates).p2
    if p2_ss <= 0.0:
        raise SingularSystem("stationary excited population is zero")
    slope0 = rates.k12 / p2_ss  # dg2/dtau at 0+
    if g_fast == g_slow:
        raise DegenerateRates("degenerate eigenvalues: amplitude split undefined")
    # beta - 1 at full precision, as in derived_params
    excess = (slope0 - g_fast) / (g_fast - g_slow)
    if excess < 0.0:
        amplitude = (slope0 - g_slow) / (g_fast - g_slow)
        if excess >= -1e-9:
            excess = 0.0  # roundoff at the no-shelving boundary
        elif amplitude <= 0.0:
            # mirrored labeling: swapping the eigenvalues maps the amplitude
            # to 1 - amplitude >= 1 and leaves the curve (and inversion) unchanged
            g_fast, g_slow, excess = g_slow, g_fast, -amplitude
        else:
            raise DegenerateRates(
                "exact amplitudes fall outside the model family (0 < beta < 1)")
    return DerivedParams(gamma1=g_fast, gamma2=g_slow, beta=1.0 + excess, beta_excess=excess)


def _zero_lag_slope(gamma1, gamma2, excess):
    """beta gamma1 + (1 - beta) gamma2, with beta - 1 at full precision."""
    return gamma1 + excess * (gamma1 - gamma2)


def _exact_rate_map(gamma1, gamma2, excess, k12):
    """(k21, k23, k31) of `exact_invert_rates`, real or complex, without its checks."""
    p = gamma1 * gamma2
    k31 = p / _zero_lag_slope(gamma1, gamma2, excess)
    k21_plus_k23 = gamma1 + gamma2 - k12 - k31
    k23 = (p - k31 * (k12 + k21_plus_k23)) / k12
    return k21_plus_k23 - k23, k23, k31


def exact_invert_rates(params: DerivedParams, k12: float) -> RateSet:
    """Invert `exact_decay_params` in closed form, given the pump rate k12.

    Exact counterpart of `invert_rates`; satisfies
    exact_invert_rates(exact_decay_params(r), r.k12) == r identically.
    """
    if not (math.isfinite(k12) and k12 > 0.0):
        raise InvalidInversion(f"k12 must be finite and > 0, got {k12!r}")
    if _zero_lag_slope(params.gamma1, params.gamma2, params.beta_excess) <= 0.0:
        raise InvalidInversion("shape parameters imply non-positive zero-lag slope")
    k21, k23, k31 = _exact_rate_map(params.gamma1, params.gamma2, params.beta_excess, k12)
    if k21 + k23 <= 0.0:
        raise InvalidInversion("k21 + k23 would be non-positive")
    if k23 < -1e-12 or k21 <= 0.0:
        raise InvalidInversion("recovered rates are unphysical")
    return RateSet(k12=k12, k21=k21, k23=max(k23, 0.0), k31=k31)
