"""Reference computations the benchmark checks spphbt's outputs against.

Everything here follows from the three-level rate equations, the detection
budget's factors and the TTAG layout documented in `spphbt.tagio`.  It uses
numpy only and imports nothing from spphbt, so a fault in the program cannot
pass its own check.  `test_oracles.py` pins these against the program's
public functions.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# (tau12, tau21, tau23, tau31) in ns at the reference pump power
LIFETIMES_NS = {
    "silver": (27.0, 9.7, 27.4, 102.0),
    "glass": (51.0, 60.0, 23.0, 300.0),
}

FRACTION_VERTICAL = 1.0 / 3.0
N_SPP = 1.04


def plasmon_enhancement(n_spp: float) -> float:
    """Emission enhancement n^2 / (n^2 - 1) into a bound plasmon mode."""
    return n_spp ** 2 / (n_spp ** 2 - 1.0)


# criterion 7's realistic budget: plasmon-coupled emitters, Fourier filter on
SILVER_FILTERED = {
    "p_couple_vertical": 0.48,
    "p_couple_horizontal": 0.48 / plasmon_enhancement(N_SPP),
    "p_survive": 0.03,
    "p_leak": 0.25,
    "p_qe": 0.65,
}
# the default leakage-ring geometry: fibre face diameter and ring radius in
# one length unit, fibres at azimuths 0 and pi/2
FOURIER_DEFAULT = {"fiber_diameter": 0.44, "ring_radius": 1.0}

TTAG_MAGIC = b"TTAG"
TTAG_VERSION = 1
TTAG_HEADER_BYTES = 16
TTAG_RECORD_BYTES = 16


def rates(preset: str) -> tuple[float, float, float, float]:
    """(k12, k21, k23, k31) in 1/ns for a lifetime preset."""
    return tuple(1.0 / t for t in LIFETIMES_NS[preset])


def rate_generator(k12: float, k21: float, k23: float, k31: float) -> np.ndarray:
    """Generator of dp/dt = Q p over (ground, excited, shelved)."""
    return np.array([
        [-k12, k21, k31],
        [k12, -(k21 + k23), 0.0],
        [0.0, k23, -k31],
    ])


def excited_population(k12: float, k21: float, k23: float, k31: float) -> float:
    """Stationary excited-state population p2 = 1 / (1 + (k21+k23)/k12 + k23/k31)."""
    return 1.0 / (1.0 + (k21 + k23) / k12 + k23 / k31)


def exact_g2_params(k12: float, k21: float, k23: float, k31: float) -> tuple[float, float, float]:
    """(gamma_fast, gamma_slow, beta) of the exact single-emitter g2.

    The relaxation rates are minus the two non-zero eigenvalues of the rate
    generator.  The amplitude follows from the slope k12 / p2 of g2 at 0+:
    beta = (k12 / p2 - gamma_slow) / (gamma_fast - gamma_slow).
    """
    eig = np.linalg.eigvals(rate_generator(k12, k21, k23, k31))
    if np.max(np.abs(eig.imag)) > 1e-12:
        raise ValueError("oscillatory relaxation has no two-exponential form")
    decay = np.sort(-eig.real)[1:]  # drop the stationary eigenvalue 0
    g_slow, g_fast = float(decay[0]), float(decay[1])
    p2 = excited_population(k12, k21, k23, k31)
    beta = (k12 / p2 - g_slow) / (g_fast - g_slow)
    return g_fast, g_slow, beta


def _abs_exp_antiderivative(x: np.ndarray, gamma: float) -> np.ndarray:
    """F with F'(x) = exp(-gamma |x|) and F(0) = 0."""
    return np.sign(x) * -np.expm1(-gamma * np.abs(x)) / gamma


def g2_bin_average(lo_ns, hi_ns, gamma_fast: float, gamma_slow: float,
                   beta: float, contrast: float) -> np.ndarray:
    """Exact g2 = 1 - c (beta e^{-gf|t|} - (beta-1) e^{-gs|t|}) averaged over [lo, hi)."""
    lo = np.asarray(lo_ns, dtype=float)
    hi = np.asarray(hi_ns, dtype=float)
    width = hi - lo

    def mean_exp(gamma: float) -> np.ndarray:
        return (_abs_exp_antiderivative(hi, gamma) - _abs_exp_antiderivative(lo, gamma)) / width

    return 1.0 - contrast * (beta * mean_exp(gamma_fast) - (beta - 1.0) * mean_exp(gamma_slow))


def fourier_channel_efficiency(budget: dict, fiber_diameter: float, ring_radius: float,
                               fraction_vertical: float = FRACTION_VERTICAL) -> float:
    """Detection probability of one fibre whose arc overlaps no other.

    Orientation-averaged plasmon coupling, times propagation, leakage and
    quantum efficiency, times the fibre's arc fraction d / (2 pi R).
    """
    coupling = (fraction_vertical * budget["p_couple_vertical"]
                + (1.0 - fraction_vertical) * budget["p_couple_horizontal"])
    arc = fiber_diameter / (2.0 * math.pi * ring_radius)
    return coupling * budget["p_survive"] * budget["p_leak"] * budget["p_qe"] * arc


def detected_rate_hz(k12: float, k21: float, k23: float, k31: float,
                     n_emitters: int, efficiency: float) -> float:
    """Analytic count rate N k21 p2 eta of one detector, in Hz."""
    return n_emitters * k21 * excited_population(k12, k21, k23, k31) * efficiency * 1e9


def read_ttag(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a TTAG file: (timestamps in ps as int64, channel bytes as uint8).

    Layout: 16-byte header ("TTAG", u16 version, 10 zero bytes), then
    16-byte little-endian records of u64 ps, u8 channel and 7 zero bytes.
    Raises ValueError on any deviation from that layout.
    """
    raw = Path(path).read_bytes()
    if len(raw) < TTAG_HEADER_BYTES:
        raise ValueError(f"{path}: shorter than the header")
    if raw[:4] != TTAG_MAGIC:
        raise ValueError(f"{path}: magic {raw[:4]!r}")
    if int.from_bytes(raw[4:6], "little") != TTAG_VERSION:
        raise ValueError(f"{path}: version {int.from_bytes(raw[4:6], 'little')}")
    if any(raw[6:TTAG_HEADER_BYTES]):
        raise ValueError(f"{path}: reserved header bytes are not zero")
    body = np.frombuffer(raw, dtype=np.uint8, offset=TTAG_HEADER_BYTES)
    if body.size % TTAG_RECORD_BYTES:
        raise ValueError(f"{path}: record block is not a whole number of records")
    records = body.reshape(-1, TTAG_RECORD_BYTES)
    if np.any(records[:, 9:]):
        raise ValueError(f"{path}: record padding is not zero")
    times = records[:, :8].copy().view("<u8").ravel()
    if times.size and times.max() > np.iinfo(np.int64).max:
        raise ValueError(f"{path}: timestamp beyond int64")
    return times.astype(np.int64), records[:, 8].copy()


def count_pairs(ta: np.ndarray, tb: np.ndarray, lag_min: int, lag_max: int) -> int:
    """Ordered pairs (i, j) with tb[j] - ta[i] in [lag_min, lag_max); inputs sorted."""
    lo = np.searchsorted(tb, ta + lag_min, side="left")
    hi = np.searchsorted(tb, ta + lag_max, side="left")
    return int(np.sum(hi - lo, dtype=np.int64))
