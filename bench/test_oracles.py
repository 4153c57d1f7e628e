"""The benchmark's oracles agree with spphbt's own analytic functions.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/test_oracles.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
from spphbt import correlator, kinetics, optics, scenarios, tagio  # noqa: E402

TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOL, abs_tol=0.0)


@pytest.mark.parametrize("preset", ["silver", "glass"])
def test_rates_match_presets(preset):
    ref = scenarios.rate_preset(preset)
    assert all(_close(a, b) for a, b in
               zip(oracles.rates(preset), (ref.k12, ref.k21, ref.k23, ref.k31)))


@pytest.mark.parametrize("preset", ["silver", "glass"])
def test_exact_g2_params_match_kinetics(preset):
    ref = kinetics.exact_decay_params(scenarios.rate_preset(preset))
    g_fast, g_slow, beta = oracles.exact_g2_params(*oracles.rates(preset))
    assert _close(g_fast, ref.gamma1)
    assert _close(g_slow, ref.gamma2)
    assert _close(beta, ref.beta)


@pytest.mark.parametrize("preset", ["silver", "glass"])
def test_excited_population_matches_steady_state(preset):
    ref = kinetics.steady_state(scenarios.rate_preset(preset)).p2
    assert _close(oracles.excited_population(*oracles.rates(preset)), ref)


def test_fourier_efficiency_matches_optics():
    budget, _ = scenarios.budget_preset("silver_filtered")
    geometry = scenarios.geometry_preset("fourier_default")
    eff_a, eff_b = optics.expected_channel_efficiencies(
        geometry, budget, optics.DipoleMix(), mode="fourier")
    mine = oracles.fourier_channel_efficiency(
        oracles.SILVER_FILTERED, **oracles.FOURIER_DEFAULT)
    assert _close(mine, eff_a) and _close(mine, eff_b)


@pytest.mark.parametrize("preset", ["silver", "glass"])
def test_detected_rate_matches_program(preset):
    budget, _ = scenarios.budget_preset("silver_filtered")
    geometry = scenarios.geometry_preset("fourier_default")
    eff_a, _ = optics.expected_channel_efficiencies(geometry, budget, optics.DipoleMix())
    ref = 10 * kinetics.steady_emission_rate(scenarios.rate_preset(preset)) * eff_a * 1e9
    eff = oracles.fourier_channel_efficiency(oracles.SILVER_FILTERED, **oracles.FOURIER_DEFAULT)
    assert _close(oracles.detected_rate_hz(*oracles.rates(preset), 10, eff), ref)


@pytest.mark.parametrize("preset", ["silver", "glass"])
def test_bin_average_matches_quadrature(preset):
    g_fast, g_slow, beta = oracles.exact_g2_params(*oracles.rates(preset))
    lo = np.array([-3.0, -1.0, 0.0, 2.5, 40.0])
    hi = lo + 1.0
    mine = oracles.g2_bin_average(lo, hi, g_fast, g_slow, beta, 0.1)
    ref = kinetics.exact_decay_params(scenarios.rate_preset(preset))
    for a, b, value in zip(lo, hi, mine):
        tau = np.linspace(a, b, 200_001)
        curve = kinetics.g2_model(tau, ref, kinetics.EnsembleConfig(n_emitters=10))
        assert abs(value - np.trapezoid(curve, tau) / (b - a)) < 1e-9


def test_ttag_reader_matches_tagio(tmp_path):
    a = correlator.TimeTagStream(np.array([0, 5, 5, 9_000_000_000]), "A", 10**10)
    b = correlator.TimeTagStream(np.array([5, 7]), "B", 10**10)
    path = tagio.write_time_tags(tmp_path / "t.ttag", a, b)
    times, channels = oracles.read_ttag(path)
    ra, rb, _ = tagio.read_time_tags(path)
    assert np.array_equal(times[channels == 0], ra.tags)
    assert np.array_equal(times[channels == 1], rb.tags)
    assert channels.tolist() == [0, 0, 0, 1, 1, 0]


def test_ttag_reader_rejects_bad_padding(tmp_path):
    a = correlator.TimeTagStream(np.array([1, 2]), "A", 10)
    path = tagio.write_time_tags(tmp_path / "t.ttag", a, a)
    raw = bytearray(path.read_bytes())
    raw[16 + 12] = 1
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="padding"):
        oracles.read_ttag(path)


def test_pair_count_matches_correlator():
    rng = np.random.default_rng(5)
    ta = np.sort(rng.integers(0, 10**6, 3000))
    tb = np.sort(rng.integers(0, 10**6, 2000))
    a = correlator.TimeTagStream(ta, "A", 10**6)
    b = correlator.TimeTagStream(tb, "B", 10**6)
    cross = correlator.cross_correlate(a, b, 20_000, 1000)
    auto = correlator.auto_correlate(a, 20_000, 1000)
    assert oracles.count_pairs(ta, tb, -20_000, 20_000) == cross.counts.sum()
    assert oracles.count_pairs(ta, ta, -20_000, 20_000) - ta.size == auto.counts.sum()
