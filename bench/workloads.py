"""The benchmark's workloads: generated inputs, CLI operations and output checks.

A workload turns the benchmark seed into a scenario file (the only input the
program receives), optionally generates a stored tag file during set-up,
names the `spphbt` command lines of one pass, and checks the pass's outputs
against `oracles`.  Checks return a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

N_EMITTERS = 10
# Criterion 7's acquisition: 5e7 ns samples ~6 M photons for ~760 tags, so
# emission sampling and routing dominate while peak memory stays ~0.6 GB.
PAPER_DURATION_NS = 5.0e7
SILVER_DURATION_NS = 3.0e7
GLASS_DURATION_NS = 1.0e8
# wide enough to hold glass's ~300 ns shelving shoulder, at 1 ns bins
GLASS_WINDOW_PS = 1_500_000
BIN_WIDTH_PS = 1000
# a per-channel count may sit this many Poisson sd from the analytic mean
RATE_SIGMAS = 5.0
CRITERION_7_BAND_HZ = (5e3, 10e3)


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: Callable[[int], dict]
    # (scenario file, input dir, pass output dir) -> argv of each operation
    operations: Callable[[Path, Path, Path], list[list[str]]]
    # (pass output dir, input dir) -> problems found
    check: Callable[[Path, Path], list[str]]
    # set-up also simulates the tag file the passes read
    stored_tags: bool = False


def _paper_scenario(seed: int) -> dict:
    return {
        "name": "paper_budget", "rates": "silver", "n_emitters": N_EMITTERS,
        "duration_ns": PAPER_DURATION_NS, "seed": seed, "fiber_config": "AB",
        "geometry": "fourier_default", "budget": "silver_filtered",
    }


def _silver_scenario(seed: int) -> dict:
    return {
        "name": "silver_ab", "rates": "silver", "n_emitters": N_EMITTERS,
        "duration_ns": SILVER_DURATION_NS, "seed": seed, "fiber_config": "AB",
        "geometry": "fourier_default", "budget": "ideal",
        "fit": {"k12": 1.0 / oracles.LIFETIMES_NS["silver"][0]},
    }


def _glass_scenario(seed: int) -> dict:
    return {
        "name": "glass_wide", "rates": "glass", "n_emitters": N_EMITTERS,
        "duration_ns": GLASS_DURATION_NS, "seed": seed, "fiber_config": "DirectPlane",
        "budget": "ideal", "bin_width_ps": BIN_WIDTH_PS, "window_ps": GLASS_WINDOW_PS,
        "fit": {"k12": 1.0 / oracles.LIFETIMES_NS["glass"][0]},
    }


def check_tags(path: Path, duration_ps: int) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Parse a TTAG with the oracle reader and check order, range and channels."""
    try:
        times, channels = oracles.read_ttag(path)
    except (OSError, ValueError) as exc:
        return [f"tags: {exc}"], np.empty(0, np.int64), np.empty(0, np.uint8)
    problems = []
    if times.size == 0:
        problems.append("tags: file holds no records")
    step = np.diff(times)
    if np.any(step < 0) or np.any((step == 0) & (np.diff(channels.astype(np.int16)) < 0)):
        problems.append("tags: records are not sorted by time, then channel")
    if times.size and (times.min() < 0 or times.max() > duration_ps):
        problems.append(f"tags: timestamps leave [0, {duration_ps}] ps")
    if np.any(channels > 1):
        problems.append("tags: channel byte other than 0 or 1")
    return problems, times, channels


def _check_paper_budget(out: Path, _inputs: Path) -> list[str]:
    duration_ps = int(PAPER_DURATION_NS * 1000)
    problems, _, channels = check_tags(out / "paper_budget.ttag", duration_ps)
    eff = oracles.fourier_channel_efficiency(oracles.SILVER_FILTERED, **oracles.FOURIER_DEFAULT)
    rate = oracles.detected_rate_hz(*oracles.rates("silver"), N_EMITTERS, eff)
    mean = rate * PAPER_DURATION_NS * 1e-9
    lo_hz, hi_hz = CRITERION_7_BAND_HZ
    for ch, label in ((0, "A"), (1, "B")):
        n = int(np.count_nonzero(channels == ch))
        observed_hz = n / (PAPER_DURATION_NS * 1e-9)
        if abs(n - mean) > RATE_SIGMAS * math.sqrt(mean):
            problems.append(f"channel {label}: {n} tags, analytic {mean:.1f} "
                            f"+/- {RATE_SIGMAS:g} sd")
        if not lo_hz <= observed_hz <= hi_hz:
            problems.append(f"channel {label}: {observed_hz:.0f} Hz outside criterion 7's band")
    return problems


def _read_histogram(csv_path: Path) -> tuple[np.ndarray, np.ndarray, dict]:
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    edges = np.array([int(r["lag_ps"]) for r in rows], dtype=np.int64)
    counts = np.array([int(r["counts"]) for r in rows], dtype=np.int64)
    sidecar = json.loads(Path(str(csv_path) + ".json").read_text())
    return edges, counts, sidecar


def check_histogram(csv_path: Path, fit_path: Path, tags_path: Path, preset: str,
                    duration_ns: float, kind: str) -> list[str]:
    """Compare a g2 histogram and its fit with the exact bin-averaged g2.

    Pair total: must equal an independent count over the parsed tags.
    Reduced chi2 of the counts against the exact curve (Pearson): within
    0.05 + 6 sd of 1, the 0.05 covering the over-dispersion of pair counts
    that share a tag.  Fit: converged, and its chi2 is no larger than the
    exact curve's under the fit's own weights.  The bin-averaged exact curve
    is itself a member of the fitted family at bin centres, so the least-
    squares optimum cannot do worse; the reduced forms differ by the
    degrees-of-freedom factor n / (n - 4).
    """
    duration_ps = int(round(duration_ns * 1000))
    problems, times, channels = check_tags(tags_path, duration_ps)
    if problems:
        return problems
    try:
        edges, counts, sidecar = _read_histogram(csv_path)
        fit = json.loads(fit_path.read_text())["fit"]
    except (OSError, KeyError, ValueError) as exc:
        return [f"histogram or fit unreadable: {exc}"]
    width = int(sidecar["bin_width_ps"])
    lag_min, lag_max = int(sidecar["lag_min_ps"]), int(sidecar["lag_max_ps"])
    if edges.size == 0 or np.any(edges != lag_min + width * np.arange(edges.size)) \
            or edges[-1] + width != lag_max:
        return ["histogram: lag column does not tile the sidecar's window"]

    if kind == "cross":
        ta, tb = times[channels == 0], times[channels == 1]
        pairs = oracles.count_pairs(ta, tb, lag_min, lag_max)
        norm = ta.size * tb.size * width / duration_ps
        independent_bins = counts.size
    else:
        pooled = np.sort(times)
        pairs = oracles.count_pairs(pooled, pooled, lag_min, lag_max) - pooled.size
        norm = pooled.size ** 2 * width / duration_ps
        independent_bins = counts.size / 2  # +tau and -tau hold the same pairs
    if pairs != int(counts.sum()):
        problems.append(f"pairs: histogram holds {int(counts.sum())}, tags give {pairs}")

    g_fast, g_slow, beta = oracles.exact_g2_params(*oracles.rates(preset))
    expected = norm * oracles.g2_bin_average(
        edges / 1000.0, (edges + width) / 1000.0, g_fast, g_slow, beta, 1.0 / N_EMITTERS)
    chi2_red = float(np.sum((counts - expected) ** 2 / expected)) / counts.size
    tolerance = 0.05 + 6.0 * math.sqrt(2.0 / independent_bins)
    if abs(chi2_red - 1.0) > tolerance:
        problems.append(f"g2: reduced chi2 {chi2_red:.3f} against the exact curve, "
                        f"want 1 +/- {tolerance:.3f}")

    used = counts > 0
    exact_cost = float(np.sum((counts[used] - expected[used]) ** 2 / counts[used]))
    n_points = int(fit["n_points"])
    fit_cost = float(fit["chi2_reduced"]) * max(n_points - 4, 1)
    if not fit["converged"]:
        problems.append(f"fit: not converged ({fit['diagnostics'].get('reason')})")
    if n_points != int(used.sum()):
        problems.append(f"fit: {n_points} points, histogram has {int(used.sum())} non-empty bins")
    if fit_cost > exact_cost * (1.0 + 1e-9):
        problems.append(f"fit: chi2 {fit_cost:.2f} exceeds the exact curve's {exact_cost:.2f}")
    return problems


def check_manifest(out: Path, stem: str) -> list[str]:
    """Recompute every artifact digest the manifest records."""
    try:
        artifacts = json.loads((out / f"{stem}_manifest.json").read_text())["artifacts"]
    except (OSError, KeyError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    problems = []
    for name in ("tags", "tags_sidecar", "histogram", "histogram_sidecar", "fit", "report"):
        if name not in artifacts:
            problems.append(f"manifest: no {name} artifact")
    for name, record in sorted(artifacts.items()):
        data = (out / record["path"]).read_bytes()
        if hashlib.sha256(data).hexdigest() != record["sha256"]:
            problems.append(f"manifest: sha256 of {name} does not match")
        if len(data) != record["bytes"]:
            problems.append(f"manifest: size of {name} does not match")
    return problems


def _check_silver_run(out: Path, _inputs: Path) -> list[str]:
    return check_manifest(out, "silver_ab") + check_histogram(
        out / "silver_ab_g2.csv", out / "silver_ab_fit.json", out / "silver_ab.ttag",
        "silver", SILVER_DURATION_NS, "cross")


def _check_glass_reanalysis(out: Path, inputs: Path) -> list[str]:
    return check_histogram(
        out / "glass_wide_g2.csv", out / "glass_wide_g2_fit.json", inputs / "glass_wide.ttag",
        "glass", GLASS_DURATION_NS, "auto")


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "simulate_paper_budget", _paper_scenario,
            lambda scenario, _inputs, out: [
                ["simulate", "--scenario", str(scenario), "--out", str(out)]],
            _check_paper_budget),
        Workload(
            "run_silver_ab", _silver_scenario,
            lambda scenario, _inputs, out: [
                ["run", "--scenario", str(scenario), "--out", str(out)]],
            _check_silver_run),
        Workload(
            "reanalyse_glass_wide", _glass_scenario,
            lambda _scenario, inputs, out: [
                ["correlate", "--tags", str(inputs / "glass_wide.ttag"),
                 "--window", str(GLASS_WINDOW_PS), "--bins", str(BIN_WIDTH_PS),
                 "--out", str(out)],
                ["fit", "--hist", str(out / "glass_wide_g2.csv"), "--out", str(out)]],
            _check_glass_reanalysis, stored_tags=True),
    )
}
