"""End-to-end orchestration: simulate, route, correlate, fit, report, manifest.

A run is fully determined by its scenario (including the seed): photon
sampling consumes substreams of the scenario seed and detector routing uses
a separately derived stream, so artifacts are byte-identical across reruns.
The manifest records the config hash and artifact checksums instead of
timestamps for exactly that reason.

Acquisition gives one `ChannelTags`: both channels' tags in one time-ordered
stream plus a mask of channel B's, unsplit from the router to the tag file
and the correlator.  `run_pipeline` writes the tag file, hashing it as it is
written, on one core while the others correlate, and that core then takes
the correlation's blocks left; the fit and the report follow.  The bytes do
not depend on the thread count, and a failed run writes no manifest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .correlator import ChannelTags, CorrelationHistogram, auto_correlate, cross_correlate
from .errors import InvalidInversion
from .fitter import (
    DEFAULT_MAX_ITERATIONS,
    PARAM_NAMES,
    FitResult,
    PhotophysicsReport,
    fit_g2,
    report_photophysics,
)
from .kinetics import steady_emission_rate
from .montecarlo import simulate_ensemble
from .optics import expected_channel_efficiencies, route_events
from .scenarios import Scenario, check_setting
from .tagio import (
    sha256_file,
    sidecar_path,
    write_histogram_csv,
    write_json,
    write_time_tags,
)

__all__ = [
    "PipelineResult",
    "acquire",
    "correlate_tags",
    "fit_histogram",
    "fit_payload",
    "run_pipeline",
    "fit_to_mapping",
]

_ROUTE_SALT = 0x5EED


@dataclass(frozen=True)
class PipelineResult:
    """In-memory results of a run; background and rho live in the tag sidecar."""

    histogram: CorrelationHistogram
    fit: FitResult
    report: PhotophysicsReport | None
    rejected: InvalidInversion | None  # why the rate inversion refused the fit
    manifest: dict  # provenance, deliberately free of wall-clock data
    paths: dict


def expected_signal_rate(scenario: Scenario) -> float:
    """Analytic detected signal rate on channel A in ns^-1."""
    eff_a, _ = expected_channel_efficiencies(
        scenario.routing_geometry, scenario.budget, scenario.mix, scenario.routing_mode)
    return scenario.n_emitters * steady_emission_rate(scenario.rates) * eff_a


def acquire(scenario: Scenario) -> ChannelTags:
    """Simulate the detected photons and route them: both channels, with the run info as metadata.

    Background b is detector-level and splits like the signal s, so the
    b = s (1 - rho) / rho that leaves s the fraction rho in total leaves it
    that fraction on each detector; a scenario without rho has none.
    """
    eff_a, eff_b = expected_channel_efficiencies(
        scenario.routing_geometry, scenario.budget, scenario.mix, scenario.routing_mode)
    # rounding may lift a lossless split a hair above 1
    efficiency = min(eff_a + eff_b, 1.0)
    share_a = eff_a / efficiency if efficiency > 0.0 else 0.0
    rho = 1.0 if scenario.rho is None else scenario.rho
    signal = scenario.n_emitters * steady_emission_rate(scenario.rates) * efficiency
    background = signal * (1.0 - rho) / rho
    events = simulate_ensemble(scenario.rates, scenario.n_emitters, scenario.duration_ns,
                               scenario.seed, efficiency=efficiency, background_rate=background)
    routed = route_events(
        events,
        share_a,
        np.random.SeedSequence(entropy=(scenario.seed, _ROUTE_SALT)),
        jitter_sigma_ns=scenario.jitter_sigma_ns,
    )
    info = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "fiber_config": scenario.fiber_config,
        "correlation": scenario.correlation_kind,
        "n_events": routed.n_events,
        "background_rate_per_ns": share_a * background,
        "rho_effective": rho,
        "bin_width_ps": scenario.bin_width_ps,
        "window_ps": scenario.window_ps,
        "fit": asdict(scenario.fit),
        "n_emitters": scenario.n_emitters,
    }
    return replace(routed.channels, metadata=info)


def correlate_tags(channels: ChannelTags, kind: str, window_ps: int, bin_width_ps: int,
                   beside=None) -> CorrelationHistogram:
    """Histogram two channels: one against the other, or pooled for a same-point run.
    `beside` shares the correlation's cores as in `cross_correlate`."""
    if check_setting("correlation", kind) == "cross":
        return cross_correlate(channels, None, window_ps, bin_width_ps, beside)
    return auto_correlate(channels.pooled, window_ps, bin_width_ps, beside)


# not an alias of fit_g2: the traced benchmark wraps this name in cli and
# pipeline, and fit_g2 inside it, to time the fit as its own span
def fit_histogram(hist: CorrelationHistogram,
                  max_iterations: int = DEFAULT_MAX_ITERATIONS) -> FitResult:
    return fit_g2(hist, max_iterations)


def _config_sha256(scenario: Scenario) -> str:
    canonical = json.dumps(scenario.to_mapping(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def fit_to_mapping(fit: FitResult) -> dict:
    return {
        "params": dict(zip(PARAM_NAMES, fit.params)),
        "errors": dict(zip(PARAM_NAMES, fit.errors)),
        "covariance": [[float(v) for v in row] for row in fit.covariance],
        "chi2_reduced": fit.chi2_reduced,
        "converged": fit.converged,
        "n_iterations": fit.n_iterations,
        "n_points": fit.n_points,
        "diagnostics": {k: v for k, v in fit.diagnostics.items() if k != "cost_history"},
    }


def _report_to_mapping(report: PhotophysicsReport) -> dict:
    # JSON has no infinity: a lifetime whose rate is 0 is written as null
    lifetimes = {f"tau{levels}_ns": None if t == float("inf") else t
                 for levels, t in zip(("12", "21", "23", "31"), report.rates.lifetimes)}
    return {
        "rates_per_ns": asdict(report.rates),
        **lifetimes,
        "quantum_yield": report.quantum_yield,
        "errors": report.errors,
        "no_shelving": report.no_shelving,
        "inversion": report.inversion,
    }


def fit_payload(
    fit: FitResult,
    scenario_name: str,
    k12: float | None,
    inversion: str,
    n_emitters: int,
    rho_effective: float | None,
) -> tuple[dict, PhotophysicsReport | None, InvalidInversion | None]:
    """The fit JSON document, its photophysics report and why the inversion refused it.

    The report needs a pump rate, a converged fit and an inversion that
    accepts it; otherwise it is None.  Its mapping adds the fitted contrast c
    and the rho^2/N it should read (None without rho).  The context records
    the pump rate and inversion the table came from, and the emitter count
    and signal fraction of that expected contrast.
    """
    report = rejected = None
    if k12 is not None and fit.converged:
        try:
            report = report_photophysics(fit, k12, inversion=inversion)
        except InvalidInversion as exc:
            rejected = exc
    payload = {
        "scenario": scenario_name,
        "fit": fit_to_mapping(fit),
        "report": None,
        "context": {"k12": k12, "inversion": inversion, "n_emitters": n_emitters,
                    "rho_effective": rho_effective},
    }
    if report is not None:
        c_expected = None if rho_effective is None else rho_effective ** 2 / n_emitters
        payload["report"] = dict(_report_to_mapping(report), c_fitted=fit.c, c_expected=c_expected)
    return payload, report, rejected


def run_pipeline(scenario: Scenario, out_dir) -> PipelineResult:
    """Full chain: simulate -> route -> correlate -> fit -> report -> manifest.

    Writes all artifacts under out_dir using the scenario name as the stem
    and returns the in-memory results alongside the manifest.  After
    acquisition the calling thread writes the tag file, hashing it as it
    goes, while the other usable cores start on the correlation's time
    blocks; once the file is written, that thread takes the blocks left.
    The histogram, fit and report are written after both.  A failed step
    raises once every block has stopped, the tag file's error first, and no
    manifest is written; a window or channel the correlator rejects is
    raised before the tag file is written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = scenario.name

    tags = acquire(scenario)
    info = tags.metadata

    written = {}

    def write_tags() -> None:
        digest = hashlib.sha256()
        path = write_time_tags(out / f"{stem}.ttag", tags, digest=digest)
        written.update(paths={"tags": path, "tags_sidecar": sidecar_path(path)},
                        sha256=digest.hexdigest())

    hist = correlate_tags(tags, scenario.correlation_kind, scenario.window_ps,
                          scenario.bin_width_ps, write_tags)
    paths = {**written["paths"],
             "histogram": write_histogram_csv(out / f"{stem}_g2.csv", hist, metadata=info)}
    paths["histogram_sidecar"] = sidecar_path(paths["histogram"])
    fit = fit_histogram(hist, scenario.fit.max_iterations)
    payload, report, rejected = fit_payload(fit, scenario.name, scenario.fit.k12,
                                            scenario.fit.inversion, scenario.n_emitters,
                                            info["rho_effective"])
    paths["fit"] = write_json(out / f"{stem}_fit.json", payload)
    if report is not None:
        paths["report"] = out / f"{stem}_report.txt"
        paths["report"].write_text(report.format_table(scenario.name) + "\n")

    artifact_records = {
        name: {
            "path": p.name,
            "bytes": p.stat().st_size,
            "sha256": written["sha256"] if name == "tags" else sha256_file(p),
        }
        for name, p in sorted(paths.items())
    }
    manifest = {
        "config_sha256": _config_sha256(scenario),
        "seed": scenario.seed,
        "package_version": __version__,
        # numpy's generators may change their streams between versions (NEP 19)
        "numpy_version": np.__version__,
        "artifacts": artifact_records,
    }
    paths["manifest"] = write_json(out / f"{stem}_manifest.json", manifest)
    return PipelineResult(
        histogram=hist,
        fit=fit,
        report=report,
        rejected=rejected,
        manifest=manifest,
        paths=paths,
    )
