"""Scenario presets and configuration loading.

A scenario bundles everything one acquisition needs: emitter rates,
ensemble size, acquisition length, detection geometry and budget, fiber
placement, correlator binning and fit settings.  Scenarios come from YAML
mappings (or files); the two photophysics presets are the only place the
reference lifetime table lives.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import yaml

from .errors import ConfigError, InvalidGeometry, UnknownScenario
from .fitter import DEFAULT_INVERSION, DEFAULT_MAX_ITERATIONS, INVERSIONS
from .kinetics import RateSet
from .optics import DetectionGeometry, DipoleMix, EfficiencyBudget, coupling_ratio

__all__ = [
    "DEFAULT_BIN_WIDTH_PS",
    "DEFAULT_N_EMITTERS",
    "DEFAULT_WINDOW_PS",
    "Scenario",
    "rate_preset",
    "geometry_preset",
    "budget_preset",
    "scenario_from_mapping",
    "load_scenario",
    "validate_config",
    "builtin_scenario",
    "builtin_scenario_names",
]

DEFAULT_N_EMITTERS = 10
DEFAULT_BIN_WIDTH_PS = 1000
DEFAULT_WINDOW_PS = 150_000  # max |lag| of the histogram

# characteristic times in ns: (tau12, tau21, tau23, tau31) at the reference
# excitation power, for emitters on bare glass and coupled to a silver film
_LIFETIME_PRESETS: dict[str, tuple[float, float, float, float]] = {
    "glass": (51.0, 60.0, 23.0, 300.0),
    "silver": (27.0, 9.7, 27.4, 102.0),
}

_FIBER_CONFIGS = ("AA", "AB", "BB", "DirectPlane")


def rate_preset(name: str) -> RateSet:
    """Reference photophysics: 'glass' or 'silver'."""
    key = str(name).lower()
    if key not in _LIFETIME_PRESETS:
        raise UnknownScenario(f"unknown rate preset {name!r}; expected glass or silver")
    return RateSet.from_lifetimes(*_LIFETIME_PRESETS[key])


def geometry_preset(name: str) -> DetectionGeometry:
    """'fourier_default': 7% pickup fibers at 0 and pi/2 on the leakage ring.
    'ideal_split': two half-ring fibers covering the full circle."""
    key = str(name).lower()
    if key == "fourier_default":
        return DetectionGeometry()
    if key == "ideal_split":
        return DetectionGeometry(
            fiber_a_angle=0.0,
            fiber_b_angle=math.pi,
            fiber_effective_diameter=math.pi,
            ring_radius_bfp=1.0,
        )
    raise UnknownScenario(
        f"unknown geometry preset {name!r}; expected fourier_default or ideal_split")


def budget_preset(name: str) -> tuple[EfficiencyBudget, float | None]:
    """Named detection chain: its efficiency budget and the signal fraction it sets.

    Returns (budget, rho).  rho is the per-detector signal fraction that
    stray light leaves, or None when the chain adds no background; a
    scenario's own `rho` or `background_rate` takes precedence over it.

    'ideal': every probability 1.
    'glass': direct fluorescence collection of emitters on bare glass.
    'silver_filtered': plasmon-coupled emitters (mode index 1.04) seen
    through the Fourier-plane filter that selects the leakage ring.
    'silver_unfiltered': the same chain without that filter, rho = 0.8
    whatever the emitter count, rates or fiber geometry.

    Names match case-insensitively and ignore '_' and '-'.
    """
    key = str(name).replace("_", "").replace("-", "").lower()
    if key == "ideal":
        return EfficiencyBudget(), None
    if key == "glass":
        return EfficiencyBudget(p_collect=0.047, p_bs=0.5, p_qe=0.65), None
    if key in ("silverfiltered", "silverunfiltered"):
        budget = EfficiencyBudget(
            p_couple_vertical=0.48,
            p_couple_horizontal=0.48 / coupling_ratio(1.04),
            p_survive=0.03,
            p_leak=0.25,
            p_collect=0.07,
            p_bs=0.5,
            p_qe=0.65,
        )
        return budget, (None if key == "silverfiltered" else 0.8)
    raise UnknownScenario(f"unknown budget preset {name!r}; expected ideal, glass, "
                          "silver_filtered or silver_unfiltered")


@dataclass(frozen=True)
class Scenario:
    """Fully resolved acquisition description; all fields are concrete values."""

    name: str
    rates: RateSet
    n_emitters: int
    duration_ns: float
    seed: int
    fiber_config: str
    geometry: DetectionGeometry
    budget: EfficiencyBudget
    mix: DipoleMix
    rho: float | None
    background_rate: float | None
    jitter_sigma_ns: float
    bin_width_ps: int
    window_ps: int
    fit_k12: float | None
    fit_max_iterations: int
    fit_inversion: str

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=int(seed))

    @property
    def routing_mode(self) -> str:
        return "direct" if self.fiber_config == "DirectPlane" else "fourier"

    @property
    def routing_geometry(self) -> DetectionGeometry:
        """Geometry with fiber angles resolved for the requested configuration."""
        if self.fiber_config == "AA":
            return replace(self.geometry, fiber_b_angle=self.geometry.fiber_a_angle)
        if self.fiber_config == "BB":
            return replace(self.geometry, fiber_a_angle=self.geometry.fiber_b_angle)
        return self.geometry

    @property
    def correlation_kind(self) -> str:
        """Same-point configurations are auto-correlations of the pooled tags."""
        return "cross" if self.fiber_config == "AB" else "auto"

    def to_mapping(self) -> dict:
        """Canonical plain-data form used for hashing and provenance."""
        return {
            "name": self.name,
            "rates": asdict(self.rates),
            "n_emitters": self.n_emitters,
            "duration_ns": self.duration_ns,
            "seed": self.seed,
            "fiber_config": self.fiber_config,
            "geometry": asdict(self.geometry),
            "budget": asdict(self.budget),
            "fraction_vertical": self.mix.fraction_vertical,
            "rho": self.rho,
            "background_rate": self.background_rate,
            "jitter_sigma_ns": self.jitter_sigma_ns,
            "bin_width_ps": self.bin_width_ps,
            "window_ps": self.window_ps,
            "fit": {"k12": self.fit_k12, "max_iterations": self.fit_max_iterations,
                    "inversion": self.fit_inversion},
        }


_KNOWN_KEYS = {
    "name", "rates", "n_emitters", "duration_ns", "seed", "fiber_config",
    "geometry", "budget", "fraction_vertical", "rho", "background_rate",
    "jitter_sigma_ns", "bin_width_ps", "window_ps", "fit",
}


def _as_float(value, field: str, errs: list[str], *, lo=None, hi=None, positive=False):
    try:
        v = float(value)
    except (TypeError, ValueError):
        errs.append(f"{field}: expected a number, got {value!r}")
        return None
    if not math.isfinite(v):
        errs.append(f"{field}: must be finite, got {value!r}")
        return None
    if positive and v <= 0.0:
        errs.append(f"{field}: must be > 0, got {value!r}")
        return None
    if lo is not None and hi is not None and not (lo <= v <= hi):
        errs.append(f"{field}: out of [{lo:g}, {hi:g}], got {value!r}")
        return None
    return v


def _as_int(value, field: str, errs: list[str], *, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        try:
            if float(value) != int(float(value)):
                raise ValueError
            value = int(float(value))
        except (TypeError, ValueError):
            errs.append(f"{field}: expected an integer, got {value!r}")
            return None
    if minimum is not None and value < minimum:
        errs.append(f"{field}: must be >= {minimum}, got {value!r}")
        return None
    return int(value)


def _resolve_rates(raw, errs: list[str]) -> RateSet | None:
    if isinstance(raw, str):
        try:
            return rate_preset(raw)
        except UnknownScenario as exc:
            errs.append(f"rates: {exc}")
            return None
    if isinstance(raw, dict):
        tau_keys = {"tau12", "tau21", "tau23", "tau31"}
        k_keys = {"k12", "k21", "k23", "k31"}
        try:
            if set(raw) == tau_keys:
                return RateSet.from_lifetimes(**{k: float(raw[k]) for k in tau_keys})
            if set(raw) == k_keys:
                return RateSet(**{k: float(raw[k]) for k in k_keys})
        except (TypeError, ValueError) as exc:
            errs.append(f"rates: {exc}")
            return None
        errs.append(f"rates: mapping must have exactly keys {sorted(tau_keys)} "
                    f"or {sorted(k_keys)}, got {sorted(raw)}")
        return None
    errs.append(f"rates: expected preset name or mapping, got {raw!r}")
    return None


def _resolve_geometry(raw, errs: list[str]) -> DetectionGeometry | None:
    if raw is None:
        return DetectionGeometry()
    if isinstance(raw, str):
        try:
            return geometry_preset(raw)
        except UnknownScenario as exc:
            errs.append(f"geometry: {exc}")
            return None
    if isinstance(raw, dict):
        unknown = set(raw) - {f.name for f in fields(DetectionGeometry)}
        if unknown:
            errs.append(f"geometry: unknown fields {sorted(unknown)}")
            return None
        try:
            return DetectionGeometry(**raw)
        except (InvalidGeometry, TypeError, ValueError) as exc:
            errs.append(f"geometry: {exc}")
            return None
    errs.append(f"geometry: expected preset name or mapping, got {raw!r}")
    return None


def _resolve_budget(raw, errs: list[str]) -> tuple[EfficiencyBudget | None, float | None]:
    if raw is None:
        return EfficiencyBudget(), None
    if isinstance(raw, str):
        try:
            return budget_preset(raw)
        except UnknownScenario as exc:
            errs.append(f"budget: {exc}")
            return None, None
    if isinstance(raw, dict):
        unknown = set(raw) - {f.name for f in fields(EfficiencyBudget)}
        if unknown:
            errs.append(f"budget: unknown fields {sorted(unknown)}")
            return None, None
        try:
            return EfficiencyBudget(**raw), None
        except (TypeError, ValueError) as exc:
            errs.append(f"budget: {exc}")
            return None, None
    errs.append(f"budget: expected preset name or mapping, got {raw!r}")
    return None, None


def scenario_from_mapping(mapping: dict, *, default_name: str = "scenario") -> Scenario:
    """Resolve and validate a raw mapping; raises ConfigError listing all problems."""
    if not isinstance(mapping, dict):
        raise ConfigError([f"top level: expected a mapping, got {type(mapping).__name__}"])
    errs: list[str] = []
    unknown = set(mapping) - _KNOWN_KEYS
    if unknown:
        errs.append(f"top level: unknown fields {sorted(unknown)}")

    name = str(mapping.get("name", default_name))
    rates = _resolve_rates(mapping.get("rates"), errs) if "rates" in mapping else None
    if "rates" not in mapping:
        errs.append("rates: required (preset name or mapping)")
    n_emitters = _as_int(mapping.get("n_emitters", DEFAULT_N_EMITTERS),
                         "n_emitters", errs, minimum=1)
    duration = _as_float(mapping.get("duration_ns"), "duration_ns", errs, positive=True) \
        if "duration_ns" in mapping else None
    if "duration_ns" not in mapping:
        errs.append("duration_ns: required")
    seed = _as_int(mapping.get("seed", 0), "seed", errs)

    fiber_config = str(mapping.get("fiber_config", "AB"))
    if fiber_config not in _FIBER_CONFIGS:
        errs.append(f"fiber_config: expected one of {_FIBER_CONFIGS}, got {fiber_config!r}")

    geometry = _resolve_geometry(mapping.get("geometry"), errs)
    budget, preset_rho = _resolve_budget(mapping.get("budget"), errs)

    fv = _as_float(mapping.get("fraction_vertical", 1.0 / 3.0),
                   "fraction_vertical", errs, lo=0.0, hi=1.0)
    rho = None
    if mapping.get("rho") is not None:
        rho = _as_float(mapping["rho"], "rho", errs, lo=0.0, hi=1.0)
    background = None
    if mapping.get("background_rate") is not None:
        background = _as_float(mapping["background_rate"], "background_rate", errs)
        if background is not None and background < 0.0:
            errs.append(f"background_rate: must be >= 0, got {background!r}")
            background = None
    if rho is not None and background is not None:
        errs.append("rho and background_rate are mutually exclusive; set one")
    if rho is None and background is None:
        rho = preset_rho

    jitter = _as_float(mapping.get("jitter_sigma_ns", 0.0), "jitter_sigma_ns", errs)
    if jitter is not None and jitter < 0.0:
        errs.append(f"jitter_sigma_ns: must be >= 0, got {jitter!r}")
        jitter = None

    bin_width = _as_int(mapping.get("bin_width_ps", DEFAULT_BIN_WIDTH_PS),
                        "bin_width_ps", errs, minimum=1)
    window = _as_int(mapping.get("window_ps", DEFAULT_WINDOW_PS), "window_ps", errs, minimum=1)
    if bin_width and window:
        if window % bin_width:
            errs.append(f"window_ps: must be a multiple of bin_width_ps "
                        f"({window} % {bin_width} != 0)")
        elif window // bin_width < 4:
            errs.append("window_ps: window must span at least 4 bins per side")

    fit_raw = mapping.get("fit", {}) or {}
    fit_k12 = None
    fit_iters = DEFAULT_MAX_ITERATIONS
    fit_inversion = DEFAULT_INVERSION
    if not isinstance(fit_raw, dict):
        errs.append(f"fit: expected a mapping, got {fit_raw!r}")
    else:
        unknown_fit = set(fit_raw) - {"k12", "max_iterations", "inversion"}
        if unknown_fit:
            errs.append(f"fit: unknown fields {sorted(unknown_fit)}")
        if fit_raw.get("k12") is not None:
            fit_k12 = _as_float(fit_raw["k12"], "fit.k12", errs, positive=True)
        fit_iters = _as_int(fit_raw.get("max_iterations", DEFAULT_MAX_ITERATIONS),
                            "fit.max_iterations", errs, minimum=1)
        fit_inversion = str(fit_raw.get("inversion", DEFAULT_INVERSION))
        if fit_inversion not in INVERSIONS:
            errs.append(f"fit.inversion: expected one of {INVERSIONS}, got {fit_inversion!r}")

    if errs:
        raise ConfigError(errs)
    return Scenario(
        name=name,
        rates=rates,
        n_emitters=n_emitters,
        duration_ns=duration,
        seed=seed,
        fiber_config=fiber_config,
        geometry=geometry,
        budget=budget,
        mix=DipoleMix(fraction_vertical=fv),
        rho=rho,
        background_rate=background,
        jitter_sigma_ns=jitter,
        bin_width_ps=bin_width,
        window_ps=window,
        fit_k12=fit_k12,
        fit_max_iterations=fit_iters,
        fit_inversion=fit_inversion,
    )


def load_scenario(path) -> Scenario:
    """Parse a YAML scenario file; raises ConfigError with field diagnostics."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError([f"{p}: {exc}"]) from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError([f"{p.name}{where}: invalid YAML: {exc}"]) from exc
    return scenario_from_mapping(raw if raw is not None else {}, default_name=p.stem)


def validate_config(source) -> tuple[Scenario | None, list[str]]:
    """Validate a path, mapping or builtin preset name without raising.

    Returns (scenario, []) when valid or (None, diagnostics) otherwise.
    """
    try:
        if isinstance(source, dict):
            return scenario_from_mapping(source), []
        s = str(source)
        if s in builtin_scenario_names():
            return builtin_scenario(s), []
        if not Path(s).exists():
            return None, [f"{s}: not a builtin scenario and no such file; "
                          f"builtins: {', '.join(builtin_scenario_names())}"]
        return load_scenario(s), []
    except ConfigError as exc:
        return None, exc.diagnostics


# Demo scenarios run with lossless detection so a single command produces a
# well-populated histogram in seconds; the realistic throughput budgets stay
# available through `budget_preset` for count-rate studies.
_BUILTIN: dict[str, dict] = {
    "silver_ab": {
        "rates": "silver", "n_emitters": 10, "duration_ns": 3.0e7, "seed": 7,
        "fiber_config": "AB", "geometry": "fourier_default", "budget": "ideal",
        "fit": {"k12": 1.0 / 27.0},
    },
    "silver_aa": {
        "rates": "silver", "n_emitters": 10, "duration_ns": 3.0e7, "seed": 7,
        "fiber_config": "AA", "geometry": "fourier_default", "budget": "ideal",
        "fit": {"k12": 1.0 / 27.0},
    },
    "silver_unfiltered_ab": {
        "rates": "silver", "n_emitters": 10, "duration_ns": 3.0e7, "seed": 7,
        "fiber_config": "AB", "geometry": "fourier_default", "budget": "ideal",
        "rho": 0.8,
        "fit": {"k12": 1.0 / 27.0},
    },
    "glass_direct": {
        "rates": "glass", "n_emitters": 10, "duration_ns": 1.0e8, "seed": 7,
        "fiber_config": "DirectPlane", "budget": "ideal",
        "fit": {"k12": 1.0 / 51.0},
    },
}


def builtin_scenario_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTIN))


def builtin_scenario(name: str) -> Scenario:
    """Ready-made demonstration scenarios mirroring the two sample types."""
    key = str(name).lower()
    if key not in _BUILTIN:
        raise UnknownScenario(
            f"unknown scenario {name!r}; builtins: {', '.join(builtin_scenario_names())}")
    return scenario_from_mapping(dict(_BUILTIN[key]), default_name=key)
