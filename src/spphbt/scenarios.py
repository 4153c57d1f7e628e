"""Scenario presets and configuration loading.

A scenario bundles everything one acquisition needs: emitter rates,
ensemble size, acquisition length, detection geometry and budget, fiber
placement, correlator binning and fit settings.  Scenarios come from YAML
mappings (or files); the two photophysics presets are the only place the
reference lifetime table lives.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

import yaml

from .errors import ConfigError, UnknownScenario
from .fitter import DEFAULT_INVERSION, DEFAULT_MAX_ITERATIONS, INVERSIONS
from .kinetics import RateSet
from .optics import DetectionGeometry, DipoleMix, EfficiencyBudget, coupling_ratio

__all__ = [
    "DEFAULT_BIN_WIDTH_PS",
    "DEFAULT_WINDOW_PS",
    "FitSettings",
    "Scenario",
    "check_window",
    "rate_preset",
    "geometry_preset",
    "budget_preset",
    "scenario_from_mapping",
    "load_scenario",
    "validate_config",
    "builtin_scenario",
    "builtin_scenario_names",
]

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

    Returns (budget, rho).  rho is the signal fraction that stray light
    leaves on each detector, whatever the beamsplitter ratio, or None when
    the chain adds no background; a scenario's own `rho` takes precedence
    over it.

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
class FitSettings:
    """The scenario's `fit` section: pump rate for the rate inversion, iteration
    budget and inversion; without a pump rate no photophysics report is made."""

    k12: float | None = None
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    inversion: str = DEFAULT_INVERSION


@dataclass(frozen=True)
class Scenario:
    """Fully resolved acquisition description; all fields are concrete values.

    The fields are the scenario keys, and a key a mapping leaves out takes
    the field default; `name` falls back to the file stem.
    """

    name: str
    rates: RateSet
    duration_ns: float
    n_emitters: int = 10
    seed: int = 0
    fiber_config: str = "AB"
    geometry: DetectionGeometry = DetectionGeometry()
    budget: EfficiencyBudget = EfficiencyBudget()
    fraction_vertical: float = DipoleMix.fraction_vertical
    rho: float | None = None
    jitter_sigma_ns: float = 0.0
    bin_width_ps: int = DEFAULT_BIN_WIDTH_PS
    window_ps: int = DEFAULT_WINDOW_PS
    fit: FitSettings = FitSettings()

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=int(seed))

    @property
    def mix(self) -> DipoleMix:
        return DipoleMix(fraction_vertical=self.fraction_vertical)

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
        return asdict(self)


_DEFAULTS = {f.name: f.default for f in fields(Scenario) if f.default is not MISSING}


def check_window(window_ps: int, bin_width_ps: int) -> list[str]:
    """Diagnostics for a histogram window: a multiple of the bin width, at least 4 bins per side."""
    if window_ps % bin_width_ps:
        return [f"window_ps: must be a multiple of bin_width_ps "
                f"({window_ps} % {bin_width_ps} != 0)"]
    if window_ps // bin_width_ps < 4:
        return ["window_ps: window must span at least 4 bins per side"]
    return []


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


def _unknown(mapping: dict, cls) -> list[str]:
    return sorted(set(mapping) - {f.name for f in fields(cls)})


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


def _resolve_preset(key: str, raw, preset, errs: list[str]):
    """The `key` field from a preset name, a mapping of its class's fields, or its default."""
    default = _DEFAULTS[key]
    if raw is None:
        return default
    if isinstance(raw, str):
        try:
            return preset(raw)
        except UnknownScenario as exc:
            errs.append(f"{key}: {exc}")
            return None
    if isinstance(raw, dict):
        unknown = _unknown(raw, type(default))
        if unknown:
            errs.append(f"{key}: unknown fields {unknown}")
            return None
        try:
            return type(default)(**raw)
        except (TypeError, ValueError) as exc:
            errs.append(f"{key}: {exc}")
            return None
    errs.append(f"{key}: expected preset name or mapping, got {raw!r}")
    return None


def _resolve_fit(raw, errs: list[str]) -> FitSettings | None:
    """The `fit` section; only a missing key or null means the defaults."""
    if raw is None:
        return _DEFAULTS["fit"]
    if not isinstance(raw, dict):
        errs.append(f"fit: expected a mapping, got {raw!r}")
        return None
    unknown = _unknown(raw, FitSettings)
    if unknown:
        errs.append(f"fit: unknown fields {unknown}")
    default = _DEFAULTS["fit"]
    k12 = None
    if raw.get("k12") is not None:
        k12 = _as_float(raw["k12"], "fit.k12", errs, positive=True)
    max_iterations = _as_int(raw.get("max_iterations", default.max_iterations),
                             "fit.max_iterations", errs, minimum=1)
    inversion = str(raw.get("inversion", default.inversion))
    if inversion not in INVERSIONS:
        errs.append(f"fit.inversion: expected one of {INVERSIONS}, got {inversion!r}")
    return FitSettings(k12=k12, max_iterations=max_iterations, inversion=inversion)


def scenario_from_mapping(mapping: dict, *, default_name: str = "scenario") -> Scenario:
    """Resolve and validate a raw mapping; raises ConfigError listing all problems."""
    if not isinstance(mapping, dict):
        raise ConfigError([f"top level: expected a mapping, got {type(mapping).__name__}"])
    errs: list[str] = []
    unknown = _unknown(mapping, Scenario)
    if unknown:
        errs.append(f"top level: unknown fields {unknown}")

    def get(key: str):
        return mapping.get(key, _DEFAULTS[key])

    v = {"name": str(mapping.get("name", default_name))}
    if "rates" in mapping:
        v["rates"] = _resolve_rates(mapping["rates"], errs)
    else:
        errs.append("rates: required (preset name or mapping)")
    if "duration_ns" in mapping:
        v["duration_ns"] = _as_float(mapping["duration_ns"], "duration_ns", errs, positive=True)
    else:
        errs.append("duration_ns: required")
    v["n_emitters"] = _as_int(get("n_emitters"), "n_emitters", errs, minimum=1)
    v["seed"] = _as_int(get("seed"), "seed", errs)

    v["fiber_config"] = str(get("fiber_config"))
    if v["fiber_config"] not in _FIBER_CONFIGS:
        errs.append(f"fiber_config: expected one of {_FIBER_CONFIGS}, got {v['fiber_config']!r}")

    v["geometry"] = _resolve_preset("geometry", mapping.get("geometry"), geometry_preset, errs)
    raw_budget = mapping.get("budget")
    v["budget"] = _resolve_preset("budget", raw_budget, lambda n: budget_preset(n)[0], errs)

    v["fraction_vertical"] = _as_float(get("fraction_vertical"), "fraction_vertical", errs,
                                       lo=0.0, hi=1.0)
    if mapping.get("rho") is not None:
        # rho = 0 would need infinite background
        v["rho"] = _as_float(mapping["rho"], "rho", errs, lo=0.0, hi=1.0, positive=True)
    elif isinstance(raw_budget, str) and v["budget"] is not None:
        v["rho"] = budget_preset(raw_budget)[1]

    v["jitter_sigma_ns"] = _as_float(get("jitter_sigma_ns"), "jitter_sigma_ns", errs)
    if v["jitter_sigma_ns"] is not None and v["jitter_sigma_ns"] < 0.0:
        errs.append(f"jitter_sigma_ns: must be >= 0, got {v['jitter_sigma_ns']!r}")

    v["bin_width_ps"] = _as_int(get("bin_width_ps"), "bin_width_ps", errs, minimum=1)
    v["window_ps"] = _as_int(get("window_ps"), "window_ps", errs, minimum=1)
    if v["bin_width_ps"] and v["window_ps"]:
        errs.extend(check_window(v["window_ps"], v["bin_width_ps"]))

    v["fit"] = _resolve_fit(mapping.get("fit"), errs)

    if errs:
        raise ConfigError(errs)
    return Scenario(**v)


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
