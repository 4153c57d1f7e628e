"""Scenario presets and configuration loading.

A scenario bundles everything one acquisition needs: emitter rates,
ensemble size, acquisition length, detection geometry and budget, fiber
placement, correlator binning and fit settings.  Scenarios come from YAML
mappings (or files); the two photophysics presets are the only place the
reference lifetime table lives.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

import yaml

from .errors import ConfigError, UnknownScenario
from .fitter import (
    DEFAULT_INVERSION,
    DEFAULT_MAX_ITERATIONS,
    INVERSIONS,
    LOWER_BOUNDS,
    PARAM_NAMES,
    UPPER_BOUNDS,
)
from .kinetics import RateSet
from .optics import DetectionGeometry, DipoleMix, EfficiencyBudget, coupling_ratio

__all__ = [
    "DEFAULT_BIN_WIDTH_PS",
    "DEFAULT_WINDOW_PS",
    "FitSettings",
    "Scenario",
    "check_setting",
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
        return replace(self, seed=check_setting("seed", seed))

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


# The one rule of each setting, wherever it enters (scenario, stored value or
# flag): a tuple of choices, a mapping of the number rule's options, or a
# pattern the whole text must match.
_RULES: dict[str, tuple | dict | re.Pattern] = {
    # the stem of every artifact path: non-empty, no separator, no leading dot,
    # so the artifacts stay inside the output directory
    "name": re.compile(r"[^./\\\0][^/\\\0]*"),
    "duration_ns": {"positive": True},
    "n_emitters": {"integer": True, "minimum": 1},
    "seed": {"integer": True, "minimum": 0},  # SeedSequence takes no negative seed
    "fiber_config": _FIBER_CONFIGS,
    "fraction_vertical": {"minimum": 0.0, "maximum": 1.0},
    "rho": {"positive": True, "minimum": 0.0, "maximum": 1.0},  # 0 needs infinite background
    "jitter_sigma_ns": {"minimum": 0.0},
    "bin_width_ps": {"integer": True, "minimum": 1},
    "window_ps": {"integer": True, "minimum": 1},
    "fit.k12": {"positive": True},
    "fit.max_iterations": {"integer": True, "minimum": 1},
    "fit.inversion": INVERSIONS,
    "correlation": ("auto", "cross"),
    # a stored fit record: each parameter in the fitter's box, every
    # covariance entry a finite number
    **{f"params.{name}": {"minimum": lo, "maximum": hi}
       for name, lo, hi in zip(PARAM_NAMES, LOWER_BOUNDS, UPPER_BOUNDS)},
    "covariance": {},
    "n_iterations": {"integer": True, "minimum": 1},
    "n_points": {"integer": True, "minimum": 1},
}


def _number(value, *, integer=False, minimum=None, maximum=None, positive=False, finite=True):
    """`value` as an int or float, or a ValueError saying what is wrong; text is parsed
    (integers exactly), and YAML's true and false are not numbers."""
    v = value
    if isinstance(v, str):
        try:
            v = int(v) if v.strip().lstrip("+-").isdigit() else float(v)
        except ValueError:
            pass
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"expected {'an integer' if integer else 'a number'}, got {value!r}")
    if not isinstance(v, numbers.Integral):
        v = float(v)
        if finite and not math.isfinite(v):
            raise ValueError(f"must be finite, got {value!r}")
        if integer and not v.is_integer():
            raise ValueError(f"expected an integer, got {value!r}")
    try:
        v = int(v) if integer else float(v)
    except OverflowError:  # an integer beyond every float
        raise ValueError(f"must be finite, got {value!r}") from None
    if positive and v <= 0:
        raise ValueError(f"must be > 0, got {value!r}")
    if maximum is not None and not minimum <= v <= maximum:
        raise ValueError(f"out of [{minimum:g}, {maximum:g}], got {value!r}")
    if minimum is not None and v < minimum:
        raise ValueError(f"must be >= {minimum:g}, got {value!r}")
    return v


def check_setting(key: str, value):
    """`value` held to the rule of setting `key` (`fit.k12` for a nested one, or the
    stored `correlation`); a ValueError saying what is wrong if it breaks it."""
    rule = _RULES[key]
    if isinstance(rule, dict):
        return _number(value, **rule)
    if isinstance(rule, re.Pattern):
        if not (isinstance(value, str) and rule.fullmatch(value)):
            raise ValueError("expected a non-empty file name without a path separator "
                             f"or a leading dot, got {value!r}")
        return value
    if value not in rule:
        raise ValueError(f"expected one of {', '.join(rule)}, got {value!r}")
    return value


def _rule(errs: list[str], key: str, value):
    """check_setting(key, value), or None after appending `key: <problem>` to errs."""
    try:
        return check_setting(key, value)
    except ValueError as exc:
        errs.append(f"{key}: {exc}")
        return None


def _numbers(raw: dict, key: str, errs: list[str], finite: bool = True) -> dict | None:
    """Each value of the nested mapping `key` held to the number rule; None if one breaks it."""
    values = {}
    for k, v in raw.items():
        try:
            values[k] = _number(v, finite=finite)
        except ValueError as exc:
            errs.append(f"{key}.{k}: {exc}")
    return values if len(values) == len(raw) else None


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
        if set(raw) not in (tau_keys, k_keys):
            errs.append(f"rates: mapping must have exactly keys {sorted(tau_keys)} "
                        f"or {sorted(k_keys)}, got {sorted(raw)}")
            return None
        # an infinite lifetime is a zero rate
        values = _numbers(raw, "rates", errs, finite=set(raw) == k_keys)
        if values is None:
            return None
        try:
            return RateSet(**values) if set(raw) == k_keys else RateSet.from_lifetimes(**values)
        except ValueError as exc:
            errs.append(f"rates: {exc}")
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
        values = _numbers(raw, key, errs)
        if values is None:
            return None
        try:
            return type(default)(**values)
        except ValueError as exc:
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
    # a null k12 is no pump rate
    return FitSettings(**{k: _rule(errs, f"fit.{k}", v) for k, v in raw.items()
                          if k not in unknown and not (k == "k12" and v is None)})


def scenario_from_mapping(mapping: dict, *, default_name: str = "scenario") -> Scenario:
    """Resolve and validate a raw mapping; raises ConfigError listing all problems."""
    if not isinstance(mapping, dict):
        raise ConfigError([f"top level: expected a mapping, got {type(mapping).__name__}"])
    errs: list[str] = []
    unknown = _unknown(mapping, Scenario)
    if unknown:
        errs.append(f"top level: unknown fields {unknown}")

    def setting(key: str):
        return _rule(errs, key, mapping.get(key, _DEFAULTS[key]))

    v = {"name": _rule(errs, "name", str(mapping.get("name", default_name)))}
    if "rates" in mapping:
        v["rates"] = _resolve_rates(mapping["rates"], errs)
    else:
        errs.append("rates: required (preset name or mapping)")
    if "duration_ns" in mapping:
        v["duration_ns"] = _rule(errs, "duration_ns", mapping["duration_ns"])
    else:
        errs.append("duration_ns: required")
    for key in ("n_emitters", "seed", "fiber_config"):
        v[key] = setting(key)

    v["geometry"] = _resolve_preset("geometry", mapping.get("geometry"), geometry_preset, errs)
    raw_budget = mapping.get("budget")
    v["budget"] = _resolve_preset("budget", raw_budget, lambda n: budget_preset(n)[0], errs)

    v["fraction_vertical"] = setting("fraction_vertical")
    if mapping.get("rho") is not None:
        v["rho"] = setting("rho")
    elif isinstance(raw_budget, str) and v["budget"] is not None:
        v["rho"] = budget_preset(raw_budget)[1]

    for key in ("jitter_sigma_ns", "bin_width_ps", "window_ps"):
        v[key] = setting(key)
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
