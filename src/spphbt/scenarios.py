"""Scenario presets and configuration loading.

A scenario bundles everything one acquisition needs: emitter rates,
ensemble size, acquisition length, detection geometry and budget, fiber
placement, correlator binning and fit settings.  Scenarios come from YAML
mappings (or files).

Every preset is data: `_PRESETS` holds the mapping that each rate,
geometry, budget and builtin scenario name stands for, and a name resolves
exactly as that mapping written out would.  One rule matches every preset
name: case-insensitive, ignoring '_' and '-'.  The two rate presets are the
only place the reference lifetime table lives.
"""

from __future__ import annotations

import math
import numbers
import re
from collections.abc import Hashable
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
    "check_setting",
    "check_window",
    "stored_setting",
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
_REQUIRED = object()  # the default of a value that must be stored

_FIBER_CONFIGS = ("AA", "AB", "BB", "DirectPlane")

_SILVER_BUDGET = {  # plasmon-coupled emitters (mode index 1.04) seen on the leakage ring
    "p_couple_vertical": 0.48, "p_couple_horizontal": 0.48 / coupling_ratio(1.04),
    "p_survive": 0.03, "p_leak": 0.25, "p_collect": 0.07, "p_bs": 0.5, "p_qe": 0.65}
_SILVER_DEMO = {"rates": "silver", "n_emitters": 10, "duration_ns": 3.0e7, "seed": 7,
                "geometry": "fourier_default", "budget": "ideal", "fit": {"k12": 1.0 / 27.0}}

# Every preset, by kind: the mapping its name stands for, which resolves as the same
# mapping written out in a scenario would.  `_preset` looks a name up.
_PRESETS: dict[str, dict[str, dict]] = {
    # characteristic times in ns at the reference excitation power, for emitters on
    # bare glass and coupled to a silver film
    "rates": {
        "glass": {"tau12": 51.0, "tau21": 60.0, "tau23": 23.0, "tau31": 300.0},
        "silver": {"tau12": 27.0, "tau21": 9.7, "tau23": 27.4, "tau31": 102.0},
    },
    # 7% pickup fibers at 0 and pi/2 on the leakage ring, or two half-ring fibers
    # covering the full circle
    "geometry": {
        "fourier_default": {},
        "ideal_split": {"fiber_a_angle": 0.0, "fiber_b_angle": math.pi,
                        "fiber_effective_diameter": math.pi, "ring_radius_bfp": 1.0},
    },
    # lossless, direct collection on bare glass, and the silver chain with and
    # without the Fourier-plane filter (see `budget_preset`)
    "budget": {
        "ideal": {},
        "glass": {"p_collect": 0.047, "p_bs": 0.5, "p_qe": 0.65},
        "silver_filtered": _SILVER_BUDGET,
        "silver_unfiltered": _SILVER_BUDGET,
    },
    # Demo scenarios run with lossless detection so a single command produces a
    # well-populated histogram in seconds; the realistic throughput budgets stay
    # available through `budget_preset` for count-rate studies.
    "scenario": {
        "glass_direct": {
            "rates": "glass", "n_emitters": 10, "duration_ns": 1.0e8, "seed": 7,
            "fiber_config": "DirectPlane", "budget": "ideal", "fit": {"k12": 1.0 / 51.0},
        },
        "silver_aa": dict(_SILVER_DEMO, fiber_config="AA"),
        "silver_ab": dict(_SILVER_DEMO, fiber_config="AB"),
        "silver_unfiltered_ab": dict(_SILVER_DEMO, fiber_config="AB", rho=0.8),
    },
}
# the signal fraction a budget preset sets; the others add no background
_PRESET_RHO = {"silver_unfiltered": 0.8}
_PRESET_LABELS = {"rates": "rate preset", "geometry": "geometry preset",
                  "budget": "budget preset", "scenario": "scenario"}


def _name_key(name) -> str:
    """The one preset-name rule: case-insensitive, ignoring '_' and '-'."""
    return str(name).replace("_", "").replace("-", "").lower()


_PRESET_KEYS = {kind: {_name_key(n): n for n in table} for kind, table in _PRESETS.items()}


def _preset(kind: str, name) -> tuple[str, dict]:
    """The canonical name and the mapping of preset `name` of `kind`, or UnknownScenario."""
    canonical = _PRESET_KEYS[kind].get(_name_key(name))
    if canonical is None:
        *names, last = _PRESETS[kind]
        raise UnknownScenario(
            f"unknown {_PRESET_LABELS[kind]} {name!r}; expected {', '.join(names)} or {last}")
    return canonical, _PRESETS[kind][canonical]


def rate_preset(name: str) -> RateSet:
    """Reference photophysics: 'glass' or 'silver'."""
    return RateSet.from_lifetimes(**_preset("rates", name)[1])


def geometry_preset(name: str) -> DetectionGeometry:
    """'fourier_default': 7% pickup fibers at 0 and pi/2 on the leakage ring.
    'ideal_split': two half-ring fibers covering the full circle."""
    return DetectionGeometry(**_preset("geometry", name)[1])


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

    Names follow the one preset-name rule of every preset: they match
    case-insensitively and ignore '_' and '-'.
    """
    canonical, mapping = _preset("budget", name)
    return EfficiencyBudget(**mapping), _PRESET_RHO.get(canonical)


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
_SCENARIO_KEYS = tuple(f.name for f in fields(Scenario))  # in diagnostic order
_LIFETIME_KEYS = frozenset(("tau12", "tau21", "tau23", "tau31"))
_RATE_KEYS = frozenset(("k12", "k21", "k23", "k31"))
# the fields of each nested section, each with the key of its rule; rates take exactly
# the lifetimes or exactly the rates
_SECTION_FIELDS = {key: {name: f"{key}.{name}" for name in names} for key, names in {
    "rates": sorted(_LIFETIME_KEYS | _RATE_KEYS),
    "geometry": [f.name for f in fields(DetectionGeometry)],
    "budget": [f.name for f in fields(EfficiencyBudget)],
    "fit": [f.name for f in fields(FitSettings)],
}.items()}
# where a null means the key is left out: a whole optional section, the name (the file
# stem), and the values whose default is none (no background, no pump rate)
_NULL_IS_ABSENT = frozenset(("name", "geometry", "budget", "fit", "rho", "fit.k12"))


def check_window(window_ps: int, bin_width_ps: int, duration_ps: float) -> list[str]:
    """Diagnostics for a histogram window: whole bins, at least 4 a side, within the acquisition."""
    if window_ps % bin_width_ps:
        return [f"window_ps: must be a multiple of bin_width_ps "
                f"({window_ps} % {bin_width_ps} != 0)"]
    if window_ps // bin_width_ps < 4:
        return ["window_ps: window must span at least 4 bins per side"]
    if window_ps > duration_ps:
        return [f"window_ps: must be <= the acquisition's {duration_ps:g} ps, got {window_ps}"]
    return []


# The one rule of each setting and stored field, wherever it enters (scenario,
# artifact or flag): a tuple of choices, a mapping of the number rule's options,
# or a pattern the whole text must match.
_RULES: dict[str, tuple | dict | re.Pattern] = {
    # the stem of every artifact path: non-empty, no separator, no leading dot,
    # so the artifacts stay inside the output directory
    "name": re.compile(r"[^./\\\0][^/\\\0]*"),
    # a tag is an int64 count of ps, so no acquisition reaches 2^63 ps
    "duration_ns": {"positive": True, "minimum": 0.0, "maximum": 2.0 ** 63 / 1000.0},
    # each emitter draws from its own SeedSequence child, all spawned before the first
    # draw: 1e4 take about 0.1 s, 1e9 would take hours and hundreds of GB
    "n_emitters": {"integer": True, "minimum": 1, "maximum": 10_000},
    "seed": {"integer": True, "minimum": 0},  # SeedSequence takes no negative seed
    "fiber_config": _FIBER_CONFIGS,
    "fraction_vertical": {"minimum": 0.0, "maximum": 1.0},
    "rho": {"positive": True, "minimum": 0.0, "maximum": 1.0},  # 0 needs infinite background
    # as for duration_ns: no jitter is wider than the int64 clock's 2^63 ps
    "jitter_sigma_ns": {"minimum": 0.0, "maximum": 2.0 ** 63 / 1000.0},
    "bin_width_ps": {"integer": True, "minimum": 1},
    "window_ps": {"integer": True, "minimum": 1},
    # a nested field without a rule of its own follows the plain number rule
    **{rule: {} for names in _SECTION_FIELDS.values() for rule in names.values()},
    # .inf is a zero rate, except the pump's: emitters that are never pumped never emit
    **{f"rates.{name}": {"finite": False} for name in _LIFETIME_KEYS - {"tau12"}},
    **dict.fromkeys(("rates.k12", "fit.k12"), {"positive": True}),
    "fit.max_iterations": {"integer": True, "minimum": 1},
    "fit.inversion": INVERSIONS,
    "correlation": ("auto", "cross"),
    # the sidecars' own fields
    "duration_ps": {"integer": True, "minimum": 1},
    "lag_min_ps": {"integer": True},
    **dict.fromkeys(("rate_a_hz", "rate_b_hz"), {"positive": True}),
    **dict.fromkeys(("n_a", "n_b"), {"integer": True, "minimum": 0}),
}


def _number(value, *, integer=False, minimum=None, maximum=None, positive=False, finite=True,
            text=True):
    """`value` as an int or float, or a ValueError saying what is wrong; with `text`, text is
    parsed (integers exactly), and YAML's true and false are not numbers."""
    v = value
    if text and isinstance(v, str):
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
        raise ValueError(f"out of {'(' if positive else '['}{minimum:g}, {maximum:g}], "
                         f"got {value!r}")
    if minimum is not None and v < minimum:
        raise ValueError(f"must be >= {minimum:g}, got {value!r}")
    return v


def check_setting(key: str, value, *, text: bool = True):
    """`value` held to the rule of setting `key` (`fit.k12` for a nested one, or the
    stored `correlation`); a ValueError saying what is wrong if it breaks it.  A number
    may arrive as text (a flag, or YAML's `1e7`) only with `text`."""
    rule = _RULES[key]
    if isinstance(rule, dict):
        return _number(value, **rule, text=text)
    if isinstance(rule, re.Pattern):
        if not (isinstance(value, str) and rule.fullmatch(value)):
            raise ValueError("expected a non-empty file name without a path separator "
                             f"or a leading dot, got {value!r}")
        return value
    if value not in rule:
        raise ValueError(f"expected one of {', '.join(rule)}, got {value!r}")
    return value


def stored_setting(stored: dict, key: str, path, rule: str | None = None, default=_REQUIRED):
    """The value under `key` in the artifact at `path`, held to the rule `rule` (by default
    `key`); null or absent is `default`, else a ValueError naming the file, as is a bad value.
    A writer stores every number as a JSON number, so text is no number here."""
    value = stored.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ValueError(f"{path}: missing {key}")
        return default
    try:
        return check_setting(rule or key, value, text=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {key}: {exc}") from None


def _listed(keys) -> list:
    """Keys in the order of their text, whatever their YAML type, for a diagnostic."""
    return sorted(keys, key=str)


def _rule(errs: list[str], key: str, value):
    """check_setting(key, value), or None after appending `key: <problem>` to errs."""
    try:
        return check_setting(key, value)
    except ValueError as exc:
        errs.append(f"{key}: {exc}")
        return None


def _section(errs: list[str], key: str, raw):
    """The nested section `key` (rates, geometry, budget or fit) from a mapping of its
    fields or a preset name, which stands for its mapping; None after appending each
    problem to errs."""
    if isinstance(raw, str) and key in _PRESETS:
        try:
            raw = _preset(key, raw)[1]
        except UnknownScenario as exc:
            errs.append(f"{key}: {exc}")
            return None
    if not isinstance(raw, dict):
        expected = "preset name or mapping" if key in _PRESETS else "a mapping"
        errs.append(f"{key}: expected {expected}, got {raw!r}")
        return None
    if key == "rates" and set(raw) not in (_LIFETIME_KEYS, _RATE_KEYS):
        errs.append(f"rates: mapping must have exactly keys {_listed(_LIFETIME_KEYS)} "
                    f"or {_listed(_RATE_KEYS)}, got {_listed(raw)}")
        return None
    n_errs = len(errs)
    rules = _SECTION_FIELDS[key]
    unknown = _listed(raw.keys() - rules.keys())
    if unknown:
        errs.append(f"{key}: unknown fields {unknown}")
    values = {k: _rule(errs, rules[k], v) for k, v in raw.items()
              if k in rules and not (v is None and rules[k] in _NULL_IS_ABSENT)}
    if len(errs) > n_errs:
        return None
    if key != "rates":
        build = type(_DEFAULTS[key])
    else:
        build = RateSet if set(raw) == _RATE_KEYS else RateSet.from_lifetimes
    try:
        return build(**values)
    except ValueError as exc:
        errs.append(f"{key}: {exc}")
        return None


def scenario_from_mapping(mapping: dict, *, default_name: str = "scenario") -> Scenario:
    """Resolve and validate a raw mapping; raises ConfigError listing all problems."""
    if not isinstance(mapping, dict):
        raise ConfigError([f"top level: expected a mapping, got {type(mapping).__name__}"])
    errs: list[str] = []
    unknown = _listed(mapping.keys() - _SCENARIO_KEYS)
    if unknown:
        errs.append(f"top level: unknown fields {unknown}")
    v = {}
    for key in _SCENARIO_KEYS:
        raw = mapping.get(key)
        if raw is not None or (key in mapping and key not in _NULL_IS_ABSENT):
            v[key] = (_section if key in _SECTION_FIELDS else _rule)(errs, key, raw)
        elif key == "name":
            v[key] = _rule(errs, key, default_name)
        elif key == "rho" and v["budget"] is not None and isinstance(mapping.get("budget"), str):
            v[key] = _PRESET_RHO.get(_preset("budget", mapping["budget"])[0])
        elif key in _DEFAULTS:
            v[key] = _DEFAULTS[key]
        else:  # rates and duration_ns
            what = " (preset name or mapping)" if key in _PRESETS else ""
            errs.append(f"{key}: required{what}")
        if key == "window_ps" and v["bin_width_ps"] and v["window_ps"]:
            errs.extend(check_window(v["window_ps"], v["bin_width_ps"],
                                     1000 * (v.get("duration_ns") or math.inf)))
    if errs:
        raise ConfigError(errs)
    return Scenario(**v)


class _RepeatedKey(yaml.constructor.ConstructorError):
    """A key written twice in one mapping; its text is the one-line problem."""

    def __str__(self) -> str:
        return self.problem


class _UniqueKeys:
    """A safe loader's mixin that refuses a key written twice in one mapping, at any depth,
    a mapping merged in by "<<" included."""

    def __init__(self, stream):
        super().__init__(stream)
        self._checked = set()

    def flatten_mapping(self, node):
        # every mapping passes here before the mappings it merges are spliced into it, and
        # so does each merged one; once spliced, a key it overrides is there twice, so each
        # mapping is checked on its first pass only
        if node not in self._checked:
            self._checked.add(node)
            seen = set()
            # merge keys ("<<") and unhashable keys are the base loader's to judge
            for key_node, _ in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue
                key = self.construct_object(key_node)
                if isinstance(key, Hashable):
                    if key in seen:
                        raise _RepeatedKey(problem=f"repeated key {key!r}",
                                           problem_mark=key_node.start_mark)
                    seen.add(key)
        super().flatten_mapping(node)


# libyaml's parser (about 7 times as fast on a scenario) where PyYAML was built with it; both
# bases share the Python resolver and constructor, so every value resolves to the same type
_SAFE_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class _UniqueKeyLoader(_UniqueKeys, _SAFE_LOADER):
    pass


def load_scenario(path) -> Scenario:
    """Parse a YAML scenario file; raises ConfigError with field diagnostics."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError([f"{p}: {exc}"]) from exc
    try:
        raw = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError([f"{p.name}{where}: invalid YAML: {exc}"]) from exc
    return scenario_from_mapping(raw if raw is not None else {}, default_name=p.stem)


def validate_config(source) -> tuple[Scenario | None, list[str]]:
    """Validate a path, mapping or builtin scenario name without raising.

    Returns (scenario, []) when valid or (None, diagnostics) otherwise.
    """
    try:
        if isinstance(source, dict):
            return scenario_from_mapping(source), []
        s = str(source)
        try:
            return builtin_scenario(s), []
        except UnknownScenario:
            if not Path(s).exists():
                return None, [f"{s}: not a builtin scenario and no such file; "
                              f"builtins: {', '.join(builtin_scenario_names())}"]
        return load_scenario(s), []
    except ConfigError as exc:
        return None, exc.diagnostics


def builtin_scenario_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS["scenario"]))


def builtin_scenario(name: str) -> Scenario:
    """Ready-made demonstration scenarios mirroring the two sample types."""
    canonical, mapping = _preset("scenario", name)
    return scenario_from_mapping(mapping, default_name=canonical)
