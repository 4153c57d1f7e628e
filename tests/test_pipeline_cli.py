"""Configuration, file formats, orchestration and the command line."""

from __future__ import annotations

import csv
import datetime
import hashlib
import io
import json
import math
import re
import shutil
import subprocess
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spphbt import correlator, montecarlo, pipeline, scenarios, tagio
from spphbt.cli import OUT_ENV_VAR, main
from spphbt.correlator import ChannelTags, CorrelationHistogram, TimeTagStream, cross_correlate
from spphbt.errors import ConfigError, UnknownScenario
from spphbt.fitter import PARAM_NAMES, report_photophysics
from spphbt.kinetics import steady_emission_rate
from spphbt.optics import coupling_ratio, expected_channel_efficiencies
from spphbt.pipeline import (
    acquire,
    expected_signal_rate,
    fit_histogram,
    fit_to_mapping,
    run_pipeline,
)
from spphbt.scenarios import (
    FitSettings,
    Scenario,
    budget_preset,
    builtin_scenario,
    builtin_scenario_names,
    geometry_preset,
    load_scenario,
    rate_preset,
    scenario_from_mapping,
    validate_config,
)
from spphbt.tagio import (
    TTAG_MAGIC,
    read_histogram_csv,
    read_time_tags,
    sha256_file,
    write_histogram_csv,
    write_json,
    write_time_tags,
)

MINIMAL = {"rates": "silver", "duration_ns": 1.0e6}
# the parsers a scenario may be read with: pure Python always, libyaml where PyYAML has it
LOADER_BASES = [yaml.SafeLoader, *([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])]
ABSENT = object()  # a key left out of the mapping

SMALL_RUN = {
    "name": "small",
    "rates": "silver",
    "n_emitters": 2,
    "duration_ns": 1.0e6,
    "seed": 3,
    "fiber_config": "DirectPlane",
    "budget": "ideal",
    "fit": {"k12": 1.0 / 27.0},
}


# Every preset with the values it stood for when each was written as code; the last
# case of each kind spells its name another way, under the one preset-name rule.
SILVER_LIFETIMES = {"tau12": 27.0, "tau21": 9.7, "tau23": 27.4, "tau31": 102.0}
IDEAL_SPLIT = {"fiber_a_angle": 0.0, "fiber_b_angle": math.pi,
               "fiber_effective_diameter": math.pi, "ring_radius_bfp": 1.0}
SILVER_BUDGET = {"p_couple_vertical": 0.48, "p_couple_horizontal": 0.48 / coupling_ratio(1.04),
                 "p_survive": 0.03, "p_leak": 0.25, "p_collect": 0.07, "p_bs": 0.5, "p_qe": 0.65}
PRESETS_WRITTEN_OUT = [
    ("rates", "glass", {"rates": {"tau12": 51.0, "tau21": 60.0, "tau23": 23.0, "tau31": 300.0}}),
    ("rates", "silver", {"rates": SILVER_LIFETIMES}),
    ("rates", "SILVER", {"rates": SILVER_LIFETIMES}),
    ("geometry", "fourier_default", {"geometry": {
        "fiber_a_angle": 0.0, "fiber_b_angle": math.pi / 2.0,
        "fiber_effective_diameter": 0.44, "ring_radius_bfp": 1.0}}),
    ("geometry", "ideal_split", {"geometry": IDEAL_SPLIT}),
    ("geometry", "Ideal-Split", {"geometry": IDEAL_SPLIT}),
    ("budget", "ideal", {"budget": {
        "p_couple_vertical": 1.0, "p_couple_horizontal": 1.0, "p_survive": 1.0,
        "p_leak": 1.0, "p_collect": 1.0, "p_bs": 0.5, "p_qe": 1.0}}),
    ("budget", "glass", {"budget": {"p_collect": 0.047, "p_bs": 0.5, "p_qe": 0.65}}),
    ("budget", "silver_filtered", {"budget": SILVER_BUDGET}),
    ("budget", "silver_unfiltered", {"budget": SILVER_BUDGET, "rho": 0.8}),
    ("budget", "Silver-Filtered", {"budget": SILVER_BUDGET}),
]
SILVER_DEMO = {"rates": "silver", "n_emitters": 10, "duration_ns": 3.0e7, "seed": 7,
               "geometry": "fourier_default", "budget": "ideal", "fit": {"k12": 1.0 / 27.0}}
BUILTINS_WRITTEN_OUT = [
    ("glass_direct", {"name": "glass_direct", "rates": "glass", "n_emitters": 10,
                      "duration_ns": 1.0e8, "seed": 7, "fiber_config": "DirectPlane",
                      "budget": "ideal", "fit": {"k12": 1.0 / 51.0}}),
    ("silver_aa", dict(SILVER_DEMO, name="silver_aa", fiber_config="AA")),
    ("silver_ab", dict(SILVER_DEMO, name="silver_ab", fiber_config="AB")),
    ("silver_unfiltered_ab", dict(SILVER_DEMO, name="silver_unfiltered_ab", fiber_config="AB",
                                  rho=0.8)),
    ("Silver-AB", dict(SILVER_DEMO, name="silver_ab", fiber_config="AB")),
]


def diagnostics_of(mapping) -> list[str]:
    with pytest.raises(ConfigError) as err:
        scenario_from_mapping(mapping)
    return err.value.diagnostics


class TestScenarioResolution:
    def test_minimal_mapping_gets_defaults(self):
        s = scenario_from_mapping(MINIMAL)
        assert s.n_emitters == 10
        assert s.seed == 0
        assert s.fiber_config == "AB"
        assert s.correlation_kind == "cross"
        assert s.bin_width_ps == 1000 and s.window_ps == 150_000
        assert s.fit.max_iterations == 200
        assert s.fit.inversion == "exact" and s.fit.k12 is None
        assert s.rates.lifetimes == pytest.approx((27.0, 9.7, 27.4, 102.0))

    def test_lifetime_mapping_equals_preset(self):
        s = scenario_from_mapping({
            "rates": {"tau12": 27.0, "tau21": 9.7, "tau23": 27.4, "tau31": 102.0},
            "duration_ns": 1.0e6,
        })
        assert s.rates == scenario_from_mapping(MINIMAL).rates

    @pytest.mark.parametrize("kind,name,written_out", PRESETS_WRITTEN_OUT)
    def test_preset_is_its_mapping(self, kind, name, written_out):
        by_name = scenario_from_mapping(dict(MINIMAL, **{kind: name}))
        assert by_name == scenario_from_mapping(dict(MINIMAL, **written_out))
        if kind == "budget":
            assert budget_preset(name) == (by_name.budget, by_name.rho)
        else:
            preset = rate_preset if kind == "rates" else geometry_preset
            assert preset(name) == getattr(by_name, kind)

    def test_rate_constant_mapping(self):
        s = scenario_from_mapping({
            "rates": {"k12": 0.1, "k21": 0.2, "k23": 0.0, "k31": 0.05},
            "duration_ns": 1.0e6,
        })
        assert s.rates.k21 == 0.2

    def test_all_problems_reported_at_once(self):
        diags = diagnostics_of({
            "rates": "gold",
            "duration_ns": -5.0,
            "fiber_config": "XY",
            "n_emitters": 0,
            "surprise": 1,
        })
        text = "\n".join(diags)
        assert len(diags) >= 5
        assert "rates:" in text
        assert "duration_ns:" in text
        assert "fiber_config:" in text
        assert "n_emitters:" in text
        assert "unknown fields ['surprise']" in text

    def test_rho_range_checked(self):
        diags = diagnostics_of(dict(MINIMAL, rho=1.2))
        assert any("rho: out of (0, 1]" in d for d in diags)

    def test_window_must_divide_into_bins(self):
        diags = diagnostics_of(dict(MINIMAL, window_ps=1500, bin_width_ps=1000))
        assert any("multiple of bin_width_ps" in d for d in diags)

    def test_window_must_span_enough_bins(self):
        diags = diagnostics_of(dict(MINIMAL, window_ps=2000, bin_width_ps=1000))
        assert any("at least 4 bins" in d for d in diags)

    def test_fit_section_checked(self):
        diags = diagnostics_of(dict(MINIMAL, fit={"k12": -1.0, "style": "x",
                                                  "inversion": "fancy"}))
        text = "\n".join(diags)
        assert "fit.k12" in text and "unknown fields ['style']" in text
        assert "fit.inversion" in text
        # only a missing key or null means the defaults; other falsy values are errors
        for fit in (0, False, [], ""):
            assert diagnostics_of(dict(MINIMAL, fit=fit)) == \
                [f"fit: expected a mapping, got {fit!r}"], fit
        assert scenario_from_mapping(dict(MINIMAL, fit=None)) == scenario_from_mapping(MINIMAL)

    def test_mixed_rate_keys_rejected(self):
        diags = diagnostics_of({"rates": {"tau12": 27.0, "k21": 0.1},
                                "duration_ns": 1.0e6})
        assert any("exactly keys" in d for d in diags)

    def test_geometry_unknown_fields(self, tmp_path, capsys):
        for geometry in ({"n_spp": 1.04, "tilt": 2}, {"fourier_filter_on": False},
                         {"n_glass": 1.5}):
            diags = diagnostics_of(dict(MINIMAL, geometry=geometry))
            assert any("geometry: unknown fields" in d for d in diags), geometry
        # a target rho is the one way to set background
        diags = diagnostics_of(dict(MINIMAL, background_rate=1.0e-5))
        assert diags == ["top level: unknown fields ['background_rate']"]
        for key, line in (("fourier_filter_on", "geometry: {fourier_filter_on: false}"),
                          ("background_rate", "background_rate: 1.0e-5")):
            path = tmp_path / f"{key}.yaml"
            path.write_text(f"rates: silver\nduration_ns: 1.0e6\n{line}\n")
            assert main(["validate", "--scenario", str(path)]) == 2
            assert key in capsys.readouterr().err

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError):
            scenario_from_mapping(["not", "a", "mapping"])

    def test_to_mapping_roundtrip(self):
        s = scenario_from_mapping(dict(SMALL_RUN, rho=0.9))
        assert scenario_from_mapping(s.to_mapping()) == s

    def test_with_seed(self):
        s = scenario_from_mapping(MINIMAL)
        assert s.with_seed(42).seed == 42
        assert s.seed == 0  # original untouched


class TestBuiltinScenarios:
    def test_names_are_sorted_and_resolvable(self):
        names = builtin_scenario_names()
        assert list(names) == sorted(names)
        for name in names:
            assert builtin_scenario(name).name == name

    def test_configuration_kinds(self):
        assert builtin_scenario("silver_ab").correlation_kind == "cross"
        assert builtin_scenario("silver_aa").correlation_kind == "auto"
        assert builtin_scenario("glass_direct").routing_mode == "direct"

    def test_same_point_geometry_collapses_fibers(self):
        aa = builtin_scenario("silver_aa")
        g = aa.routing_geometry
        assert g.fiber_a_angle == g.fiber_b_angle

    def test_unknown_name(self):
        with pytest.raises(UnknownScenario):
            builtin_scenario("platinum_ab")

    @pytest.mark.parametrize("name,written_out", BUILTINS_WRITTEN_OUT)
    def test_builtin_is_its_mapping(self, capsys, name, written_out):
        expected = scenario_from_mapping(written_out)
        assert builtin_scenario(name) == expected
        assert validate_config(name) == (expected, [])
        assert main(["validate", "--scenario", name]) == 0
        assert capsys.readouterr().out.startswith(f"ok: {expected.name}\n")


@pytest.fixture(params=LOADER_BASES, ids=lambda base: base.__name__)
def loader_base(request, monkeypatch):
    """The scenario loader's repeated-key check bound to each YAML parser in turn."""
    loader = type("Loader", (scenarios._UniqueKeys, request.param), {})
    monkeypatch.setattr(scenarios, "_UniqueKeyLoader", loader)
    return request.param


class TestValidateConfig:
    def test_builtin_name(self):
        scenario, diags = validate_config("silver_ab")
        assert scenario is not None and diags == []

    def test_mapping(self):
        scenario, diags = validate_config(dict(MINIMAL))
        assert scenario is not None and diags == []

    def test_unknown_source_lists_builtins(self):
        scenario, diags = validate_config("no_such_scenario")
        assert scenario is None
        assert any("silver_ab" in d for d in diags)

    def test_yaml_file(self, tmp_path):
        path = tmp_path / "demo.yaml"
        path.write_text("rates: silver\nduration_ns: 1.0e6\n")
        scenario, diags = validate_config(str(path))
        assert diags == []
        assert scenario.name == "demo"  # falls back to the file stem

    def test_scenarios_are_parsed_by_libyaml_where_present(self):
        assert issubclass(scenarios._UniqueKeyLoader,
                          yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)

    def test_invalid_yaml_reports_line(self, tmp_path, loader_base):
        path = tmp_path / "broken.yaml"
        path.write_text("rates: silver\nduration_ns: [1.0e6\n")
        scenario, diags = validate_config(str(path))
        assert scenario is None
        assert any("line" in d for d in diags)

    def test_yaml_with_bad_values(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("rates: silver\nduration_ns: -2\nrho: 3\n")
        scenario, diags = validate_config(str(path))
        assert scenario is None and len(diags) == 2

    @pytest.mark.parametrize("key,value,expected", [
        ("duration_ns", True, "duration_ns: expected a number, got True"),
        ("n_emitters", True, "n_emitters: expected an integer, got True"),
        ("seed", False, "seed: expected an integer, got False"),
        ("bin_width_ps", True, "bin_width_ps: expected an integer, got True"),
        ("fit", {"k12": True}, "fit.k12: expected a number, got True"),
        ("budget", {"p_bs": True}, "budget.p_bs: expected a number, got True"),
        ("rates", {"k12": True, "k21": 0.1, "k23": 0.03, "k31": 0.01},
         "rates.k12: expected a number, got True"),
    ])
    def test_yaml_booleans_are_not_numbers(self, tmp_path, capsys, key, value, expected):
        path = tmp_path / "bools.yaml"
        path.write_text(yaml.safe_dump(dict(MINIMAL, **{key: value})))
        scenario, diags = validate_config(str(path))
        assert scenario is None and diags == [expected]
        assert main(["validate", "--scenario", str(path)]) == 2
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,expected", [
        ("seed", math.inf, "seed: must be finite, got inf"),
        ("bin_width_ps", -math.inf, "bin_width_ps: must be finite, got -inf"),
        ("seed", -1, "seed: must be >= 0, got -1"),
        ("geometry", {"fiber_a_angle": "x"}, "geometry.fiber_a_angle: expected a number, got 'x'"),
        ("rates", {"tau12": 27.0, "tau21": 9.7, "tau23": 27.4, "tau31": math.inf},
         "rates: k31 = 0 with k23 > 0: the shelved state is absorbing"),
        # emitters that are never pumped never emit
        ("rates", {"tau12": math.inf, "tau21": 9.7, "tau23": 27.4, "tau31": 102.0},
         "rates.tau12: must be finite, got inf"),
        ("rates", {"k12": 0, "k21": 0.1, "k23": 0.03, "k31": 0.01},
         "rates.k12: must be > 0, got 0"),
        ("rates", ABSENT, "rates: required (preset name or mapping)"),
        ("duration_ns", ABSENT, "duration_ns: required"),
        # tags are int64 ps: no acquisition reaches 2^63 ps
        ("duration_ns", 1.0e16, "duration_ns: out of (0, 9.22337e+15], got 1e+16"),
        # every emitter's SeedSequence child is spawned before the first draw
        ("n_emitters", 10001, "n_emitters: out of [1, 10000], got 10001"),
        ("n_emitters", 1.0e9, "n_emitters: out of [1, 10000], got 1000000000.0"),
    ])
    def test_yaml_values_follow_the_number_rule(self, tmp_path, capsys, key, value, expected):
        # validate reports through the same printer as every other command
        path = tmp_path / "numbers.yaml"
        mapping = dict(MINIMAL, **{key: value})
        path.write_text(yaml.safe_dump({k: v for k, v in mapping.items() if v is not ABSENT}))
        assert validate_config(str(path)) == (None, [expected])
        assert main(["validate", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == f"configuration error:\n  - {expected}\n"
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"configuration error:\n  - {expected}\n"
        assert not (tmp_path / "out").exists()

    def test_n_emitters_may_reach_its_bound(self, tmp_path, capsys):
        path = tmp_path / "many.yaml"
        path.write_text(yaml.safe_dump(dict(MINIMAL, n_emitters=10_000)))
        assert validate_config(str(path))[0].n_emitters == 10_000
        assert main(["validate", "--scenario", str(path)]) == 0
        assert "n_emitters=10000 " in capsys.readouterr().out

    @pytest.mark.parametrize("text,diagnostic", [
        ("rates: silver\n{key}: 2\nfoo: 3\n", "top level: unknown fields {listed}"),
        ("rates: silver\ngeometry: {{{key}: 2, foo: 3}}\n", "geometry: unknown fields {listed}"),
        ("rates: {{{key}: 2, foo: 3}}\n",
         "rates: mapping must have exactly keys ['tau12', 'tau21', 'tau23', 'tau31'] "
         "or ['k12', 'k21', 'k23', 'k31'], got {listed}"),
    ], ids=["top", "geometry", "rates"])
    @pytest.mark.parametrize("key,parsed", [
        ("1", 1), ("1.5", 1.5), ("true", True), ("null", None),
        ("2024-01-01", datetime.date(2024, 1, 1)),
    ], ids=["int", "float", "bool", "null", "date"])
    def test_keys_that_are_not_text_are_diagnosed(self, tmp_path, capsys, text, diagnostic,
                                                  key, parsed):
        # a key of another YAML type beside a text key is one diagnostic, not a traceback
        expected = diagnostic.format(listed=f"[{parsed!r}, 'foo']")
        path = tmp_path / "keys.yaml"
        path.write_text(text.format(key=key) + "duration_ns: 1.0e6\n")
        assert validate_config(str(path)) == (None, [expected])
        assert main(["validate", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == f"configuration error:\n  - {expected}\n"

    @pytest.mark.parametrize("text,expected", [
        ("rates: silver\nduration_ns: 1.0e6\nseed: 1\nseed: 2\n", "at line 4: invalid YAML: "
         "repeated key 'seed'"),
        ("rates:\n  tau12: 27.0\n  tau21: 9.7\n  tau23: 27.4\n  tau21: 9.8\n  tau31: 102.0\n"
         "duration_ns: 1.0e6\n", "at line 5: invalid YAML: repeated key 'tau21'"),
        ("rates: silver\nduration_ns: 1.0e6\nfit: {k12: 0.03, k12: 0.04}\n",
         "at line 3: invalid YAML: repeated key 'k12'"),
        ("rates:\n  <<: {tau12: 27.0, tau21: 9.7, tau23: 27.4, tau31: 102.0}\n  tau21: 9.8\n"
         "  tau21: 9.9\nduration_ns: 1.0e6\n", "at line 4: invalid YAML: repeated key 'tau21'"),
        ("rates:\n  <<: {tau12: 27.0, tau21: 9.7, tau23: 27.4, tau21: 9.8, tau31: 102.0}\n"
         "duration_ns: 1.0e6\n", "at line 2: invalid YAML: repeated key 'tau21'"),
    ], ids=["top", "rates", "flow", "beside_merge", "inside_merged"])
    def test_repeated_keys_are_refused(self, tmp_path, capsys, loader_base, text, expected):
        # YAML would keep the last value; which one was meant is unknowable
        path = tmp_path / "twice.yaml"
        path.write_text(text)
        assert validate_config(str(path)) == (None, [f"twice.yaml {expected}"])
        assert main(["validate", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == f"configuration error:\n  - twice.yaml {expected}\n"

    def test_a_merged_key_may_be_overridden(self, tmp_path, loader_base):
        path = tmp_path / "merged.yaml"
        path.write_text("rates:\n  <<: {tau12: 27.0, tau21: 9.7, tau23: 27.4, tau31: 102.0}\n"
                        "  tau21: 9.8\nduration_ns: 1.0e6\n")
        scenario, diags = validate_config(str(path))
        assert diags == [] and scenario.rates.lifetimes[1] == pytest.approx(9.8)

    def test_a_mapping_merged_again_keeps_its_overrides(self, loader_base):
        # once merged, a mapping holds the keys it overrides twice; that is no repeated key
        text = "base: &b {x: 1, y: 2}\next: &e {<<: *b, x: 3}\nmore: {<<: [*e, *b], y: 4}\n"
        assert yaml.load(text, Loader=scenarios._UniqueKeyLoader) == \
            {"base": {"x": 1, "y": 2}, "ext": {"x": 3, "y": 2}, "more": {"x": 3, "y": 4}}

    @pytest.mark.parametrize("file_name,name", [
        ("named.yaml", "../escaped"), ("named.yaml", ""), ("named.yaml", ".hidden"),
        ("named.yaml", "a/b"), (".hidden.yaml", None), ("named.yaml", True),
        ("named.yaml", ["a"]), ("named.yaml", {"x": 1}), ("named.yaml", 2024),
    ], ids=["parent_dir", "empty", "hidden", "subdir", "hidden_file_stem", "boolean", "list",
            "mapping", "number"])
    def test_name_stays_inside_the_output_directory(self, tmp_path, capsys, file_name, name):
        # the name, from its key or the file stem, is the stem of every artifact path
        path = tmp_path / file_name
        path.write_text(yaml.safe_dump(dict(MINIMAL, **({} if name is None else {"name": name}))))
        expected = ("name: expected a non-empty file name without a path separator or a "
                    f"leading dot, got {Path(file_name).stem if name is None else name!r}")
        assert validate_config(str(path)) == (None, [expected])
        for command in ("validate", "simulate", "run"):
            out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
            assert main([command, "--scenario", str(path), *out]) == 2
            assert capsys.readouterr().err == f"configuration error:\n  - {expected}\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("line", ["name: null", "name:"])
    def test_null_name_falls_back_to_the_file_stem(self, tmp_path, capsys, line):
        path = tmp_path / "stem.yaml"
        path.write_text(f"rates: silver\nn_emitters: 1\nduration_ns: 1.0e6\n{line}\n")
        assert validate_config(str(path))[0].name == "stem"
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
            ["stem.ttag", "stem.ttag.json"]

    def test_example_config_documents_the_whole_schema(self):
        # the README points to this file for the full scenario schema
        path = Path(__file__).resolve().parent.parent / "configs" / "example.yaml"
        scenario, diags = validate_config(str(path))
        assert scenario is not None and diags == []
        names = [f.name for cls in (Scenario, FitSettings) for f in fields(cls)]
        names += [name for table in scenarios._PRESETS.values() for name in table]
        text = path.read_text()
        assert [name for name in names if not re.search(rf"\b{name}\b", text)] == []

    def test_load_scenario_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scenario(tmp_path / "absent.yaml")


def one_shot_ttag_bytes(tags_a: np.ndarray, tags_b: np.ndarray) -> bytes:
    """A TTAG file written in one piece: concatenate, stable argsort, take."""
    times = np.concatenate([tags_a, tags_b])
    order = np.argsort(times, kind="stable")
    records = np.zeros(times.size, dtype=TestTagIO.RECORD)
    records["t"] = times[order]
    records["ch"] = order >= tags_a.size
    return TTAG_MAGIC + b"\x01\x00" + bytes(10) + records.tobytes()


def channel_merged_ttag_bytes(tags_a: np.ndarray, tags_b: np.ndarray, block: int) -> bytes:
    """A TTAG file merged from the two channels block by block, an oracle for the writer.

    Both channels are cut at the same times, each tie on one side of every
    cut, so that no block holds more than about `block` tags of either
    channel; each block's records are the stable argsort of its A tags then
    its B tags.
    """
    cuts = np.sort(np.concatenate([tags_a[block::block], tags_b[block::block]]))
    ends_a = np.append(np.searchsorted(tags_a, cuts), tags_a.size).tolist()
    ends_b = np.append(np.searchsorted(tags_b, cuts), tags_b.size).tolist()
    parts = [TTAG_MAGIC + b"\x01\x00" + bytes(10)]
    for start_a, end_a, start_b, end_b in zip([0, *ends_a], ends_a, [0, *ends_b], ends_b):
        times = np.concatenate([tags_a[start_a:end_a], tags_b[start_b:end_b]])
        order = np.argsort(times, kind="stable")
        records = np.zeros(times.size, dtype=TestTagIO.RECORD)
        np.take(times.view(np.uint64), order, out=records["t"])
        records["ch"] = order >= end_a - start_a
        parts.append(records.tobytes())
    return b"".join(parts)


def swap_first_and_last_b_records(data: bytes) -> bytes:
    """A TTAG file whose first and last channel-B records trade places."""
    records = np.frombuffer(data, dtype=TestTagIO.RECORD, offset=16).copy()
    first, *_, last = np.flatnonzero(records["ch"] == 1)
    records[[first, last]] = records[[last, first]]
    return data[:16] + records.tobytes()


def b_before_a_at_equal_tags(data: bytes) -> bytes:
    """A TTAG file in time order whose first channel-A record after a channel-B record
    takes that record's timestamp, so B comes first at an equal timestamp."""
    records = np.frombuffer(data, dtype=TestTagIO.RECORD, offset=16).copy()
    first = np.flatnonzero((records["ch"][:-1] == 1) & (records["ch"][1:] == 0))[0]
    records["t"][first + 1] = records["t"][first]
    return data[:16] + records.tobytes()


def first_count_negative(data: bytes) -> bytes:
    """A histogram CSV whose first row counts -1 pairs."""
    header, first, rest = data.split(b"\r\n", 2)
    lag, _, values = first.split(b",", 2)
    return b"\r\n".join([header, b",".join([lag, b"-1", values]), rest])


def stored(sidecar: dict, **values) -> dict:
    """A sidecar whose stored run settings carry `values`."""
    return dict(sidecar, metadata=dict(sidecar["metadata"], **values))


def stored_fit(sidecar: dict, **values) -> dict:
    """A sidecar whose stored fit settings carry `values`."""
    return stored(sidecar, fit=dict(sidecar["metadata"]["fit"], **values))


# few distinct values, so ties within and across channels are common
sorted_tags = st.lists(st.integers(0, 12), max_size=40).map(sorted)


class TestTagIO:
    RECORD = np.dtype([("t", "<u8"), ("ch", "u1"), ("pad", "V7")])

    @pytest.mark.parametrize("block", [1, 2, 3, tagio._BLOCK])
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(a=sorted_tags, b=sorted_tags)
    @example(a=[2, 4, 6, 8], b=[4, 4, 6, 8])  # equal A/B times on the cuts
    @example(a=[], b=[1, 3, 3])
    @example(a=[0, 5, 5], b=[])
    @example(a=[], b=[7])
    @example(a=[4, 5, 5, 6], b=[0, 1, 6, 9, 12])  # B before A's first and after A's last
    def test_blocks_write_the_one_shot_bytes(self, tmp_path, block, a, b):
        sa = TimeTagStream(np.array(a, dtype=np.int64), "A", 12)
        sb = TimeTagStream(np.array(b, dtype=np.int64), "B", 12)
        with mock.patch.object(tagio, "_BLOCK", block):
            path = write_time_tags(tmp_path / "blocks.ttag", sa, sb)
        assert path.read_bytes() == one_shot_ttag_bytes(sa.tags, sb.tags)
        a2, b2, _ = read_time_tags(path)
        assert a2.tags.tolist() == a and b2.tags.tolist() == b

    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(a=sorted_tags, b=sorted_tags)
    @example(a=[3, 3, 3], b=[3, 3])  # one run of equal tags across every block edge
    @example(a=[1, 4, 4, 4, 9], b=[0, 4, 4, 9, 9])
    def test_pooled_writer_matches_the_channel_merge(self, tmp_path, block, a, b):
        # the pooled tags and channel mask, built without the writer: sorted by
        # (tag, channel), so A's come first at equal tags
        times = np.array(a + b, dtype=np.int64)
        on_b = np.arange(times.size) >= len(a)
        order = np.lexsort((on_b, times))
        tags = ChannelTags(TimeTagStream(times[order], "A+B", 12), on_b[order])
        digest = hashlib.sha256()
        with mock.patch.object(tagio, "_BLOCK", block):
            path = write_time_tags(tmp_path / "pooled.ttag", tags, digest=digest)
        data = path.read_bytes()
        assert data == channel_merged_ttag_bytes(np.array(a, dtype=np.int64),
                                                 np.array(b, dtype=np.int64), block)
        assert digest.hexdigest() == hashlib.sha256(data).hexdigest()
        sidecar = json.loads(tagio.sidecar_path(path).read_text())
        assert (sidecar["n_a"], sidecar["n_b"]) == (len(a), len(b))

    def test_written_value_reads_back_whole(self, tmp_path):
        a, b = self.make_streams(seed=8)
        tags = ChannelTags.pool(a, b)
        path = write_time_tags(tmp_path / "v.ttag", replace(tags, metadata={"k": 1}))
        back = read_time_tags(path)
        assert back.pooled.tags.tobytes() == tags.pooled.tags.tobytes()
        assert back.on_b.tobytes() == tags.on_b.tobytes()
        assert back.metadata == {"k": 1} and back.counts == (len(a), len(b))
        # the value's own metadata is the one written
        write_time_tags(path, replace(back, metadata={"k": 2}))
        assert read_time_tags(path).metadata == {"k": 2}

    def make_streams(self, seed=0, n=500, duration=1_000_000):
        rng = np.random.default_rng(seed)
        a = np.sort(rng.integers(0, duration, n))
        b = np.sort(rng.integers(0, duration, n // 2))
        return (TimeTagStream(a, "A", duration), TimeTagStream(b, "B", duration))

    def test_time_tag_roundtrip(self, tmp_path):
        a, b, = self.make_streams()
        meta = {"scenario": "demo", "note": 7}
        path = write_time_tags(tmp_path / "x.ttag", replace(ChannelTags.pool(a, b), metadata=meta))
        a2, b2, metadata = read_time_tags(path)
        assert np.array_equal(a.tags, a2.tags)
        assert np.array_equal(b.tags, b2.tags)
        assert a2.duration == a.duration
        assert metadata == meta
        sidecar = json.loads(tagio.sidecar_path(path).read_text())
        assert sidecar["n_a"] == len(a) and sidecar["n_b"] == len(b)

    def test_records_are_time_sorted(self, tmp_path):
        a, b = self.make_streams(seed=1)
        path = write_time_tags(tmp_path / "y.ttag", a, b)
        raw = np.frombuffer(path.read_bytes()[16:], dtype=self.RECORD)
        assert np.all(np.diff(raw["t"].astype(np.int64)) >= 0)

    def test_equal_times_are_written_a_first(self, tmp_path):
        a = TimeTagStream(np.array([5, 5, 9]), "A", 10)
        b = TimeTagStream(np.array([0, 5, 9]), "B", 10)
        path = write_time_tags(tmp_path / "tie.ttag", a, b)
        raw = np.frombuffer(path.read_bytes()[16:], dtype=self.RECORD)
        assert raw["t"].tolist() == [0, 5, 5, 5, 9, 9]
        assert raw["ch"].tolist() == [1, 0, 0, 1, 0, 1]
        # many ties: the records are ordered by time, then channel
        rng = np.random.default_rng(7)
        a = TimeTagStream(np.sort(rng.integers(0, 40, 600)), "A", 40)
        b = TimeTagStream(np.sort(rng.integers(0, 40, 500)), "B", 40)
        raw = np.frombuffer(write_time_tags(tmp_path / "ties.ttag", a, b).read_bytes()[16:],
                            dtype=self.RECORD)
        key = raw["t"].astype(np.int64) * 2 + raw["ch"]
        assert np.all(np.diff(key) >= 0)

    def test_header_and_pad_bytes_are_zero(self, tmp_path):
        a, b = self.make_streams(seed=4, n=50)
        data = write_time_tags(tmp_path / "p.ttag", a, b).read_bytes()
        assert data[:6] == b"TTAG\x01\x00" and data[6:16] == bytes(10)
        records = np.frombuffer(data, dtype=np.uint8, offset=16).reshape(-1, 16)
        assert records.shape[0] == 75 and not records[:, 9:].any()

    def test_bad_channel_byte_rejected(self, tmp_path):
        a, b = self.make_streams(seed=5, n=10)
        path = write_time_tags(tmp_path / "c.ttag", a, b)
        data = bytearray(path.read_bytes())
        data[16 + 3 * 16 + 8] = 2
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="c.ttag: invalid channel byte 2"):
            read_time_tags(path)

    def test_rewrite_gives_the_same_bytes(self, tmp_path):
        a, b = self.make_streams(seed=6)
        first = write_time_tags(tmp_path / "1.ttag",
                                replace(ChannelTags.pool(a, b), metadata={"note": 1}))
        a2, b2, metadata = read_time_tags(first)
        second = write_time_tags(tmp_path / "2.ttag",
                                 replace(ChannelTags.pool(a2, b2), metadata=metadata))
        assert first.read_bytes() == second.read_bytes()
        assert Path(f"{first}.json").read_bytes() == Path(f"{second}.json").read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "z.ttag"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(ValueError, match="magic"):
            read_time_tags(path)

    def test_truncated_record_block_rejected(self, tmp_path):
        a, b = self.make_streams(seed=2, n=10)
        path = write_time_tags(tmp_path / "t.ttag", a, b)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError, match="truncated"):
            read_time_tags(path)

    def test_histogram_roundtrip_is_exact(self, tmp_path):
        a, b = self.make_streams(seed=3, n=3000)
        hist = cross_correlate(a, b, lag_max=50_000, bin_width=1000)
        path = write_histogram_csv(tmp_path / "h.csv", hist, metadata={"kind": "cross"})
        back, meta = read_histogram_csv(path)
        assert np.array_equal(hist.counts, back.counts)
        assert np.array_equal(hist.g2, back.g2)          # repr() round-trips floats
        assert np.array_equal(hist.sigma, back.sigma)
        assert back.bin_width == hist.bin_width and back.duration == hist.duration
        assert meta == {"kind": "cross"}

    def test_histogram_csv_bytes_match_csv_writer(self, tmp_path):
        # g2 and sigma come from the counts and rates: ordinary rates give
        # 17-digit reprs, a normalisation near the float maximum subnormals,
        # and one near the minimum values above 1e300
        cases = {"ordinary": (3e4, 7e4, 10**9), "subnormal": (1e160, 1e160, 6 * 10**9),
                 "huge": (1e-140, 3e-141, 10**9)}
        for label, (rate_a, rate_b, duration) in cases.items():
            hist = CorrelationHistogram(
                counts=np.array([0, 1, 2**40, 7, 0, 3]), bin_width=250, lag_max=750,
                duration=duration, rate_a=rate_a, rate_b=rate_b)
            values = np.concatenate([hist.g2, hist.sigma])
            if label == "subnormal":
                assert np.any((values > 0.0) & (values < np.finfo(float).tiny))
            if label == "huge":
                assert values.max() > 1e300
            path = write_histogram_csv(tmp_path / f"{label}.csv", hist)
            expected = io.StringIO(newline="")
            writer = csv.writer(expected)
            writer.writerow(["lag_ps", "counts", "g2", "sigma"])
            for edge, n, g, sd in zip(hist.lag_edges, hist.counts, hist.g2, hist.sigma):
                writer.writerow([int(edge), int(n), repr(float(g)), repr(float(sd))])
            assert path.read_bytes() == expected.getvalue().encode(), label
            back, _ = read_histogram_csv(path)
            for name in ("counts", "g2", "sigma"):
                assert getattr(back, name).tobytes() == getattr(hist, name).tobytes(), label
            for name in ("bin_width", "lag_min", "lag_max", "duration", "rate_a", "rate_b"):
                assert getattr(back, name) == getattr(hist, name), label

    @pytest.mark.parametrize("rates", [(3e4, 7e4, 10**9), (1e160, 1e160, 6 * 10**9)],
                             ids=["ordinary", "subnormal"])
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(counts=st.one_of(
        st.lists(st.sampled_from([0, 0, 1, 2, 7, 2**40]), min_size=1, max_size=40),
        st.lists(st.integers(0, 2**40), min_size=1, max_size=40, unique=True),
        st.lists(st.integers(0, 3), min_size=1, max_size=40)))
    def test_histogram_csv_formats_each_row_as_its_own(self, tmp_path, rates, counts):
        # the writer formats each distinct count's g2 and sigma once; the bytes are those
        # of formatting every row
        rate_a, rate_b, duration = rates
        counts = counts + counts[:1] if len(counts) % 2 else counts
        hist = CorrelationHistogram(counts=np.array(counts), bin_width=250,
                                    lag_max=125 * len(counts), duration=duration,
                                    rate_a=rate_a, rate_b=rate_b)
        path = write_histogram_csv(tmp_path / "h.csv", hist)
        rows = map("{},{},{!r},{!r}".format, hist.lag_edges.tolist(), hist.counts.tolist(),
                   hist.g2.tolist(), hist.sigma.tolist())
        assert path.read_bytes() == "\r\n".join(["lag_ps,counts,g2,sigma", *rows, ""]).encode()

    def test_histogram_reader_ignores_stored_g2_columns(self, tmp_path):
        a, b = self.make_streams(seed=6, n=300)
        hist = cross_correlate(a, b, lag_max=10_000, bin_width=1000)
        path = write_histogram_csv(tmp_path / "h4.csv", hist)
        header, *rows = path.read_text().splitlines()
        rows = [",".join(row.split(",")[:2] + ["nan", "-1"]) for row in rows]
        path.write_text("\n".join([header, *rows]) + "\n")
        back, _ = read_histogram_csv(path)
        assert back.g2.tobytes() == hist.g2.tobytes()
        assert back.sigma.tobytes() == hist.sigma.tobytes()

    def test_histogram_needs_sidecar(self, tmp_path):
        a, b = self.make_streams(seed=4, n=200)
        hist = cross_correlate(a, b, lag_max=10_000, bin_width=1000)
        path = write_histogram_csv(tmp_path / "h2.csv", hist)
        Path(str(path) + ".json").unlink()
        with pytest.raises(FileNotFoundError):
            read_histogram_csv(path)

    def test_tags_need_sidecar(self, tmp_path):
        a, b = self.make_streams(seed=4, n=200)
        path = write_time_tags(tmp_path / "t.ttag", a, b)
        tagio.sidecar_path(path).unlink()
        with pytest.raises(FileNotFoundError, match="t.ttag.json: the sidecar of t.ttag"):
            read_time_tags(path)

    @pytest.mark.parametrize("key,value", [("n_a", True), ("n_b", False), ("n_a", "spam")])
    def test_stored_tag_counts_follow_their_rule(self, tmp_path, key, value):
        # one tag on A and none on B: a count compared with == takes true for 1
        # and false for 0
        a = TimeTagStream(np.array([5]), "A", 100)
        b = TimeTagStream(np.array([], dtype=np.int64), "B", 100)
        path = write_time_tags(tmp_path / "t.ttag", a, b)
        sidecar = tagio.sidecar_path(path)
        write_json(sidecar, dict(json.loads(sidecar.read_text()), **{key: value}))
        with pytest.raises(ValueError, match=f"t.ttag.json: {key}: expected an integer"):
            read_time_tags(path)

    def test_histogram_lag_column_checked(self, tmp_path):
        a, b = self.make_streams(seed=5, n=200)
        hist = cross_correlate(a, b, lag_max=10_000, bin_width=1000)
        path = write_histogram_csv(tmp_path / "h3.csv", hist)
        lines = path.read_text().splitlines()
        lines[1] = "999999" + lines[1][lines[1].index(","):]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="lag column"):
            read_histogram_csv(path)

    @pytest.mark.parametrize("keep", [slice(1, None), slice(None, -1), slice(1, -1),
                                      slice(None, -2)],
                             ids=["odd_late_start", "odd_short", "even_late_start", "even_short"])
    def test_histogram_lag_column_must_span_the_window(self, cli_env, capsys, keep):
        # the sidecar's window always holds an even number of bins; a lag column
        # that is odd, starts late or stops short of it is a malformed CSV
        out, scenario = cli_env
        assert main(["run", "--scenario", str(scenario)]) == 0
        path = out / "tiny_g2.csv"
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, *rows[keep]]) + "\n")
        capsys.readouterr()
        assert main(["fit", "--hist", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: lag column does not match the sidecar window\n"

    def test_write_json_is_deterministic(self, tmp_path):
        payload = {"b": 1, "a": [1, 2], "c": {"z": None}}
        p1 = write_json(tmp_path / "a.json", payload)
        p2 = write_json(tmp_path / "b.json", payload)
        assert p1.read_bytes() == p2.read_bytes()
        assert sha256_file(p1) == sha256_file(p2)


class TestBackgroundResolution:
    def test_target_rho_sets_background(self):
        s = scenario_from_mapping(dict(SMALL_RUN, rho=0.8))
        _, _, info = acquire(s)
        assert info["rho_effective"] == 0.8
        # channel A's background leaves its signal the fraction rho
        assert info["background_rate_per_ns"] == pytest.approx(expected_signal_rate(s) * 0.25)

    def test_clean_scenario_is_all_signal(self):
        _, _, info = acquire(scenario_from_mapping(dict(SMALL_RUN)))
        assert (info["background_rate_per_ns"], info["rho_effective"]) == (0.0, 1.0)

    def test_unfiltered_budget_sets_rho_for_any_scenario(self):
        for extra in ({"n_emitters": 2}, {"rates": "glass"}):
            s = scenario_from_mapping(dict(MINIMAL, budget="silver_unfiltered", **extra))
            assert acquire(s).metadata["rho_effective"] == 0.8, extra
        # the ten-emitter silver AB default keeps its background bit for bit
        s = scenario_from_mapping(dict(MINIMAL, budget="silver_unfiltered",
                                       geometry="fourier_default"))
        info = acquire(s).metadata
        assert (info["background_rate_per_ns"], info["rho_effective"]) == \
            (1.908017771385414e-06, 0.8)

    def test_rho_zero_unreachable(self, tmp_path, capsys):
        # rho = 0 would need infinite background: a configuration error
        assert diagnostics_of(dict(SMALL_RUN, rho=0.0)) == ["rho: must be > 0, got 0.0"]
        path = tmp_path / "dark.yaml"
        path.write_text(yaml.safe_dump(dict(SMALL_RUN, rho=0)))
        assert main(["validate", "--scenario", str(path)]) == 2
        assert "rho: must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("fiber_config", ["DirectPlane", "AB"])
    def test_every_detector_sees_rho(self, fiber_config):
        # the contrast 1 - rho^2/N needs the signal fraction rho on both
        # detectors, also when the beamsplitter sends 30 % to A
        s = scenario_from_mapping(dict(MINIMAL, fiber_config=fiber_config, rho=0.8,
                                       budget={"p_bs": 0.3}))
        a, b, _ = acquire(s)
        rate = s.n_emitters * steady_emission_rate(s.rates)
        effs = expected_channel_efficiencies(s.routing_geometry, s.budget, s.mix, s.routing_mode)
        for tags, eff in zip((a, b), effs):
            mean = rate * eff / s.rho * s.duration_ns
            assert abs(len(tags) - mean) < 5.0 * math.sqrt(mean), tags.channel_label

    def test_acquire_injects_requested_background(self):
        s = scenario_from_mapping(dict(SMALL_RUN, rho=0.5, seed=11))
        a, b, info = acquire(s)
        assert info["rho_effective"] == 0.5
        # at rho = 0.5 the detected stream is half background on average
        signal = expected_signal_rate(s)
        n_expected = 2.0 * signal * s.duration_ns  # both channels together
        assert (len(a) + len(b)) == pytest.approx(2.0 * n_expected, rel=0.1)


class TestAcquire:
    def test_paper_budget_samples_only_detected_photons(self):
        # criterion 7's scenario over one second: ~1.2e8 photons are emitted
        # and ~1.5e4 detected, so sampling every emission would need ~10 GB
        s = scenario_from_mapping({
            "rates": "silver", "n_emitters": 10, "duration_ns": 1e9, "seed": 5,
            "fiber_config": "AB", "geometry": "fourier_default",
            "budget": "silver_filtered",
        })
        a, b, info = acquire(s)
        mean = expected_signal_rate(s) * s.duration_ns
        for tags in (a, b):
            assert abs(len(tags) - mean) < 5.0 * math.sqrt(mean)
        assert info["n_events"] == len(a) + len(b)


class TestRunPipeline:
    def test_artifacts_and_manifest(self, tmp_path):
        s = scenario_from_mapping(dict(SMALL_RUN))
        result = run_pipeline(s, tmp_path / "out")
        for key in ("tags", "tags_sidecar", "histogram", "histogram_sidecar",
                    "fit", "report", "manifest"):
            assert result.paths[key].exists(), key
        assert result.fit.converged
        assert result.report is not None
        manifest = json.loads(result.paths["manifest"].read_text())
        assert set(manifest) == {"config_sha256", "seed", "package_version", "numpy_version",
                                 "artifacts"}
        assert manifest["numpy_version"] == np.__version__
        assert manifest["seed"] == 3
        rec = manifest["artifacts"]["tags"]
        assert rec["sha256"] == sha256_file(result.paths["tags"])
        assert rec["bytes"] == result.paths["tags"].stat().st_size

    def test_reruns_are_byte_identical(self, tmp_path):
        s = scenario_from_mapping(dict(SMALL_RUN))
        r1 = run_pipeline(s, tmp_path / "d1")
        r2 = run_pipeline(s, tmp_path / "d2")
        for key, p1 in r1.paths.items():
            assert p1.read_bytes() == r2.paths[key].read_bytes(), key

    def test_seed_changes_tags(self, tmp_path):
        s = scenario_from_mapping(dict(SMALL_RUN))
        r1 = run_pipeline(s, tmp_path / "d1")
        r2 = run_pipeline(s.with_seed(4), tmp_path / "d2")
        assert sha256_file(r1.paths["tags"]) != sha256_file(r2.paths["tags"])

    def test_lanes_write_the_bytes_of_one_thread(self, tmp_path, monkeypatch):
        # the tag file beside the correlation, on the caller alone and then on two threads
        s = scenario_from_mapping(dict(SILVER_DEMO, name="silver_ab", fiber_config="AB",
                                       duration_ns=3.0e6))
        lane_threads: dict[str, set[threading.Thread]] = {}

        def on_thread(name, fn):
            def recording(*args, **kwargs):
                lane_threads.setdefault(name, set()).add(threading.current_thread())
                return fn(*args, **kwargs)
            monkeypatch.setattr(pipeline, name, recording)

        on_thread("write_time_tags", pipeline.write_time_tags)
        on_thread("correlate_tags", pipeline.correlate_tags)
        files = {}
        for n_cores in (1, 2):
            lane_threads.clear()
            monkeypatch.setattr(correlator, "_usable_cores", lambda: n_cores)
            result = run_pipeline(s, tmp_path / str(n_cores))
            files[n_cores] = {p.name: p.read_bytes() for p in (tmp_path / str(n_cores)).iterdir()}
            # the caller writes the tag file whatever the cores
            assert lane_threads == {"write_time_tags": {threading.current_thread()},
                                    "correlate_tags": {threading.current_thread()}}
            for record in result.manifest["artifacts"].values():
                data = files[n_cores][record["path"]]
                assert record["bytes"] == len(data)
                assert record["sha256"] == hashlib.sha256(data).hexdigest()
        assert len(files[1]) == 7 and files[2] == files[1]

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_the_tag_writers_thread_takes_the_blocks_left(self, tmp_path, monkeypatch, cores):
        # once the caller has written the tag file, it takes cross blocks that the other
        # cores have not started: every block waits until one has run on that thread
        s = scenario_from_mapping(dict(SILVER_DEMO, name="silver_ab", fiber_config="AB",
                                       duration_ns=3.0e6))
        monkeypatch.setattr(correlator, "_usable_cores", lambda: cores)
        monkeypatch.setattr(correlator, "_CHUNK", 1024)
        monkeypatch.setattr(montecarlo, "_BLOCKED_MIN", 1024)
        written, helped, lock = threading.Event(), threading.Event(), threading.Lock()
        tag_thread: list[threading.Thread] = []
        block_threads: set[threading.Thread] = set()
        active, peak = [0], [0]
        write_time_tags, map_on_threads = pipeline.write_time_tags, correlator._map_on_threads

        def writing(*args, **kwargs):
            path = write_time_tags(*args, **kwargs)
            tag_thread.append(threading.current_thread())
            written.set()
            return path

        def recording(fn, items, n_threads):
            write_tags, *blocks = items
            assert callable(write_tags) and len(blocks) > cores  # a block is left for it

            def block(item):
                if item is write_tags:
                    return fn(item)
                with lock:
                    active[0] += 1
                    peak[0] = max(peak[0], active[0])
                    block_threads.add(threading.current_thread())
                try:
                    assert written.wait(5)
                    if threading.current_thread() is tag_thread[0]:
                        helped.set()
                    assert helped.wait(5)
                    return fn(item)
                finally:
                    with lock:
                        active[0] -= 1

            return map_on_threads(block, items, n_threads)

        monkeypatch.setattr(pipeline, "write_time_tags", writing)
        monkeypatch.setattr(correlator, "_map_on_threads", recording)
        run_pipeline(s, tmp_path)
        assert tag_thread == [threading.current_thread()] and tag_thread[0] in block_threads
        assert len(block_threads) <= cores and peak[0] <= cores
        assert (block_threads == {threading.current_thread()}) == (cores == 1)

    def test_fit_json_roundtrip(self, tmp_path):
        s = scenario_from_mapping(dict(SMALL_RUN))
        result = run_pipeline(s, tmp_path / "out")
        stored = json.loads(result.paths["fit"].read_text())["fit"]
        assert stored == json.loads(json.dumps(fit_to_mapping(result.fit)))
        assert tuple(stored["params"][k] for k in PARAM_NAMES) == result.fit.params


@pytest.fixture
def cli_env(tmp_path, monkeypatch):
    out = tmp_path / "artifacts"
    monkeypatch.setenv(OUT_ENV_VAR, str(out))
    scenario = tmp_path / "tiny.yaml"
    scenario.write_text(
        "rates: silver\n"
        "n_emitters: 1\n"
        "duration_ns: 1.0e6\n"
        "seed: 5\n"
        "fiber_config: DirectPlane\n"
        "budget: ideal\n"
        "fit:\n"
        "  k12: 0.037037\n"
    )
    return out, scenario


def tree(root: Path) -> dict[str, bytes]:
    """Every file under root, by its path relative to root, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def git_status(repo: Path) -> str | None:
    """`git status --porcelain` of the checkout the tests run from; None outside one."""
    if not (repo / ".git").exists() or shutil.which("git") is None:
        return None
    return subprocess.run(["git", "status", "--porcelain"], cwd=repo,
                          capture_output=True, text=True, check=True).stdout


class TestWritesOnlyUnderOut:
    @pytest.mark.parametrize("via", ["flag", "environment"])
    def test_every_command_writes_under_out_and_nowhere_else(self, tmp_path, monkeypatch,
                                                             capsys, via):
        # the working directory, the scenario's directory, HOME and the temporary
        # directory are each their own directory, all apart from the output one
        out = tmp_path / "out"
        watched = tmp_path / "watched"
        cwd, inputs, home, temp = (watched / name for name in ("cwd", "inputs", "home", "tmp"))
        for directory in (cwd, inputs, home, temp):
            directory.mkdir(parents=True)
        scenario = inputs / "tiny.yaml"
        scenario.write_text("rates: silver\nn_emitters: 1\nduration_ns: 1.0e6\nseed: 5\n"
                            "fiber_config: DirectPlane\nbudget: ideal\nfit:\n  k12: 0.037037\n")
        monkeypatch.chdir(cwd)
        monkeypatch.setenv("HOME", str(home))
        for name in ("TMPDIR", "TEMP", "TMP"):
            monkeypatch.setenv(name, str(temp))
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        if via == "flag":
            monkeypatch.delenv(OUT_ENV_VAR, raising=False)
            out_args = ["--out", str(out)]
        else:
            monkeypatch.setenv(OUT_ENV_VAR, str(out))
            out_args = []
        repo = Path(__file__).resolve().parent.parent
        before, status = tree(watched), git_status(repo)

        assert main(["validate", "--scenario", str(scenario)]) == 0
        assert not out.exists()  # validate writes nothing at all
        assert main(["simulate", "--scenario", str(scenario), *out_args]) == 0
        assert main(["correlate", "--tags", str(out / "tiny.ttag"), *out_args]) == 0
        assert main(["fit", "--hist", str(out / "tiny_g2.csv"), *out_args]) == 0
        assert main(["run", "--scenario", str(scenario), *out_args]) == 0
        capsys.readouterr()

        assert tree(watched) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "watched"]
        assert sorted(tree(out)) == [
            "tiny.ttag", "tiny.ttag.json", "tiny_fit.json", "tiny_g2.csv", "tiny_g2.csv.json",
            "tiny_g2_fit.json", "tiny_manifest.json", "tiny_report.txt"]
        assert git_status(repo) == status


class TestCli:
    def test_validate_builtin(self, capsys):
        assert main(["validate", "--scenario", "silver_ab"]) == 0
        out = capsys.readouterr().out
        assert "ok: silver_ab" in out
        assert "tau12=27 tau21=9.7 tau23=27.4 tau31=102" in out

    def test_validate_unknown_scenario(self, capsys):
        assert main(["validate", "--scenario", "unobtainium"]) == 2
        err = capsys.readouterr().err
        assert "silver_ab" in err  # suggests the builtin names

    def test_validate_bad_file(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("rates: silver\nduration_ns: -1\nrho: 9\n")
        assert main(["validate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert "duration_ns" in err and "rho" in err

    def test_stage_chain(self, cli_env, capsys):
        out, scenario = cli_env
        assert main(["simulate", "--scenario", str(scenario)]) == 0
        assert (out / "tiny.ttag").exists()

        assert main(["correlate", "--tags", str(out / "tiny.ttag")]) == 0
        assert (out / "tiny_g2.csv").exists()

        capsys.readouterr()
        assert main(["fit", "--hist", str(out / "tiny_g2.csv")]) == 0
        table = capsys.readouterr().out
        assert "tau21 (ns)" in table and "quantum yield (%)" in table
        payload = json.loads((out / "tiny_g2_fit.json").read_text())
        assert payload["fit"]["converged"] is True
        assert payload["report"] is not None  # k12 came from the sidecar

    def test_run_whole_pipeline(self, cli_env, capsys):
        out, scenario = cli_env
        assert main(["run", "--scenario", str(scenario)]) == 0
        text = capsys.readouterr().out
        assert "g2(0) bin" in text and "artifacts in" in text
        assert (out / "tiny_manifest.json").exists()

    @pytest.mark.parametrize("n_cores", [1, 2])
    @pytest.mark.parametrize("lane", ["tags", "analysis"])
    def test_a_failed_lane_writes_no_manifest(self, cli_env, capsys, monkeypatch, lane, n_cores):
        out, scenario = cli_env
        monkeypatch.setattr(correlator, "_usable_cores", lambda: n_cores)
        if lane == "tags":
            (out / "tiny.ttag").mkdir(parents=True)
        else:
            def broken(*args):
                raise ValueError("the correlator broke")
            monkeypatch.setattr(pipeline, "correlate_tags", broken)
        before = threading.active_count()
        assert main(["run", "--scenario", str(scenario)]) == 1
        assert threading.active_count() == before
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        expected = str(out / "tiny.ttag") if lane == "tags" else "the correlator broke"
        assert len(errors) == 1 and expected in errors[0]
        assert list(out.glob("*_manifest.json")) == []

    def test_seed_override_changes_output(self, cli_env):
        out, scenario = cli_env
        main(["simulate", "--scenario", str(scenario)])
        first = sha256_file(out / "tiny.ttag")
        main(["simulate", "--scenario", str(scenario), "--seed", "99"])
        assert sha256_file(out / "tiny.ttag") != first

    @pytest.mark.parametrize("seeded_first", [True, False], ids=["seeded_first", "plain_first"])
    def test_the_reused_parser_carries_nothing_between_calls(self, cli_env, tmp_path,
                                                             seeded_first):
        # main parses with one parser per process; a --seed given to one call is not the
        # default of the next
        out, scenario = cli_env
        calls = {"seeded": ["--seed", "99", "--out", str(tmp_path / "seeded")],
                 "plain": ["--out", str(tmp_path / "plain")]}
        for name in ("seeded", "plain") if seeded_first else ("plain", "seeded"):
            assert main(["simulate", "--scenario", str(scenario), *calls[name]]) == 0
        for name, seed in (("seeded", 99), ("plain", None)):
            expected = load_scenario(scenario)
            expected = expected if seed is None else expected.with_seed(seed)
            reference = write_time_tags(tmp_path / f"{name}_reference.ttag", acquire(expected))
            assert (tmp_path / name / "tiny.ttag").read_bytes() == reference.read_bytes()

    def test_a_usage_error_leaves_the_parser_whole(self, cli_env, capsys):
        _, scenario = cli_env
        for argv in (["simulate"], ["simulate", "--scenario", str(scenario), "--seed", "-1"],
                     ["nonsense"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert main(["simulate", "--scenario", str(scenario)]) == 0
        assert "error: " in capsys.readouterr().err

    def test_the_environment_is_read_at_each_call(self, cli_env, tmp_path, monkeypatch):
        _, scenario = cli_env
        for name in ("first", "second"):
            monkeypatch.setenv(OUT_ENV_VAR, str(tmp_path / name))
            assert main(["simulate", "--scenario", str(scenario)]) == 0
            assert (tmp_path / name / "tiny.ttag").exists()

    def test_out_flag_beats_environment(self, cli_env, tmp_path):
        _, scenario = cli_env
        explicit = tmp_path / "elsewhere"
        assert main(["simulate", "--scenario", str(scenario),
                     "--out", str(explicit)]) == 0
        assert (explicit / "tiny.ttag").exists()

    def test_correlate_overrides(self, cli_env):
        out, scenario = cli_env
        main(["simulate", "--scenario", str(scenario)])
        assert main(["correlate", "--tags", str(out / "tiny.ttag"),
                     "--bins", "2000", "--window", "100000", "--kind", "cross"]) == 0
        sidecar = json.loads((out / "tiny_g2.csv.json").read_text())
        assert sidecar["bin_width_ps"] == 2000
        assert sidecar["lag_max_ps"] == 100_000
        # the settings used replace the stored ones
        used = sidecar["metadata"]
        assert (used["bin_width_ps"], used["window_ps"], used["correlation"]) == \
            (2000, 100_000, "cross")

    def test_numbers_as_text_are_read_from_yaml_and_flags(self, cli_env, capsys):
        # PyYAML reads 1e7 (no dot) as the text '1e7', and flags arrive as text;
        # only a value stored in an artifact must be a JSON number
        out, scenario = cli_env
        scenario.write_text(scenario.read_text().replace("duration_ns: 1.0e6", "duration_ns: 1e7"))
        assert yaml.safe_load(scenario.read_text())["duration_ns"] == "1e7"
        assert validate_config(str(scenario))[0].duration_ns == 1e7
        assert main(["simulate", "--scenario", str(scenario)]) == 0
        assert main(["correlate", "--tags", str(out / "tiny.ttag"),
                     "--bins", "2e3", "--window", "1e5"]) == 0
        sidecar = json.loads((out / "tiny_g2.csv.json").read_text())
        assert (sidecar["bin_width_ps"], sidecar["lag_max_ps"]) == (2000, 100_000)

    def test_correlate_window_flags_follow_the_scenario_rule(self, cli_env, capsys):
        out, scenario = cli_env
        main(["simulate", "--scenario", str(scenario)])
        # not a multiple of the bin width; only 2 bins per side
        # wider than the 1e9 ps acquisition: no pair has such a lag, and the
        # histogram would not fit in memory
        for bins, window in ((300, 1000), (500, 1000), (1, 10**30), (1, 10**14)):
            capsys.readouterr()
            assert main(["correlate", "--tags", str(out / "tiny.ttag"),
                         "--bins", str(bins), "--window", str(window)]) == 2
            expected = diagnostics_of(dict(MINIMAL, bin_width_ps=bins, window_ps=window))
            assert capsys.readouterr().err == \
                "configuration error:\n" + "".join(f"  - {d}\n" for d in expected)
            assert not (out / "tiny_g2.csv").exists()

    def test_fit_inversion_flag_overrides_the_stored_one(self, cli_env, capsys):
        out, scenario = cli_env
        main(["simulate", "--scenario", str(scenario)])
        main(["correlate", "--tags", str(out / "tiny.ttag")])
        hist_path = out / "tiny_g2.csv"
        capsys.readouterr()

        assert main(["fit", "--hist", str(hist_path)]) == 0
        stored = capsys.readouterr().out
        assert "(exact inversion)" in stored
        # a new inversion or pump rate is a re-fit of the same histogram
        assert main(["fit", "--hist", str(hist_path), "--inversion", "model"]) == 0
        refit = capsys.readouterr().out
        assert "(model inversion)" in refit and refit != stored
        assert main(["fit", "--hist", str(hist_path), "--k12", "0.05",
                     "--inversion", "model"]) == 0
        fit = fit_histogram(read_histogram_csv(hist_path)[0])
        table = report_photophysics(fit, 0.05, inversion="model").format_table("tiny")
        assert capsys.readouterr().out.endswith(f"\n{table}\n")
        assert json.loads((out / "tiny_g2_fit.json").read_text())["context"]["k12"] == 0.05

    @pytest.mark.parametrize("argv,expected", [
        (["correlate", "--tags", "x.ttag", "--bins", "0"], "must be >= 1, got '0'"),
        (["correlate", "--tags", "x.ttag", "--window", "0"], "must be >= 1, got '0'"),
        (["correlate", "--tags", "x.ttag", "--window", "-150000"],
         "must be >= 1, got '-150000'"),
        (["fit", "--hist", "x.csv", "--max-iterations", "0"], "must be >= 1, got '0'"),
        (["fit", "--hist", "x.csv", "--k12", "-1"], "must be > 0, got '-1'"),
        (["fit", "--hist", "x.csv", "--k12", "0"], "must be > 0, got '0'"),
        (["fit", "--hist", "x.csv", "--k12", "nan"], "must be finite, got 'nan'"),
        (["simulate", "--scenario", "silver_ab", "--seed", "-1"], "must be >= 0, got '-1'"),
        (["run", "--scenario", "silver_ab", "--seed", "-3"], "must be >= 0, got '-3'"),
        (["correlate", "--tags", "x.ttag", "--kind", "bogus"],
         "expected one of auto, cross, got 'bogus'"),
        (["fit", "--hist", "x.csv", "--inversion", "bogus"],
         "expected one of exact, model, got 'bogus'"),
    ], ids=[f"argv{i}" for i in range(11)])
    def test_zero_settings_are_usage_errors(self, argv, expected, capsys, tmp_path, monkeypatch):
        # a 0 must not fall back to the stored or default value; a flag is held
        # to its scenario key's rule before anything runs or is written
        monkeypatch.setenv(OUT_ENV_VAR, str(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"error: argument {argv[-2]}: {expected}\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("artifact,corrupt,command", [
        ("tiny_g2.csv.json", lambda d: dict(d, bin_width_ps=0), ["fit", "--hist", "tiny_g2.csv"]),
        ("tiny_g2.csv.json", lambda d: {k: v for k, v in d.items() if k != "rate_a_hz"},
         ["fit", "--hist", "tiny_g2.csv"]),
        ("tiny.ttag.json", lambda d: [d], ["correlate", "--tags", "tiny.ttag"]),
        ("tiny_g2.csv.json", lambda d: dict(d, metadata=[d["metadata"]]),
         ["fit", "--hist", "tiny_g2.csv"]),
        ("tiny.ttag.json", lambda d: dict(d, metadata=[d["metadata"]]),
         ["correlate", "--tags", "tiny.ttag"]),
        ("tiny.ttag.json", lambda d: dict(d, duration_ps="abc"),
         ["correlate", "--tags", "tiny.ttag"]),
        ("tiny.ttag.json", lambda d: dict(d, metadata=dict(d["metadata"], window_ps=[1])),
         ["correlate", "--tags", "tiny.ttag"]),
        ("tiny_g2.csv.json", lambda d: dict(d, metadata=dict(d["metadata"], rho_effective="x")),
         ["fit", "--hist", "tiny_g2.csv"]),
        ("tiny.ttag.json", lambda d: dict(d, duration_ps=-5), ["correlate", "--tags", "tiny.ttag"]),
        ("tiny.ttag.json", lambda d: dict(d, duration_ps=1), ["correlate", "--tags", "tiny.ttag"]),
        ("tiny.ttag", swap_first_and_last_b_records, ["correlate", "--tags", "tiny.ttag"]),
        ("tiny.ttag", b_before_a_at_equal_tags, ["correlate", "--tags", "tiny.ttag"]),
        ("tiny.ttag", lambda data: data[:-3 * 16], ["correlate", "--tags", "tiny.ttag"]),
        ("tiny_g2.csv", lambda data: data.replace(b"\r\n-", b"\r\nabc", 1),
         ["fit", "--hist", "tiny_g2.csv"]),
        ("tiny_g2.csv", lambda data: data[:data.index(b"\n") + 1],
         ["fit", "--hist", "tiny_g2.csv"]),
        ("tiny_g2.csv", first_count_negative, ["fit", "--hist", "tiny_g2.csv"]),
        ("tiny_g2.csv.json", lambda d: dict(d, lag_min_ps=d["lag_min_ps"] + d["bin_width_ps"]),
         ["fit", "--hist", "tiny_g2.csv"]),
        ("tiny_g2.csv.json", lambda d: stored(d, n_emitters=0), ["fit", "--hist", "tiny_g2.csv"]),
        ("tiny_g2.csv.json", lambda d: stored(d, rho_effective=0.0),
         ["fit", "--hist", "tiny_g2.csv"]),
        ("tiny_g2.csv.json", lambda d: stored_fit(d, k12=True), ["fit", "--hist", "tiny_g2.csv"]),
        ("tiny_g2.csv.json", lambda d: stored_fit(d, k12=-0.5), ["fit", "--hist", "tiny_g2.csv"]),
        ("tiny_g2.csv.json", lambda d: stored_fit(d, max_iterations=2.7),
         ["fit", "--hist", "tiny_g2.csv"]),
        ("tiny_g2.csv.json", lambda d: stored_fit(d, max_iterations=0),
         ["fit", "--hist", "tiny_g2.csv"]),
        ("tiny.ttag.json", lambda d: stored(d, bin_width_ps=2500.7),
         ["correlate", "--tags", "tiny.ttag"]),
        ("tiny.ttag.json", lambda d: stored(d, window_ps=True),
         ["correlate", "--tags", "tiny.ttag"]),
        ("tiny.ttag.json", lambda d: None, ["correlate", "--tags", "tiny.ttag"]),
        ("tiny.ttag.json", lambda d: dict(d, duration_ps=None),
         ["correlate", "--tags", "tiny.ttag"]),
        ("tiny.ttag.json", lambda d: {k: v for k, v in d.items() if k != "duration_ps"},
         ["correlate", "--tags", "tiny.ttag"]),
        ("tiny.ttag.json", lambda d: dict(d, duration_ps=d["duration_ps"] + 0.6),
         ["correlate", "--tags", "tiny.ttag"]),
        ("tiny.ttag.json", lambda d: stored(d, window_ps=3000),
         ["correlate", "--tags", "tiny.ttag"]),
        ("tiny.ttag.json", lambda d: stored(d, window_ps=10**30),
         ["correlate", "--tags", "tiny.ttag"]),
        ("tiny_g2.csv.json", lambda d: dict(d, bin_width_ps=d["bin_width_ps"] + 0.7),
         ["fit", "--hist", "tiny_g2.csv"]),
        ("tiny_g2.csv.json", lambda d: dict(d, rate_a_hz=True), ["fit", "--hist", "tiny_g2.csv"]),
        ("tiny_g2.csv.json", lambda d: dict(d, duration_ps=True),
         ["fit", "--hist", "tiny_g2.csv"]),
        ("tiny_g2.csv.json", lambda d: dict(d, duration_ps=d["duration_ps"] + 0.6),
         ["fit", "--hist", "tiny_g2.csv"]),
        ("tiny.ttag.json", lambda d: dict(d, duration_ps=str(d["duration_ps"])),
         ["correlate", "--tags", "tiny.ttag"]),
        ("tiny.ttag.json", lambda d: dict(d, n_a=str(d["n_a"])),
         ["correlate", "--tags", "tiny.ttag"]),
        ("tiny_g2.csv.json", lambda d: dict(d, rate_a_hz=str(d["rate_a_hz"])),
         ["fit", "--hist", "tiny_g2.csv"]),
        ("tiny_g2.csv.json", lambda d: stored(d, n_emitters=str(d["metadata"]["n_emitters"])),
         ["fit", "--hist", "tiny_g2.csv"]),
        ("tiny.ttag", lambda data: data[:10], ["correlate", "--tags", "tiny.ttag"]),
        ("tiny.ttag", lambda data: data[:4] + b"\x02\x00" + data[6:],
         ["correlate", "--tags", "tiny.ttag"]),
        ("tiny.ttag.json", lambda d: json.dumps(d).encode()[:-1],
         ["correlate", "--tags", "tiny.ttag"]),
    ], ids=["zero_bin_width", "no_rate_a", "tag_sidecar_is_list", "histogram_metadata_is_list",
            "tag_metadata_is_list", "tag_duration_is_text", "tag_window_is_list",
            "histogram_rho_is_text", "tag_duration_negative", "tag_duration_before_last_tag",
            "tags_unsorted", "tags_b_first_at_a_tie", "tag_records_cut", "histogram_lag_is_text",
            "histogram_without_rows", "histogram_count_negative", "histogram_window_asymmetric",
            "histogram_n_emitters_zero", "histogram_rho_zero", "histogram_k12_is_bool",
            "histogram_k12_negative", "histogram_iterations_fraction",
            "histogram_iterations_zero", "tag_bin_width_fraction", "tag_window_is_bool",
            "tag_sidecar_deleted", "tag_duration_null", "tag_duration_absent",
            "tag_duration_fraction", "tag_window_under_4_bins", "tag_window_huge",
            "histogram_bin_width_fraction", "histogram_rate_a_is_bool",
            "histogram_duration_is_bool", "histogram_duration_fraction",
            "tag_duration_is_numeric_text", "tag_n_a_is_numeric_text",
            "histogram_rate_a_is_numeric_text", "histogram_n_emitters_is_numeric_text",
            "tag_header_cut", "tag_version_2", "tag_sidecar_not_json"])
    def test_malformed_artifact_is_exit_1(self, cli_env, capsys, artifact, corrupt, command):
        out, scenario = cli_env
        assert main(["run", "--scenario", str(scenario)]) == 0
        path = out / artifact
        new = corrupt(json.loads(path.read_text()) if path.suffix == ".json"
                      else path.read_bytes())
        if new is None:
            path.unlink()
        elif isinstance(new, bytes):
            path.write_bytes(new)
        else:
            path.write_text(json.dumps(new))
        capsys.readouterr()
        assert main([*command[:2], str(out / command[2])]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{artifact}: " in err  # the file itself, not only its sidecar

    @pytest.mark.parametrize("artifact,section,key,command,written", [
        ("tiny_g2.csv.json", "metadata", "n_emitters", ["fit", "--hist", "tiny_g2.csv"],
         ["tiny_g2_fit.json"]),
    ], ids=["histogram_n_emitters"])
    def test_null_setting_reads_as_absent(self, cli_env, capsys, artifact, section, key,
                                          command, written):
        # a stored null is the key left out: same exit code, output and files
        out, scenario = cli_env
        assert main(["run", "--scenario", str(scenario)]) == 0
        path = out / artifact
        original = json.loads(path.read_text())
        results = []
        for value in ("null", "absent"):
            payload = json.loads(json.dumps(original))
            stored = payload if section is None else payload[section]
            if value == "null":
                stored[key] = None
            else:
                del stored[key]
            path.write_text(json.dumps(payload))
            capsys.readouterr()
            code = main([*command[:2], str(out / command[2])])
            results.append((code, capsys.readouterr(), [(out / n).read_bytes() for n in written]))
        assert results[0] == results[1]
        assert results[0][0] == 0

    def test_allocation_failure_is_exit_1(self, cli_env, capsys):
        # a window that fits the acquisition but not memory
        out, scenario = cli_env
        assert main(["simulate", "--scenario", str(scenario)]) == 0
        capsys.readouterr()
        with mock.patch("spphbt.cli.correlate_tags",
                        side_effect=MemoryError("Unable to allocate 16.0 GiB")):
            assert main(["correlate", "--tags", str(out / "tiny.ttag")]) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 16.0 GiB\n"

    def test_missing_input_file_is_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(OUT_ENV_VAR, str(tmp_path))
        assert main(["fit", "--hist", str(tmp_path / "absent.csv")]) == 1
        assert "error:" in capsys.readouterr().err
        # a directory where a file should be: the tags, or the histogram's sidecar
        (tmp_path / "dir.ttag").mkdir()
        (tmp_path / "dir.ttag.json").mkdir()
        for argv in (["correlate", "--tags"], ["fit", "--hist"]):
            assert main([*argv, str(tmp_path / "dir.ttag")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1 and "dir.ttag" in err

    def test_non_converged_fit_is_exit_1(self, tmp_path, capsys):
        # both commands still write the fit, without a report, and the manifest,
        # and name the histogram in the same error line
        cases = {
            # two iterations cannot converge
            "short": ({"duration_ns": 1.0e7, "fit": {"max_iterations": 2}},
                      "error: {hist}: fit did not converge (max_iterations)\n"),
            # a pump rate above gamma1 leaves the inversion no rate set
            "pumped": ({"fit": {"k12": 5.0}}, "error: {hist}: k21 + k23 would be non-positive\n"),
            # ~1800 pairs: the fit converges to a shape that admits no rate set
            "cornered": ({"n_emitters": 10, "duration_ns": 1.0e11, "seed": 5, "fiber_config": "AB",
                          "geometry": "fourier_default", "budget": "silver_filtered"},
                         "warning: non_identifiable: c is within two standard errors of 0, "
                         "so the rates are undetermined\n"
                         "error: {hist}: shape parameters imply non-positive zero-lag slope\n"),
        }
        for name, (overrides, err) in cases.items():
            path = tmp_path / f"{name}.yaml"
            path.write_text(yaml.safe_dump(dict(SMALL_RUN, name=name, **overrides)))
            out = tmp_path / "out"
            err = err.format(hist=out / f"{name}_g2.csv")
            assert main(["run", "--scenario", str(path), "--out", str(out)]) == 1, name
            assert capsys.readouterr().err == err
            assert (out / f"{name}_manifest.json").exists()
            run_fit = json.loads((out / f"{name}_fit.json").read_text())
            assert run_fit["report"] is None
            assert run_fit["fit"]["converged"] is (name != "short")

            assert main(["fit", "--hist", str(out / f"{name}_g2.csv"), "--out", str(out)]) == 1
            assert capsys.readouterr().err == err
            assert json.loads((out / f"{name}_g2_fit.json").read_text()) == run_fit

    def test_fit_health_flags_warn_on_stderr(self, tmp_path, capsys):
        # criterion 7's scenario over 10 s counts ~200 pairs: c runs to its bound
        path = tmp_path / "sparse.yaml"
        path.write_text(yaml.safe_dump({
            "name": "sparse", "rates": "silver", "n_emitters": 10, "duration_ns": 1.0e10,
            "seed": 6, "fiber_config": "AB", "geometry": "fourier_default",
            "budget": "silver_filtered", "fit": {"k12": 1.0 / 27.0}}))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: non_identifiable: ")
        assert main(["fit", "--hist", str(out / "sparse_g2.csv"), "--out", str(out)]) == 0
        assert capsys.readouterr().err == err
        # healthy fits set no flag
        for seed in ("7", "101", "102", "103"):
            assert main(["run", "--scenario", "silver_ab", "--seed", seed,
                         "--out", str(out)]) == 0
            assert capsys.readouterr().err == "", seed

    @pytest.mark.parametrize("overrides", [
        # (k12 - k2) ** 2 overflows in the segment rates
        {"rates": {"k12": 1.0e300, "k21": 0.1, "k23": 0.03, "k31": 0.01}},
        # q ** 2 underflows to 0 in the gap's variance
        {"budget": {"p_qe": 1.0e-320}},
    ], ids=["k12_1e300", "p_qe_1e-320"])
    def test_rates_out_of_float_range_are_exit_1(self, tmp_path, capsys, overrides):
        path = tmp_path / "extreme.yaml"
        path.write_text(yaml.safe_dump(dict(SMALL_RUN, name="extreme", **overrides)))
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the gap between detections is out of float64 range at ")
        assert err.count("\n") == 1

    def test_config_error_is_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(OUT_ENV_VAR, str(tmp_path))
        assert main(["run", "--scenario", "not_a_scenario"]) == 2
        assert "configuration error" in capsys.readouterr().err


# every value a JSON leaf of an artifact is replaced with; AS_TEXT stands for the
# leaf's own value written as JSON text, e.g. "3000000000" for a duration
AS_TEXT = object()
HOSTILE = [None, True, "spam", 2.5, -1, 0, 10**30, [], {}, AS_TEXT]

# the command that reads each artifact, and the leaves it takes back
READERS = {
    "tiny.ttag.json": (["correlate", "--tags", "{out}/tiny.ttag", "--out", "{out}/stage"], {
        "duration_ps", "n_a", "n_b", "metadata.correlation", "metadata.window_ps",
        "metadata.bin_width_ps"}),
    "tiny_g2.csv.json": (["fit", "--hist", "{out}/tiny_g2.csv", "--out", "{out}/stage"], {
        "bin_width_ps", "lag_min_ps", "lag_max_ps", "duration_ps", "rate_a_hz", "rate_b_hz",
        "metadata.scenario", "metadata.n_emitters", "metadata.rho_effective",
        "metadata.fit.k12", "metadata.fit.max_iterations", "metadata.fit.inversion"}),
}


def json_leaves(node, prefix=()):
    """The key path of each leaf (a scalar or an empty container) of a JSON document."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, (dict, list)) and value:
            yield from json_leaves(value, (*prefix, key))
        else:
            yield (*prefix, key)


def json_kind(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


@pytest.fixture(scope="module")
def tiny_ab_run(tmp_path_factory):
    """The directory of one short silver_ab-shaped run, and each artifact's JSON."""
    out = tmp_path_factory.mktemp("contract")
    (out / "tiny.yaml").write_text(yaml.safe_dump({
        "name": "tiny", "rates": "silver", "n_emitters": 10, "duration_ns": 3.0e6, "seed": 7,
        "fiber_config": "AB", "geometry": "fourier_default", "budget": "ideal",
        "fit": {"k12": 1.0 / 27.0}}))
    with redirect_stdout(io.StringIO()):
        assert main(["run", "--scenario", str(out / "tiny.yaml"), "--out", str(out)]) == 0
    return out, {name: (out / name).read_text() for name in READERS}


class TestReaderContract:
    @settings(max_examples=600, deadline=None)
    @given(data=st.data())
    def test_every_stored_value_is_read_or_refused(self, tiny_ab_run, data):
        # exit 0, or exit 1 with one `error:` line (after any `warning:` lines),
        # never a traceback; a value of the wrong type where the reader takes
        # one back is refused naming its file
        out, original = tiny_ab_run
        artifact = data.draw(st.sampled_from(sorted(READERS)))
        command, read = READERS[artifact]
        payload = json.loads(original[artifact])
        *parents, key = data.draw(st.sampled_from(sorted(json_leaves(payload), key=str)))
        value = data.draw(st.sampled_from(HOSTILE))
        node = payload
        for parent in parents:
            node = node[parent]
        before = node[key]
        node[key] = json.dumps(before) if value is AS_TEXT else value
        (out / artifact).write_text(json.dumps(payload))
        err = io.StringIO()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main([arg.format(out=out) for arg in command])
        finally:
            (out / artifact).write_text(original[artifact])
        lines = err.getvalue().splitlines()
        assert code in (0, 1), lines
        if code == 1:
            kinds = [line.split(": ")[0] for line in lines]
            assert kinds == ["warning"] * (len(lines) - 1) + ["error"], lines
        leaf = ".".join(map(str, (*parents, key)))
        if leaf in read and value is not None and json_kind(node[key]) != json_kind(before):
            assert code == 1 and f"{artifact}: " in lines[-1], (leaf, node[key], lines)


# what one cell of a histogram CSV is changed to: each takes the cell's text
CELL_CHANGES = {
    "digit": lambda cell, k: cell[:k % (len(cell) + 1)] + str(k % 10) + cell[k % (len(cell) + 1):],
    "sign": lambda cell, k: "-+"[k % 2] + cell.lstrip("-"),
    "empty": lambda cell, k: "",
    "huge": lambda cell, k: str(10 ** (18 + k % 15)),
    "float": lambda cell, k: f"{cell}.{k % 10}",
    "extra": lambda cell, k: f"{cell},{k}",
}


class TestHistogramCsvContract:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_every_changed_cell_is_read_or_refused(self, tiny_ab_run, data):
        # one cell of the histogram CSV changed: `fit` exits 0, or exits 1 with one
        # `error:` line (after any `warning:` lines), never a traceback; a CSV the
        # reader refuses is exit 1 naming the CSV
        out, _ = tiny_ab_run
        path = out / "tiny_g2.csv"
        original = path.read_bytes()
        header, *rows = original.decode().split("\r\n")
        row = data.draw(st.integers(0, len(rows) - 2), label="row")  # the last is ""
        cells = rows[row].split(",")
        column = data.draw(st.integers(0, len(cells) - 1), label="column")
        change = data.draw(st.sampled_from(sorted(CELL_CHANGES)), label="change")
        cells[column] = CELL_CHANGES[change](cells[column], data.draw(st.integers(0, 99)))
        rows[row] = ",".join(cells)
        path.write_bytes("\r\n".join([header, *rows]).encode())
        err = io.StringIO()
        try:
            try:
                read_histogram_csv(path)
                refused = False
            except ValueError:
                refused = True
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(["fit", "--hist", str(path), "--out", str(out / "stage")])
        finally:
            path.write_bytes(original)
        lines = err.getvalue().splitlines()
        assert code in (0, 1), lines
        if code == 1:
            kinds = [line.split(": ")[0] for line in lines]
            assert kinds == ["warning"] * (len(lines) - 1) + ["error"], lines
        if refused:
            assert code == 1 and "tiny_g2.csv: " in lines[-1], lines


@pytest.fixture(scope="module")
def tiny_ttag(tmp_path_factory):
    """The directory of a small two-channel tag file, and the file's bytes."""
    out = tmp_path_factory.mktemp("records")
    rng = np.random.default_rng(12)
    a = TimeTagStream(np.sort(rng.integers(0, 200_000, 24)), "A", 1_000_000)
    b = TimeTagStream(np.sort(rng.integers(0, 200_000, 16)), "B", 1_000_000)
    path = write_time_tags(out / "small.ttag",
                           replace(ChannelTags.pool(a, b),
                                   metadata={"window_ps": 20_000, "bin_width_ps": 1000}))
    return out, path.read_bytes()


class TestTagRecordContract:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_cut_or_flipped_record_is_read_or_refused(self, tiny_ttag, data):
        # a tag file cut past its header, or with one record byte flipped, is
        # correlated both ways: exit 0, or exit 1 with one `error:` line naming
        # the tag file or its sidecar, never a traceback
        out, original = tiny_ttag
        offset = data.draw(st.integers(16, len(original) - 1), label="offset")
        if data.draw(st.booleans(), label="cut"):
            corrupt = original[:offset]
        else:
            flipped = original[offset] ^ data.draw(st.integers(1, 255), label="xor")
            corrupt = original[:offset] + bytes([flipped]) + original[offset + 1:]
        path = out / "small.ttag"
        path.write_bytes(corrupt)
        try:
            for kind in ("auto", "cross"):
                err = io.StringIO()
                with redirect_stdout(io.StringIO()), redirect_stderr(err):
                    code = main(["correlate", "--tags", str(path), "--kind", kind,
                                 "--out", str(out / "stage")])
                lines = err.getvalue().splitlines()
                assert code in (0, 1), (kind, lines)
                if code == 1:
                    assert len(lines) == 1 and lines[0].startswith("error: "), (kind, lines)
                    assert "small.ttag" in lines[0], (kind, lines)
        finally:
            path.write_bytes(original)


class TestStagesReproduceRun:
    @pytest.mark.parametrize("max_iterations", [2, 40])
    def test_stage_chain_writes_what_run_writes(self, tmp_path, capsys, max_iterations):
        # every setting the stages read back from the sidecars is off its default
        mapping = dict(SMALL_RUN, name="chain", duration_ns=1.0e7, bin_width_ps=2000,
                       window_ps=100_000, fit={"k12": 1.0 / 27.0, "inversion": "model",
                                               "max_iterations": max_iterations})
        path = tmp_path / "chain.yaml"
        path.write_text(yaml.safe_dump(mapping))
        run_dir, stage_dir = tmp_path / "run", tmp_path / "stages"
        run_code = main(["run", "--scenario", str(path), "--out", str(run_dir)])
        assert main(["simulate", "--scenario", str(path), "--out", str(stage_dir)]) == 0
        assert main(["correlate", "--tags", str(stage_dir / "chain.ttag"),
                     "--out", str(stage_dir)]) == 0
        capsys.readouterr()
        fit_code = main(["fit", "--hist", str(stage_dir / "chain_g2.csv"),
                         "--out", str(stage_dir)])
        assert fit_code == run_code
        fit_out = capsys.readouterr().out

        assert (stage_dir / "chain_g2.csv").read_bytes() == \
            (run_dir / "chain_g2.csv").read_bytes()
        run_fit = json.loads((run_dir / "chain_fit.json").read_text())
        stage_fit = json.loads((stage_dir / "chain_g2_fit.json").read_text())
        for section in ("fit", "report", "context"):
            assert stage_fit[section] == run_fit[section], section
        assert run_fit["context"]["inversion"] == "model"
        assert run_fit["fit"]["converged"] is (run_code == 0)
        if run_code == 0:
            assert (run_dir / "chain_report.txt").read_text() in fit_out
        else:
            assert run_fit["fit"]["n_iterations"] == max_iterations
            assert not (run_dir / "chain_report.txt").exists()
