"""Every exported name resolves, the README's library example and command transcript
run as printed, the command line imports no test-only dependency, and the package and
its metadata agree on the version."""

from __future__ import annotations

import argparse
import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import spphbt
from spphbt import cli

MODULES = ["spphbt"] + sorted(f"spphbt.{m.name}" for m in pkgutil.iter_modules(spphbt.__path__))
README = Path(__file__).resolve().parent.parent / "README.md"
PYPROJECT = README.with_name("pyproject.toml")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert spphbt.__version__ == project["version"]


def test_test_oracles_are_not_exported():
    # these serve only as references for the tests, which define them
    oracles = {"simulate_trajectory", "EmitterState", "swap_symmetry_check", "SymmetryViolation",
               "jacobian_check", "spp_ring_na", "SppRing", "g2_zero"}
    exported = {n for name in MODULES
                for n in getattr(importlib.import_module(name), "__all__", ())}
    assert oracles.isdisjoint(exported)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # the documented imports must follow the API; the example writes no file
    text = README.read_text()
    code = text[text.index("```python\n") + len("```python\n"):]
    code = code[:code.index("```")]
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    assert "tau21 (ns)" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_readme_transcript_is_what_the_commands_print(tmp_path, monkeypatch, capsys):
    # each `$ spphbt ...` line of the README's transcript, run in an empty directory,
    # prints the lines under it byte for byte
    text = README.read_text()
    block = text[text.index("```text\n") + len("```text\n"):]
    block = block[:block.index("```")]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUT_ENV_VAR, raising=False)
    commands = block.split("$ spphbt ")[1:]
    assert [c.split()[0] for c in commands] == ["validate", "run", "fit"]
    for command in commands:
        argv, _, expected = command.partition("\n")
        assert cli.main(shlex.split(argv)) == 0, argv
        assert capsys.readouterr().out == expected.rstrip("\n") + "\n", argv


def test_readme_names_every_subcommand():
    # the first sentence of "Command line" names each subcommand in backticks
    text = README.read_text()
    section = text[text.index("## Command line"):]
    named = set(re.findall(r"`([a-z]+)`", section[:section.index(". ")])) - {"spphbt"}
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert named == set(subparsers.choices)


def modules_loaded_by_cli_import(package: str) -> str:
    """The modules of `package` that `import spphbt.cli` loads in a fresh interpreter."""
    code = ("import sys, spphbt.cli; "
            f"print(sorted(m for m in sys.modules if m == {package!r} or m.startswith({package + '.'!r})))")
    src = str(Path(spphbt.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test dependency only; the command line must start without it
    assert modules_loaded_by_cli_import("scipy") == "[]"


def test_cli_import_leaves_concurrent_futures_unloaded():
    # the ensemble sampler's threads need only `threading`; concurrent.futures
    # would add several ms to every command's start-up
    assert modules_loaded_by_cli_import("concurrent.futures") == "[]"


def traced_bench_env() -> dict:
    """The environment of a process that imports spphbt and bench/tracing.py."""
    src = Path(spphbt.__file__).resolve().parent.parent
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(src.parent / "bench")])}


def test_traced_bench_finds_every_name_it_wraps():
    # `bench/run.py --trace 1` wraps functions where spphbt's modules look them
    # up; a renamed or dropped name must fail here, not only in a traced run
    code = "import time, tracing; tracing.install(tracing.Tracer(time.perf_counter))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=traced_bench_env())
    assert out.returncode == 0, out.stderr


def test_traced_merge_is_the_one_the_program_calls(tmp_path):
    # the tracer wraps the merge under its old name, montecarlo.EventStream: if
    # the program merged by another name, `montecarlo.merge_s` would read 0
    scenario = tmp_path / "tiny.yaml"
    scenario.write_text("name: tiny\nrates: silver\nn_emitters: 3\nduration_ns: 1.0e6\n"
                        "seed: 7\nfiber_config: AB\ngeometry: fourier_default\n")
    code = ("import sys, time, tracing\n"
            "from spphbt import cli, correlator, montecarlo\n"
            "tracer = tracing.Tracer(time.perf_counter)\n"
            "tracing.install(tracer)\n"
            "assert cli.main(['simulate', '--scenario', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "print(montecarlo.EventStream is correlator.TimeTagStream)\n"
            "print(sum(span.name == 'montecarlo.merge' for span in tracer.spans))\n")
    out = subprocess.run([sys.executable, "-c", code, str(scenario), str(tmp_path / "out")],
                         capture_output=True, text=True, env=traced_bench_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-2:] == ["True", "1"]
