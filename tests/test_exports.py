"""Every exported name resolves, and the command line imports no test-only dependency."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import spphbt

MODULES = ["spphbt"] + sorted(f"spphbt.{m.name}" for m in pkgutil.iter_modules(spphbt.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_test_oracles_are_not_exported():
    # these serve only as references for the tests, which define them
    oracles = {"simulate_trajectory", "EmitterState", "swap_symmetry_check", "SymmetryViolation",
               "jacobian_check", "spp_ring_na", "SppRing", "g2_zero"}
    assert oracles.isdisjoint(spphbt.__all__)


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


def test_traced_bench_finds_every_name_it_wraps():
    # `bench/run.py --trace 1` wraps functions where spphbt's modules look them
    # up; a renamed or dropped name must fail here, not only in a traced run
    src = Path(spphbt.__file__).resolve().parent.parent
    code = "import time, tracing; tracing.install(tracing.Tracer(time.perf_counter))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(src.parent / "bench")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
