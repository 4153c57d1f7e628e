from __future__ import annotations

import re
import threading
from pathlib import Path

import pytest
from hypothesis import settings

from spphbt.kinetics import RateSet

# every property test draws the same examples on every run; each keeps its own max_examples
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

# One verdict line per acceptance criterion, filled in by test_acceptance.py
# and echoed after the test summary so a plain `pytest` run shows them.
ACCEPTANCE_LINES: dict[str, str] = {}


def record_criterion(label: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES[label] = f"[{status}] criterion {label}: {detail}"


def criterion_ids() -> set[str]:
    """The criterion of each test_criterion_<id>_* in test_acceptance.py."""
    source = (Path(__file__).parent / "test_acceptance.py").read_text()
    return set(re.findall(r"def test_criterion_(\w+?)_", source))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    lines = [ACCEPTANCE_LINES[k] for k in sorted(ACCEPTANCE_LINES)]
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
    # a subset run would cut the tracked report down to its own lines
    if {label.split()[0] for label in ACCEPTANCE_LINES} >= criterion_ids():
        (Path(config.rootpath) / "acceptance_report.txt").write_text("\n".join(lines) + "\n")


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread running: every block thread must be joined."""
    before = set(threading.enumerate())
    yield
    left = [thread for thread in threading.enumerate()
            if thread not in before and thread.is_alive()]
    assert not left, f"threads still running after the test: {left}"


@pytest.fixture(scope="session")
def silver_rates() -> RateSet:
    return RateSet.from_lifetimes(tau12=27.0, tau21=9.7, tau23=27.4, tau31=102.0)


@pytest.fixture(scope="session")
def glass_rates() -> RateSet:
    return RateSet.from_lifetimes(tau12=51.0, tau21=60.0, tau23=23.0, tau31=300.0)
