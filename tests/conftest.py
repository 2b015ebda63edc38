"""Shared test plumbing: acceptance-criterion result reporting, and a
fixture that forces the Python RK4 kernel."""

import pytest

from tailsim import scenarios, sim

CRITERION_RESULTS: list[str] = []


def record_criterion(line: str) -> None:
    """Register one acceptance pass/fail line for the terminal summary."""
    CRITERION_RESULTS.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if CRITERION_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture
def python_kernel(monkeypatch):
    """Force the Python RK4 kernel, :func:`tailsim.sim.advance`, into
    ``sim.step`` and the run loop, in place of the compiled one that import may
    have loaded."""
    monkeypatch.setattr(sim, "rk4", sim.advance)
    monkeypatch.setattr(scenarios, "step", sim.advance)
