"""Shared fixtures: session-scoped simulation runs.

Most behavioural tests need a realistic ticket stream; simulating one
per test would dominate runtime, so two canonical runs are built once
per session:

* ``tiny_run`` — a few racks, four months; fast, for structural tests.
* ``small_run`` — quarter scale, eighteen months; statistically stable
  enough for calibration and ground-truth-recovery assertions.

The whole-repo ``repro lint`` run is shared the same way
(``repo_lint_report``).
"""

from __future__ import annotations

import pytest

import repro
from repro.reporting import AnalysisContext
from repro.staticcheck import LintReport, lint_paths, load_baseline


@pytest.fixture(scope="session")
def tiny_run() -> repro.SimulationResult:
    """A minimal but non-degenerate simulation."""
    return repro.simulate(repro.SimulationConfig.small(seed=11, scale=0.05, n_days=120))


@pytest.fixture(scope="session")
def small_run() -> repro.SimulationResult:
    """A statistically meaningful simulation (shared, do not mutate)."""
    return repro.simulate(repro.SimulationConfig.small(seed=3, scale=0.25, n_days=540))


@pytest.fixture(scope="session")
def small_context(small_run) -> AnalysisContext:
    """Cached analysis context over ``small_run``."""
    return AnalysisContext(small_run)


@pytest.fixture(scope="session")
def repo_lint_report() -> LintReport:
    """One whole-repo lint run against the committed baseline.

    Tests that only read whole-repo findings filter this report by rule
    instead of linting the tree again; tests of option handling (rule
    filters, the CLI) keep their own runs.
    """
    return lint_paths(baseline=load_baseline())
