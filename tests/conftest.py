"""Shared fixtures: benchmark problems are session-scoped because building
one regenerates its reference trajectory.  Also prints the acceptance
scoreboard (one line per criterion) after the run."""

import re

import numpy as np
import pytest

from ekinode import nnet, problems

# test_acceptance.py deposits measured numbers here, keyed by criterion.
ACCEPTANCE_DETAILS: dict = {}

_CRITERION = re.compile(r"test_criterion_(\d+)")
_criterion_outcomes: dict = {}


def pytest_runtest_logreport(report):
    match = _CRITERION.search(report.nodeid)
    if match is not None and report.when == "call":
        _criterion_outcomes[int(match.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_criterion_outcomes):
        verdict = "PASS" if _criterion_outcomes[num] == "passed" else "FAIL"
        detail = ACCEPTANCE_DETAILS.get(num, "")
        terminalreporter.write_line(f"criterion {num:2d}: {verdict}  {detail}".rstrip())


@pytest.fixture(scope="session")
def spiral_problem():
    return problems.make_sysid_problem("spiral", np.random.default_rng(0))


@pytest.fixture(scope="session")
def pendulum_problem():
    return problems.make_sysid_problem("pendulum", np.random.default_rng(1))


@pytest.fixture(scope="session")
def control_problem():
    return problems.ControlProblem()


@pytest.fixture(scope="session")
def small_spiral():
    # Short horizon and a slim net keep finite-difference sweeps cheap.
    return problems.make_sysid_problem(
        "spiral",
        np.random.default_rng(7),
        grid_size=40,
        t_final=2.0,
        num_subsets=2,
        subset_length=5,
        net=nnet.MlpSpec((2, 4, 2), "tanh"),
    )
