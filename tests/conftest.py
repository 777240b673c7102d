"""Shared fixtures; solver-heavy ones are session scoped."""

import numpy as np
import pytest
from hypothesis import settings

from ssnbilinear import Discretization, benchmark_instance, build_uniform_mesh, run_ssn

# Solver-backed property tests are not wall-clock uniform; disable deadlines.
settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def bench():
    return benchmark_instance()


@pytest.fixture(scope="session")
def disc3(bench):
    return Discretization(bench, build_uniform_mesh(3))


@pytest.fixture(scope="session")
def solved3(disc3):
    """Converged benchmark solution on the level-3 mesh."""
    return run_ssn(disc3)


@pytest.fixture(scope="session")
def base_state3(bench, disc3):
    """State, adjoint, and operator at the zero control on level 3."""
    u = np.zeros(disc3.n_nodes)
    report = disc3.solve_state(u)
    op = disc3.linearized_operator(u, report.y)
    phi = disc3.solve_adjoint(u, report.y, operator=op)
    return u, report.y, phi, op
