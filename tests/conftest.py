"""Shared fixtures; solver-heavy ones are session scoped."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import settings

from ssnbilinear import Discretization, benchmark_instance, build_uniform_mesh, run_ssn
from ssnbilinear.problem import nodal

# Solver-backed property tests are not wall-clock uniform; disable deadlines.
settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")


def linearized_matrix(disc, u, y):
    """Q(u, y) = K + diag(w*(da_dy(x, y) + u)) in CSC, assembled as disc
    assembles it, so factors of it match disc's bit for bit."""
    d = disc.weights * (nodal(disc.spec.da_dy, disc.x, y) + u)
    return (disc.stiffness + sp.diags(d)).tocsc()


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
def zero_state3(disc3):
    """The zero control on level 3 and its state."""
    u = np.zeros(disc3.n_nodes)
    return u, disc3.solve_state(u).y


@pytest.fixture
def base_state3(disc3, zero_state3):
    """Control, state and adjoint at the zero control on level 3.

    disc3 keeps the factorization of Q there, which its linearized solves
    and Hessian products use.
    """
    u, y = zero_state3
    disc3.release_factorization()
    return u, y, disc3.solve_adjoint(u, y)
