"""Reduced objective, gradient, Hessian-vector products, and FD oracles.

The reduced objective treats the state as a function of the control via
the PDE solve:

    J(u) = sum_i w_i * [L(x_i, y_i) + (nu/2) u_i^2],   y = y(u).

With lumped quadrature throughout, the discrete gradient has the exact
pointwise representation  grad(u) = nu*u - y*phi  (phi the adjoint state),
and a Hessian-vector product costs one linearized state solve plus one
linearized adjoint solve, the pair Discretization.hessian_term makes:

    H v = nu*v - (phi*z_v + y*eta_v).

Both are solved by the factorization the Discretization keeps, so the
product is the Hessian at u while that is the factor of Q(u, y), as
evaluate_reduced leaves it.

The finite-difference functions are deliberately independent oracles:
they only ever call the nonlinear state solver and the objective sum, so
they validate the gradient and Hessian routes rather than sharing code
with them.  They take the state y at the base control u, which the caller
has already solved, and start every solve at a perturbed control u + t*v
from it: that state lies within O(t) of y, so Newton needs one or two
steps where a start from zero needs about five.  Every solve here still
stops only on ||r||_h <= pde.DEFAULT_TOL, so the start moves each J only
within what that tolerance leaves open, and the quantity measured stays
the same.  The verdict on the differences is verification's.
"""

from dataclasses import dataclass

import numpy as np

from .pde import Discretization
from .problem import nodal


@dataclass
class ReducedEval:
    """One full evaluation of the reduced problem at a control u.

    The Discretization it was made on keeps the factorization of Q(u, y),
    so hessian_vec(disc, y, phi, v) is the Hessian at u until a solve on
    disc replaces that factor.
    """

    u: np.ndarray
    y: np.ndarray
    phi: np.ndarray
    J: float
    grad: np.ndarray


def _objective(disc: Discretization, u: np.ndarray, y: np.ndarray) -> float:
    integrand = nodal(disc.spec.L, disc.x, y) + 0.5 * disc.spec.nu * u * u
    return float(np.sum(disc.weights * integrand))


def hessian_vec(
    disc: Discretization, y: np.ndarray, phi: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Apply the reduced Hessian at (y, phi) to v, by disc's kept factor."""
    return disc.spec.nu * v - disc.hessian_term(y, phi, v)[0]


def evaluate_reduced(disc: Discretization, u: np.ndarray) -> ReducedEval:
    """Solve state and adjoint at u and package J with its gradient.

    The adjoint factors Q(u, y) afresh and disc keeps that factor, so the
    Hessian products that follow are those at u.
    """
    y = disc.solve_state(u).y
    disc.release_factorization()
    phi = disc.solve_adjoint(u, y)
    return ReducedEval(
        u=u,
        y=y,
        phi=phi,
        J=_objective(disc, u, y),
        grad=disc.spec.nu * u - y * phi,
    )


def _fresh_objective(disc: Discretization, u: np.ndarray, y_init: np.ndarray) -> float:
    """J(u) from a new state solve, started at y_init."""
    report = disc.solve_state(u, y_init=y_init)
    return _objective(disc, u, report.y)


def fd_gradient_oracle(
    disc: Discretization, u: np.ndarray, y: np.ndarray, v: np.ndarray, ts
) -> list[float]:
    """Central differences (J(u+tv) - J(u-tv)) / (2t), one per step t in ts.

    y is the state at u; every state solve starts from it.
    """
    return [
        (_fresh_objective(disc, u + t * v, y) - _fresh_objective(disc, u - t * v, y))
        / (2.0 * t)
        for t in ts
    ]


def fd_curvature_oracle(
    disc: Discretization, u: np.ndarray, y: np.ndarray, v: np.ndarray, ts
) -> list[float]:
    """Second central differences (J(u+tv) - 2J(u) + J(u-tv)) / t^2 per t in ts.

    y is the state at u; every state solve starts from it.  J(u) is
    solved once and shared by every step.
    """
    j0 = _fresh_objective(disc, u, y)
    out = []
    for t in ts:
        jp = _fresh_objective(disc, u + t * v, y)
        jm = _fresh_objective(disc, u - t * v, y)
        out.append((jp - 2.0 * j0 + jm) / (t * t))
    return out

