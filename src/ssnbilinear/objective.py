"""Reduced objective, gradient, Hessian-vector products, and FD oracles.

The reduced objective treats the state as a function of the control via
the PDE solve:

    J(u) = sum_i w_i * [L(x_i, y_i) + (nu/2) u_i^2],   y = y(u).

With lumped quadrature throughout, the discrete gradient has the exact
pointwise representation  grad(u) = nu*u - y*phi  (phi the adjoint state),
and a Hessian-vector product costs one linearized state solve plus one
linearized adjoint solve:

    H v = nu*v - (phi*z_v + y*eta_v).

The finite-difference functions are deliberately independent oracles:
they only ever call the nonlinear state solver and the objective sum, so
they validate the gradient and Hessian routes rather than sharing code
with them.  They take the state y at the base control u, which the caller
has already solved, and start every solve at a perturbed control u + t*v
from it: that state lies within O(t) of y, so Newton needs one or two
steps where a start from zero needs about five.  The solve still stops
only on ||r||_h <= tol, so the start moves each J only within what that
tolerance leaves open, and the quantity measured stays the same.
"""

import math
from dataclasses import dataclass

import numpy as np

from .pde import DEFAULT_TOL, Discretization, LinearizedOperator
from .problem import nodal


@dataclass
class ReducedEval:
    """One full evaluation of the reduced problem at a control u."""

    u: np.ndarray
    y: np.ndarray
    phi: np.ndarray
    J: float
    grad: np.ndarray
    operator: LinearizedOperator  # the factorization of Q(u, y)


def _objective(disc: Discretization, u: np.ndarray, y: np.ndarray) -> float:
    integrand = nodal(disc.spec.L, disc.x, y) + 0.5 * disc.spec.nu * u * u
    return float(np.sum(disc.weights * integrand))


def _hessian_term(
    disc: Discretization,
    y: np.ndarray,
    phi: np.ndarray,
    v: np.ndarray,
    operator: LinearizedOperator,
) -> np.ndarray:
    """phi*z_v + y*eta_v: the linearized state and adjoint solves for v."""
    z = disc.solve_linearized_state(y, v, operator=operator)
    eta = disc.solve_linearized_adjoint(y, phi, z, v, operator=operator)
    return phi * z + y * eta


def hessian_vec(
    disc: Discretization,
    y: np.ndarray,
    phi: np.ndarray,
    v: np.ndarray,
    operator: LinearizedOperator,
) -> np.ndarray:
    """Apply the reduced Hessian at the point of (y, phi, operator) to v."""
    return disc.spec.nu * v - _hessian_term(disc, y, phi, v, operator)


def evaluate_reduced(
    disc: Discretization, u: np.ndarray, tol: float = DEFAULT_TOL
) -> ReducedEval:
    """Solve state and adjoint at u and package J with its gradient."""
    report = disc.solve_state(u, tol=tol)
    y = report.y
    op = disc.linearized_operator(u, y)
    phi = disc.solve_adjoint(u, y, operator=op)
    return ReducedEval(
        u=u,
        y=y,
        phi=phi,
        J=_objective(disc, u, y),
        grad=disc.spec.nu * u - y * phi,
        operator=op,
    )


def _fresh_objective(
    disc: Discretization, u: np.ndarray, y_init: np.ndarray, tol: float
) -> float:
    """J(u) from a new state solve to tol, started at y_init."""
    report = disc.solve_state(u, y_init=y_init, tol=tol)
    return _objective(disc, u, report.y)


def fd_gradient_oracle(
    disc: Discretization,
    u: np.ndarray,
    y: np.ndarray,
    v: np.ndarray,
    ts,
    tol: float = DEFAULT_TOL,
) -> list[float]:
    """Central differences (J(u+tv) - J(u-tv)) / (2t), one per step t in ts.

    y is the state at u; every state solve starts from it.
    """
    return [
        (
            _fresh_objective(disc, u + t * v, y, tol)
            - _fresh_objective(disc, u - t * v, y, tol)
        )
        / (2.0 * t)
        for t in ts
    ]


def fd_curvature_oracle(
    disc: Discretization,
    u: np.ndarray,
    y: np.ndarray,
    v: np.ndarray,
    ts,
    tol: float = DEFAULT_TOL,
) -> list[float]:
    """Second central differences (J(u+tv) - 2J(u) + J(u-tv)) / t^2 per t in ts.

    y is the state at u; every state solve starts from it.  J(u) is
    solved once and shared by every step.
    """
    j0 = _fresh_objective(disc, u, y, tol)
    out = []
    for t in ts:
        jp = _fresh_objective(disc, u + t * v, y, tol)
        jm = _fresh_objective(disc, u - t * v, y, tol)
        out.append((jp - 2.0 * j0 + jm) / (t * t))
    return out


def fit_decay_order(
    ts, errors, floors=None, keep_above: float = 20.0
) -> float:
    """Least-squares slope of log(error) against log(t).

    Points whose error sits at or below keep_above times its estimated
    roundoff floor are excluded from the fit: once a difference quotient
    reaches the floor of double precision its size carries no information
    about the decay order.  If fewer than two points remain the sequence
    has decayed onto the floor everywhere, which dominates any finite
    order; math.inf is returned to signal that.
    """
    ts = np.asarray(ts, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if floors is None:
        floors = np.zeros_like(ts)
    else:
        floors = np.asarray(floors, dtype=float)
    mask = errors > keep_above * floors
    if np.count_nonzero(mask) < 2:
        return math.inf
    lt = np.log(ts[mask])
    le = np.log(np.maximum(errors[mask], 1e-300))
    slope = np.polyfit(lt, le, 1)[0]
    return float(slope)
