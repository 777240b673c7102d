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
with them.  They take the state y at the base control u, which the
caller has already solved, and the linearized state z = S'(u) v of the
direction v, which hessian_vec returns with its product, and start the
solve at a perturbed control u + s*v from the first-order prediction
y + s*z: the control-to-state map is differentiable, so that state lies
within O(s^2) of the solution where y alone lies within O(s), and Newton
needs about half the steps (z = 0 starts from y itself).  The start
stops at first order.  A second-order term would cost one more
linearized solve per direction and leave most solves with no Newton step
at all, so their J would be that of a prediction made from the
derivatives under test: on the README expression problem at level 6 it
let a da_dy 1e-6 off pass.  Every solve here still stops only on
||r||_h <= pde.DEFAULT_TOL for the true a, so a wrong z costs Newton
steps, not accuracy, and the quantity measured stays the same.  The
verdict on the differences is verification's.
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
) -> tuple[np.ndarray, np.ndarray]:
    """(H v, z): the reduced Hessian at (y, phi) applied to v, by disc's
    kept factor, and the linearized state z = S'(u) v its product solves,
    the first-order change of the state along v."""
    term, z, _ = disc.hessian_term(y, phi, v)
    return disc.spec.nu * v - term, z


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


def _step_objectives(disc, u, y, v, z, t, values) -> tuple[float, float]:
    """J(u + t v) and J(u - t v), each solved only if values lacks it,
    from the predicted state y + s z at step s.

    values maps a signed step s to J(u + s v); the new ones are added.
    """
    for s in (t, -t):
        if s not in values:
            # u + (-t) v is u - t v bit for bit
            values[s] = _fresh_objective(disc, u + s * v, y + s * z)
    return values[t], values[-t]


def fd_gradient_oracle(
    disc: Discretization,
    u: np.ndarray,
    y: np.ndarray,
    v: np.ndarray,
    z: np.ndarray,
    ts,
    values: dict[float, float],
) -> list[float]:
    """Central differences (J(u+tv) - J(u-tv)) / (2t), one per step t in ts.

    y is the state at u and z the linearized state S'(u) v; the solve at
    u + s v starts from y + s z.  values maps a signed step s to
    J(u + s v) for this u and v: a control found in it is not solved
    again, and each one solved is added, so the two oracles can share the
    steps they have in common.
    """
    out = []
    for t in ts:
        jp, jm = _step_objectives(disc, u, y, v, z, t, values)
        out.append((jp - jm) / (2.0 * t))
    return out


def fd_curvature_oracle(
    disc: Discretization,
    u: np.ndarray,
    y: np.ndarray,
    v: np.ndarray,
    z: np.ndarray,
    ts,
    values: dict[float, float],
) -> list[float]:
    """Second central differences (J(u+tv) - 2J(u) + J(u-tv)) / t^2 per t in ts.

    y is the state at u and z the linearized state S'(u) v; J(u) is
    solved once from y and shared by every step, and the solve at u + s v
    starts from y + s z.  values is shared as in fd_gradient_oracle.
    """
    j0 = _fresh_objective(disc, u, y)
    out = []
    for t in ts:
        jp, jm = _step_objectives(disc, u, y, v, z, t, values)
        out.append((jp - 2.0 * j0 + jm) / (t * t))
    return out

