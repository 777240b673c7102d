"""State, adjoint, and linearized PDE solves.

Every equation here shares the operator

    Q(u, y) = K + diag(w * (da_dy(x, y) + u))

with K the stiffness matrix and w the lumped mass weights:

    state              K y + w*(a(x,y) + u*y) = b_g     (Newton on this)
    adjoint            Q phi = w * dL_dy(x, y)
    linearized state   Q z   = -w * y * v
    linearized adjoint Q eta = w * ((d2L_dy2 - phi*d2a_dy2)*z - phi*v)

Q is symmetric, and positive definite whenever da_dy + u > 0 at every
node, so one sparse direct factorization per (u, y) pair serves every
right-hand side of an outer iteration.  SuperLU factors Q in symmetric
mode: columns are ordered by multiple minimum degree on the pattern of
Q^T + Q (MMD_AT_PLUS_A), and the pivots are taken from the diagonal
(diag_pivot_thresh = 0).  Gaussian elimination on a symmetric positive
definite matrix is stable without row interchanges, so the symmetric
fill-reducing ordering is kept intact.  The nonlinear state equation is
solved by Newton's method with the exact Jacobian Q and residual-halving
damping; the residual is measured in the lumped L2 norm.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    assemble_boundary_load,
    assemble_lumped_mass,
    assemble_stiffness,
)
from .errors import SolverError
from .mesh import TriMesh
from .problem import ProblemSpec, nodal

DEFAULT_TOL = 5e-14
MAX_NEWTON = 50
MAX_HALVINGS = 30


class LinearizedOperator:
    """Factorized sparse operator K + diag(w*(da_dy(x,y) + u))."""

    def __init__(self, matrix: sp.spmatrix):
        try:
            self._lu = spla.splu(
                matrix.tocsc(),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:
            raise SolverError(f"linearized operator is singular: {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs)


@dataclass
class StateSolveReport:
    """Result of one nonlinear state solve."""

    y: np.ndarray
    newton_iters: int
    final_residual: float


class Discretization:
    """Assembled operators for one problem on one mesh.

    Building one of these is the expensive, reusable part of every solve;
    the module-level functions construct a transient instance, and the
    outer optimization loop keeps one alive for its whole run.
    """

    def __init__(self, spec: ProblemSpec, mesh: TriMesh):
        self.spec = spec
        self.mesh = mesh
        self.x = mesh.nodes
        self.stiffness = assemble_stiffness(mesh, spec.diffusion)
        self.weights = assemble_lumped_mass(mesh)
        self.boundary_load = assemble_boundary_load(mesh, spec.g)

    @property
    def n_nodes(self) -> int:
        return self.mesh.n_nodes

    def inner(self, f: np.ndarray, g: np.ndarray) -> float:
        return float(np.sum(self.weights * f * g))

    def norm(self, f: np.ndarray) -> float:
        return float(np.sqrt(np.sum(self.weights * f * f)))

    def measure(self, mask: np.ndarray) -> float:
        return float(np.sum(self.weights[mask]))

    def zeros(self) -> np.ndarray:
        return np.zeros(self.n_nodes)

    def state_residual(self, u: np.ndarray, y: np.ndarray) -> np.ndarray:
        ay = nodal(self.spec.a, self.x, y)
        return self.stiffness @ y + self.weights * (ay + u * y) - self.boundary_load

    def linearized_matrix(self, u: np.ndarray, y: np.ndarray) -> sp.csc_matrix:
        c = nodal(self.spec.da_dy, self.x, y) + u
        return (self.stiffness + sp.diags(self.weights * c)).tocsc()

    def linearized_operator(self, u: np.ndarray, y: np.ndarray) -> LinearizedOperator:
        return LinearizedOperator(self.linearized_matrix(u, y))

    def solve_state(
        self,
        u: np.ndarray,
        y_init: np.ndarray | None = None,
        tol: float = DEFAULT_TOL,
        max_newton: int = MAX_NEWTON,
    ) -> StateSolveReport:
        """Damped Newton iteration on the state equation.

        A full step that fails to reduce the lumped-L2 residual norm is
        halved, up to MAX_HALVINGS times; the last candidate is accepted
        if no halving helps, leaving non-convergence to the outer check.
        """
        if tol <= 0:
            raise SolverError(f"state solve tolerance must be positive, got {tol}")
        y = self.zeros() if y_init is None else np.array(y_init, dtype=float)
        r = self.state_residual(u, y)
        rnorm = self.norm(r)
        history = [rnorm]
        iters = 0
        while True:
            if not np.isfinite(rnorm):
                raise SolverError(
                    "state solve: residual is not finite", history=history
                )
            if rnorm <= tol:
                break
            if iters >= max_newton:
                raise SolverError(
                    f"state solve: no convergence in {max_newton} Newton "
                    f"iterations (residual {rnorm:.3e}, tol {tol:.3e})",
                    history=history,
                )
            step = self.linearized_operator(u, y).solve(-r)
            scale = 1.0
            for _ in range(MAX_HALVINGS + 1):
                y_new = y + scale * step
                r_new = self.state_residual(u, y_new)
                rnorm_new = self.norm(r_new)
                if rnorm_new < rnorm:
                    break
                scale *= 0.5
            y, r, rnorm = y_new, r_new, rnorm_new
            history.append(rnorm)
            iters += 1
        return StateSolveReport(y=y, newton_iters=iters, final_residual=rnorm)

    def solve_adjoint(
        self,
        u: np.ndarray,
        y: np.ndarray,
        operator: LinearizedOperator | None = None,
    ) -> np.ndarray:
        op = operator if operator is not None else self.linearized_operator(u, y)
        return op.solve(self.weights * nodal(self.spec.dL_dy, self.x, y))

    def solve_linearized_state(
        self,
        u: np.ndarray,
        y: np.ndarray,
        v: np.ndarray,
        operator: LinearizedOperator | None = None,
    ) -> np.ndarray:
        op = operator if operator is not None else self.linearized_operator(u, y)
        return op.solve(-(self.weights * y * v))

    def solve_linearized_adjoint(
        self,
        u: np.ndarray,
        y: np.ndarray,
        phi: np.ndarray,
        z: np.ndarray,
        v: np.ndarray,
        operator: LinearizedOperator | None = None,
    ) -> np.ndarray:
        op = operator if operator is not None else self.linearized_operator(u, y)
        curv = nodal(self.spec.d2L_dy2, self.x, y) - phi * nodal(
            self.spec.d2a_dy2, self.x, y
        )
        return op.solve(self.weights * (curv * z - phi * v))


def solve_state(
    spec: ProblemSpec,
    mesh: TriMesh,
    u: np.ndarray,
    y_init: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
    max_newton: int = MAX_NEWTON,
) -> StateSolveReport:
    return Discretization(spec, mesh).solve_state(u, y_init, tol, max_newton)


def solve_adjoint(
    spec: ProblemSpec, mesh: TriMesh, u: np.ndarray, y: np.ndarray
) -> np.ndarray:
    return Discretization(spec, mesh).solve_adjoint(u, y)


def solve_linearized_state(
    spec: ProblemSpec, mesh: TriMesh, u: np.ndarray, y: np.ndarray, v: np.ndarray
) -> np.ndarray:
    return Discretization(spec, mesh).solve_linearized_state(u, y, v)


def solve_linearized_adjoint(
    spec: ProblemSpec,
    mesh: TriMesh,
    u: np.ndarray,
    y: np.ndarray,
    phi: np.ndarray,
    z: np.ndarray,
    v: np.ndarray,
) -> np.ndarray:
    return Discretization(spec, mesh).solve_linearized_adjoint(u, y, phi, z, v)
