"""State, adjoint, and linearized PDE solves.

Every equation here shares the operator

    Q(u, y) = K + diag(w * (da_dy(x, y) + u))

with K the stiffness matrix and w the lumped mass weights:

    state              K y + w*(a(x,y) + u*y) = b_g     (Newton on this)
    adjoint            Q phi = w * dL_dy(x, y)
    linearized state   Q z   = -w * y * v
    linearized adjoint Q eta = w * ((d2L_dy2 - phi*d2a_dy2)*z - phi*v)

Q is symmetric, and positive definite whenever da_dy + u > 0 at every
node.  Every solve with Q goes through the Discretization, which keeps
at most one sparse direct factorization of it.  The linearized state and
adjoint solves come in pairs, one pair per reduced Hessian product (of
the outer loop's CG and of `verify`), and Discretization.hessian_term
makes each pair by the kept factor, whatever Q it was made for; a
caller that wants the Q at (u, y) releases the factor and makes one
solve at (u, y), which factors that Q.  The outer loop does so only in
its first steps and keeps the factor through the later ones, and on a
level started from a coarser one its first step keeps the one the state
solve's first Newton step made (see ssn).
Every other solve (each state Newton step and each adjoint) is a one-off
solve.  With a factor kept it runs matrix-free preconditioned CG,
applying Q as K p + d*p with d = w*(da_dy + u), preconditioned by the
kept factor; with none it factors Q, solves directly and keeps the
factor.  Both matrices share K and the lumped diagonal c = da_dy + u > 0,
so the preconditioned operator's condition number is at most
max(c/c0) / min(c/c0), c0 the preconditioner's diagonal.  A
Newton step's PCG starts from zero; an adjoint's starts from phi_init
when the caller has one (the outer loop passes the adjoint its last step
predicted, see ssn), and zero otherwise.  The stop is the same from any
start, a residual of at most rtol times that of the zero start, ||rhs||,
and a start that meets it costs no preconditioner application.

These one-off solves and the outer loop's reduced system (ssn) run the
same conjugate-gradient routine, cg_solve, which returns only a
converged iterate: nonpositive curvature raises NegativeCurvatureError,
and a nonfinite value or an exhausted budget raises SolverError.  The
outer loop passes either on.  A one-off solve catches it (PCG_MAX_ITERS
is its budget), drops the old factor, then assembles, factors and
solves Q directly instead, and keeps that factor.

SuperLU factors Q in symmetric mode: columns are ordered by multiple
minimum degree on the pattern of Q^T + Q (MMD_AT_PLUS_A), and the pivots
are taken from the diagonal (diag_pivot_thresh = 0).  Gaussian
elimination on a symmetric positive definite matrix is stable without
row interchanges, so the symmetric fill-reducing ordering is kept
intact.  The LU is a run's memory peak, so Q is assembled beside it with
nothing but its values: a copy of K's data with d added at K's diagonal,
wrapped as CSC on K's own index arrays (K is exactly symmetric, so its
CSR arrays are its CSC arrays too).

The nonlinear state equation is solved by an inexact Newton method with
the exact Jacobian Q and residual-halving damping; the residual is
measured in the lumped L2 norm.  Step k moves y along -s, where s solves
Q s = r_k by PCG only to the relative 2-norm residual

    eta_k = max(PCG_RTOL, min(NEWTON_ETA_MAX, max(rho_k^2, c*tol/||r_k||_h))),
    rho_k = ||r_k||_h / ||r_0||_h,  c = NEWTON_TOL_SHARE = 0.1,

from forcing_term, which the outer semismooth Newton loop uses for its CG
too (see ssn).

The term rho_k^2 is bounded by a multiple of ||r_k||_h, which keeps the
local q-quadratic rate of exact Newton (Dembo, Eisenstat, Steihaug, SIAM
J. Numer. Anal. 19 (1982); Eisenstat, Walker, SIAM J. Sci. Comput. 17
(1996)).  The term c*tol/||r_k||_h stops a step from solving far below
the absolute target: the lumped weights are at least h^2/6, so the
linear residual it leaves adds at most sqrt(6)*c*tol < tol/4 in ||.||_h.
The loop stops only on ||r||_h <= tol.  A step of length scale
(1, 1/2, ..., 2^-MAX_HALVINGS) is accepted once it lowers ||r||_h by the
factor 1 - SUFFICIENT_DECREASE, whatever its length.  Along a Newton
step ||r||_h falls by about scale * ||r||_h while that is well above
the rounding floor (4e-16 to 6.7e-16 on the benchmark), so steps down to
about 2 * SUFFICIENT_DECREASE pass.  The Armijo factor
1 - SUFFICIENT_DECREASE * scale would go to 1 with the halvings: at the
floor, steps of length 2^-7 to 2^-10 lower the computed ||r||_h by
rounding creep of 1e-6 to 3e-5 relative, which it takes for progress.
A step that no halving makes lower the residual by the fixed factor
raises SolverError (the line search of Kelley, Iterative Methods for
Linear and Nonlinear Equations, SIAM 1995, ch. 8, fails), so a state
solve converges or raises; a tol below the floor raises there.  The
adjoint solves are not Newton steps and run to PCG_RTOL.
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
from .errors import NegativeCurvatureError, SolverError
from .mesh import TriMesh
from .problem import ProblemSpec, nodal

DEFAULT_TOL = 5e-14
MAX_NEWTON = 50
MAX_HALVINGS = 30
# A factorization of Q costs about 28 (level 6) to 46 (level 8) iterations
# of preconditioned CG, so a PCG attempt that runs out wastes about one
# factorization.  The one-off solves of `run` and `verify` take at most 17.
PCG_MAX_ITERS = 30
PCG_RTOL = 1e-13
# SuperLU's panel width (its default is 8).  Narrower panels factor Q about
# 20% faster at levels 7-8 and 15% at level 9, with a smaller panel
# workspace; the ordering and the pivots, and so nnz(L+U), are unchanged.
SPLU_PANEL_SIZE = 4
# The loosest relative residual a state Newton step is solved to: the
# forcing term eta_k = (||r_k|| / ||r_0||)^2 keeps Newton q-quadratic.
NEWTON_ETA_MAX = 1e-2
# The share of the target tol the linear residual of a Newton step may leave.
NEWTON_TOL_SHARE = 0.1
# A damped state Newton step of any length is accepted only if it lowers
# ||r||_h by the factor 1 - SUFFICIENT_DECREASE.
SUFFICIENT_DECREASE = 1e-4


def forcing_term(rate: float, rnorm: float, target: float, eta_max: float) -> float:
    """Relative tolerance of the linear solve in an inexact Newton step.

    eta = max(PCG_RTOL, min(eta_max, max(rate, target/rnorm))): rate falls
    superlinearly with the nonlinear residual rnorm, which keeps the
    Newton rate; target/rnorm stops a step from leaving a linear residual
    far below target, a share of the nonlinear target that suffices.
    PCG_RTOL, the tolerance of the one-off solves, is the floor.
    """
    return max(PCG_RTOL, min(eta_max, max(rate, target / rnorm)))


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """The plain dot product a.b, summed in one order whatever the BLAS
    thread count (OpenBLAS's ddot splits its sum between threads, so
    np.dot's last digits would depend on OPENBLAS_NUM_THREADS)."""
    return np.einsum("i,i->", a, b)


class LinearizedOperator:
    """Factorized sparse operator K + diag(w*(da_dy(x,y) + u))."""

    def __init__(self, matrix: sp.csc_matrix):
        try:
            self._lu = spla.splu(
                matrix,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                panel_size=SPLU_PANEL_SIZE,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:
            raise SolverError(f"linearized operator is singular: {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs)


def cg_solve(
    apply,
    rhs: np.ndarray,
    tol: float,
    max_iters: int,
    inner=dot,
    precondition=None,
    x0: np.ndarray | None = None,
    on_step=None,
) -> tuple[np.ndarray, int]:
    """Preconditioned conjugate gradients from x0; returns (x, iterations).

    apply and precondition must be symmetric positive definite in the
    inner product inner (by default the plain dot product, dot); without a
    preconditioner z = r.  Converged means
    sqrt(inner(r, r)) <= tol * sqrt(inner(rhs, rhs)) for the residual
    r = rhs - apply(x) within max_iters iterations; the target does not
    depend on the start, and a start that meets it is returned after 0
    iterations.  x0 = None starts from zero without applying the operator.
    on_step(step), when given, is called after each update x += step * p,
    p the direction of the latest apply, so a caller can sum what its
    apply computed for p alongside x.  No other iterate is returned:
    nonpositive curvature raises NegativeCurvatureError, and a nonfinite
    value or an exhausted budget raises SolverError.
    """
    if x0 is None:
        x = np.zeros_like(rhs)
        r = rhs.copy()
    else:
        x = np.array(x0, dtype=float)
        r = rhs - apply(x)
    target = tol * np.sqrt(inner(rhs, rhs))
    rr = inner(r, r)
    if np.sqrt(rr) <= target:
        return x, 0
    z = r if precondition is None else precondition(r)
    rz = rr if precondition is None else inner(r, z)
    p = z.copy()
    for it in range(1, max_iters + 1):
        ap = apply(p)
        pap = inner(p, ap)
        if not (np.isfinite(rz) and np.isfinite(pap)):
            raise SolverError(f"cg: nonfinite value at iteration {it}")
        if pap <= 0:
            raise NegativeCurvatureError(
                f"cg: nonpositive curvature {pap:.3e} at iteration {it}"
            )
        step = rz / pap
        x += step * p
        if on_step is not None:
            on_step(step)
        r -= step * ap
        rr = inner(r, r)
        if np.sqrt(rr) <= target:
            return x, it
        z = r if precondition is None else precondition(r)
        rz_new = rr if precondition is None else inner(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(f"cg: no convergence in {max_iters} iterations")


@dataclass
class StateSolveReport:
    """Result of one nonlinear state solve."""

    y: np.ndarray
    newton_iters: int


class Discretization:
    """Assembled operators for one problem on one mesh.

    Every solve, objective evaluation and outer loop goes through one
    instance, which the outer loop keeps alive for its whole run.

    The instance keeps its most recent factorization, which solves the
    linearized state and adjoint of hessian_term and preconditions one-off
    solves (at most one is kept; release_factorization drops it).
    hessian_term and _solve_once are the only code that solves with it.
    It counts the factorizations it makes in factor_count, the
    preconditioner applications of its PCG solves in pcg_count and the
    accepted state Newton steps in newton_count.
    """

    def __init__(self, spec: ProblemSpec, mesh: TriMesh):
        self.spec = spec
        self.mesh = mesh
        self.x = mesh.nodes
        self.stiffness = assemble_stiffness(mesh, spec.diffusion)
        self.weights = assemble_lumped_mass(mesh)
        self.boundary_load = assemble_boundary_load(mesh, spec.g)
        # where K stores its diagonal (one entry per row, never zero), in
        # K's index type: it is alive while every Q is factored
        k = self.stiffness
        rows = np.arange(self.n_nodes, dtype=k.indices.dtype)
        rows = np.repeat(rows, np.diff(k.indptr))
        self._diagonal = np.flatnonzero(k.indices == rows).astype(k.indptr.dtype)
        self.factor_count = 0
        self.pcg_count = 0
        self.newton_count = 0
        self._last_factor: LinearizedOperator | None = None

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

    def _reaction(self, u: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The diagonal w*(da_dy(x, y) + u) that Q(u, y) adds to K."""
        return self.weights * (nodal(self.spec.da_dy, self.x, y) + u)

    def _matrix(self, d: np.ndarray) -> sp.csc_matrix:
        """Q = K + diag(d) in CSC, on K's own index arrays.

        K is exactly symmetric, with sorted indices and no stored zeros,
        so its CSR arrays are its CSC arrays too; Q's data is a copy of
        K's with d added at the diagonal.  The result is (K +
        sp.diags(d)).tocsc() bit for bit while every K_ii + d_i is nonzero.
        """
        k = self.stiffness
        data = k.data.copy()
        data[self._diagonal] += d
        return sp.csc_matrix((data, k.indices, k.indptr), shape=k.shape)

    @property
    def kept_factor(self) -> LinearizedOperator | None:
        """The most recent factorization, or None once released."""
        return self._last_factor

    def _factor(self, matrix: sp.csc_matrix) -> LinearizedOperator:
        self._last_factor = None  # let the old LU go before the new one exists
        self._last_factor = LinearizedOperator(matrix)
        self.factor_count += 1
        return self._last_factor

    def add_work(self, other: "Discretization") -> None:
        """Add other's work counters to this one's (a solve made for it)."""
        self.factor_count += other.factor_count
        self.pcg_count += other.pcg_count
        self.newton_count += other.newton_count

    def release_factorization(self) -> None:
        """Drop the kept factorization; the next one-off solve factors."""
        self._last_factor = None

    def _solve_once(
        self,
        u: np.ndarray,
        y: np.ndarray,
        rhs: np.ndarray,
        rtol: float = PCG_RTOL,
        x0: np.ndarray | None = None,
    ) -> np.ndarray:
        """Q(u, y) x = rhs for one right-hand side, to relative residual rtol.

        Matrix-free PCG (Q p = K p + d*p) from x0 (zero if None),
        preconditioned by the kept factorization; Q is assembled and
        factored only when there is no kept factor or cg_solve raises, so
        no unconverged iterate escapes.  The direct solve ignores x0, and
        the new factor is kept in place of the old one.
        """
        d = self._reaction(u, y)
        factor = self._last_factor
        if factor is not None:

            def precondition(r):
                self.pcg_count += 1
                return factor.solve(r)

            try:
                x, _ = cg_solve(
                    lambda p: self.stiffness @ p + d * p,
                    rhs,
                    rtol,
                    PCG_MAX_ITERS,
                    precondition=precondition,
                    x0=x0,
                )
                return x
            except SolverError:  # NegativeCurvatureError too: factor instead
                # precondition holds the old LU too: let it go before the
                # new one is built
                factor = None
        matrix = self._matrix(d)
        del d  # the LU is the memory peak: d need not be alive beside it
        return self._factor(matrix).solve(rhs)

    def solve_state(
        self,
        u: np.ndarray,
        y_init: np.ndarray | None = None,
        tol: float = DEFAULT_TOL,
    ) -> StateSolveReport:
        """Inexact damped Newton iteration on the state equation.

        Step k solves Q s = r_k only to the relative 2-norm residual
        eta_k of the module docstring and moves y to y - scale*s; y_init
        is never written to.  A step that fails the sufficient
        decrease of the lumped-L2 residual norm is halved, up to
        MAX_HALVINGS times.  A tol that is not positive and finite raises
        SolverError before any work; a nonfinite residual, a step that no
        halving makes pass, or MAX_NEWTON steps without ||r||_h <= tol
        raise it with the accepted residuals as its history.
        """
        if not 0 < tol < np.inf:
            raise SolverError(
                f"state solve tolerance must be positive and finite, got {tol}"
            )
        y = self.zeros() if y_init is None else np.asarray(y_init, dtype=float)
        r = self.state_residual(u, y)
        rnorm = rnorm0 = self.norm(r)
        history = [rnorm]
        iters = 0
        while True:
            if not np.isfinite(rnorm):
                raise SolverError(
                    "state solve: residual is not finite", history=history
                )
            if rnorm <= tol:
                break
            if iters >= MAX_NEWTON:
                raise SolverError(
                    f"state solve: no convergence in {MAX_NEWTON} Newton "
                    f"iterations (residual {rnorm:.3e}, tol {tol:.3e})",
                    history=history,
                )
            eta = forcing_term(
                (rnorm / rnorm0) ** 2, rnorm, NEWTON_TOL_SHARE * tol, NEWTON_ETA_MAX
            )
            step = self._solve_once(u, y, r, eta)
            scale = 1.0
            for _ in range(MAX_HALVINGS + 1):
                y_new = y - scale * step
                r_new = self.state_residual(u, y_new)
                rnorm_new = self.norm(r_new)
                if rnorm_new <= (1.0 - SUFFICIENT_DECREASE) * rnorm:
                    break
                scale *= 0.5
            else:
                raise SolverError(
                    f"state solve: no step length down to 2^-{MAX_HALVINGS} "
                    f"lowers the residual in Newton step {iters + 1} "
                    f"(residual {rnorm:.3e}, tol {tol:.3e})",
                    history=history,
                )
            y, r, rnorm = y_new, r_new, rnorm_new
            history.append(rnorm)
            iters += 1
            self.newton_count += 1
        return StateSolveReport(y=y, newton_iters=iters)

    def solve_adjoint(
        self,
        u: np.ndarray,
        y: np.ndarray,
        phi_init: np.ndarray | None = None,
    ) -> np.ndarray:
        """Q(u, y) phi = w * dL_dy(x, y), a one-off solve from phi_init.

        Its PCG starts from phi_init (zero if None); its stop, a relative
        residual of PCG_RTOL, does not depend on the start.  With no factor
        kept it factors Q(u, y) and keeps that factor.
        """
        rhs = self.weights * nodal(self.spec.dL_dy, self.x, y)
        return self._solve_once(u, y, rhs, x0=phi_init)

    def hessian_term(
        self, y: np.ndarray, phi: np.ndarray, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(phi*z + y*eta, z, eta): the linearized state z and adjoint eta
        of the direction v (see the module docstring), solved by the kept
        factor, and the term the reduced Hessian subtracts from nu*v."""
        factor = self._last_factor
        if factor is None:
            raise SolverError("linearized solve: no factorization is kept")
        z = factor.solve(-(self.weights * y * v))
        curv = nodal(self.spec.d2L_dy2, self.x, y) - phi * nodal(
            self.spec.d2a_dy2, self.x, y
        )
        eta = factor.solve(self.weights * (curv * z - phi * v))
        return phi * z + y * eta, z, eta
