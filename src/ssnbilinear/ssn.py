"""Outer semismooth Newton loop for the bilinear control problem.

The optimality system is the nonsmooth fixed-point equation

    F(u) = u - Proj_[alpha, beta]((1/nu) * y_u * phi_u) = 0.

Each outer iteration solves the state and adjoint equations, classifies
every node as upper-active (y*phi >= nu*beta), lower-active
(y*phi <= nu*alpha), or inactive, assigns the Newton correction directly
on the active sets (w = bound - u there), and solves the reduced
quadratic problem for the inactive components with a matrix-free
conjugate gradient method in the lumped L2 inner product.  One CG
operator application costs two linear PDE solves reusing the outer
iteration's factorization.

The loop stops when the scaled step norm

    delta_j = ||v_j|| / max(1, ||u_{j+1}||)

falls below the step floor max(outer_tol, 10*eps*n_nodes).  The second
term stands for eps times the condition number of Q, which grows like
h^-2, so the floor is a step size the iteration can actually reach on
every mesh.  A final state solve then gives the last logged row the
objective at the accepted control, as a convergence table should.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NegativeCurvatureError, SolverError
from .mesh import TriMesh
from .objective import _objective
from .pde import Discretization, LinearizedOperator, StateSolveReport
from .problem import ProblemSpec, validate


@dataclass(frozen=True, eq=False)
class ActiveSets:
    """Nodewise partition into upper-active, lower-active, and inactive."""

    upper: np.ndarray
    lower: np.ndarray
    inactive: np.ndarray


@dataclass(frozen=True)
class IterationRecord:
    """One row of the convergence table.

    The final row of a run reports only the objective of the accepted
    control (plus the warm-started Newton count of its state solve);
    delta, cg_iters, and measures are None there.
    """

    j: int
    J: float
    delta: float | None
    newton_iters: int
    cg_iters: int | None
    measures: tuple[float, float, float] | None


@dataclass(frozen=True)
class SSNConfig:
    """Tolerances and limits of the outer loop.

    max_cg = None means "number of nodes"; u0 = None means the zero
    control, and a scalar u0 is broadcast to a constant control.
    """

    outer_tol: float = 5e-14
    inner_tol: float = 5e-14
    max_outer: int = 30
    max_cg: int | None = None
    u0: np.ndarray | float | None = None

    def __post_init__(self):
        if not self.outer_tol > 0 or not self.inner_tol > 0:
            raise ConfigurationError("tolerances must be positive")
        if self.max_outer < 1:
            raise ConfigurationError("max_outer must be at least 1")

    def step_floor(self, n_nodes: int) -> float:
        """Step size the outer loop stops below: max(outer_tol, 10*eps*n).

        A solve with Q is accurate to about eps times its condition number,
        which grows like h^-2, i.e. like the node count n; smaller steps
        are rounding noise and cannot be reached reliably.
        """
        return max(self.outer_tol, 10.0 * float(np.finfo(float).eps) * n_nodes)


def optimality_residual(
    spec: ProblemSpec, u: np.ndarray, y: np.ndarray, phi: np.ndarray
) -> np.ndarray:
    """Nodewise F(u) = u - clamp(y*phi/nu, alpha, beta)."""
    return u - np.clip(y * phi / spec.nu, spec.alpha, spec.beta)


def classify(spec: ProblemSpec, y: np.ndarray, phi: np.ndarray) -> ActiveSets:
    """Partition nodes by y*phi against nu*beta and nu*alpha; ties go active."""
    yphi = y * phi
    upper = yphi >= spec.nu * spec.beta
    lower = yphi <= spec.nu * spec.alpha
    return ActiveSets(upper=upper, lower=lower, inactive=~(upper | lower))


def apply_Mj(
    spec: ProblemSpec,
    mesh: TriMesh,
    u: np.ndarray,
    y: np.ndarray,
    phi: np.ndarray,
    sets: ActiveSets,
    v: np.ndarray,
    disc: Discretization | None = None,
    operator: LinearizedOperator | None = None,
) -> np.ndarray:
    """CG operator: (1/nu) * reduced Hessian restricted to the inactive set.

    v is masked to the inactive set, z and eta are solved with load
    chi_I*v, and the result chi_I*(v - (phi*z + eta*y)/nu) is returned.
    """
    disc = disc if disc is not None else Discretization(spec, mesh)
    op = operator if operator is not None else disc.linearized_operator(u, y)
    vi = np.where(sets.inactive, v, 0.0)
    z = disc.solve_linearized_state(u, y, vi, operator=op)
    eta = disc.solve_linearized_adjoint(u, y, phi, z, vi, operator=op)
    return np.where(sets.inactive, vi - (phi * z + eta * y) / spec.nu, 0.0)


def cg_solve(
    apply,
    rhs: np.ndarray,
    tol: float,
    max_iters: int,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Conjugate gradients from a zero start, in a weighted inner product.

    Stops when the residual norm falls below tol times the right-hand
    side norm.  Nonpositive curvature is a hard error: the operator is
    expected to be positive definite on its subspace, and a violation is
    diagnostic information, not something to paper over.
    """
    w = weights if weights is not None else np.ones_like(rhs)

    def inner(a, b):
        return float(np.sum(w * a * b))

    x = np.zeros_like(rhs)
    target = np.sqrt(inner(rhs, rhs)) * tol
    r = rhs.copy()
    rho = inner(r, r)
    if np.sqrt(rho) <= target:
        return x, 0
    p = r.copy()
    for it in range(1, max_iters + 1):
        ap = apply(p)
        pap = inner(p, ap)
        if not pap > 0:
            raise NegativeCurvatureError(
                f"cg: nonpositive curvature {pap:.3e} at iteration {it}"
            )
        step = rho / pap
        x += step * p
        r -= step * ap
        rho_new = inner(r, r)
        if np.sqrt(rho_new) <= target:
            return x, it
        p = r + (rho_new / rho) * p
        rho = rho_new
    raise SolverError(f"cg: no convergence in {max_iters} iterations")


@dataclass
class _StepResult:
    u_next: np.ndarray
    record: IterationRecord
    y: np.ndarray
    phi: np.ndarray
    state: StateSolveReport


def _step(
    disc: Discretization,
    j: int,
    u: np.ndarray,
    cfg: SSNConfig,
    state: StateSolveReport,
) -> _StepResult:
    """Lines 4-11 of one outer iteration, given the state solve of line 3."""
    spec = disc.spec
    y = state.y
    jval = _objective(disc, u, y)
    op = disc.linearized_operator(u, y)
    phi = disc.solve_adjoint(u, y, operator=op)
    sets = classify(spec, y, phi)

    w = y * phi / spec.nu - u
    w[sets.upper] = spec.beta - u[sets.upper]
    w[sets.lower] = spec.alpha - u[sets.lower]

    w_active = np.where(sets.inactive, 0.0, w)
    z_a = disc.solve_linearized_state(u, y, w_active, operator=op)
    eta_a = disc.solve_linearized_adjoint(u, y, phi, z_a, w_active, operator=op)
    rhs = np.where(sets.inactive, w + (z_a * phi + y * eta_a) / spec.nu, 0.0)

    def apply(v):
        return apply_Mj(spec, disc.mesh, u, y, phi, sets, v, disc=disc, operator=op)

    max_cg = cfg.max_cg if cfg.max_cg is not None else disc.n_nodes
    v_inactive, cg_iters = cg_solve(
        apply, rhs, cfg.inner_tol, max_cg, weights=disc.weights
    )

    v = np.where(sets.inactive, v_inactive, w)
    u_next = u + v
    delta = disc.norm(v) / max(1.0, disc.norm(u_next))
    record = IterationRecord(
        j=j,
        J=jval,
        delta=delta,
        newton_iters=state.newton_iters,
        cg_iters=cg_iters,
        measures=(
            disc.measure(sets.upper),
            disc.measure(sets.lower),
            disc.measure(sets.inactive),
        ),
    )
    return _StepResult(u_next=u_next, record=record, y=y, phi=phi, state=state)


def _initial_control(cfg: SSNConfig, n: int) -> np.ndarray:
    if cfg.u0 is None:
        return np.zeros(n)
    u0 = np.asarray(cfg.u0, dtype=float)
    if u0.ndim == 0:
        return np.full(n, float(u0))
    if u0.shape != (n,):
        raise ConfigurationError(
            f"u0 must be scalar or one value per node ({n}), got shape {u0.shape}"
        )
    return u0.copy()


def ssn_step(
    spec: ProblemSpec,
    mesh: TriMesh,
    u: np.ndarray,
    cfg: SSNConfig | None = None,
    j: int = 0,
    y_init: np.ndarray | None = None,
    disc: Discretization | None = None,
) -> tuple[np.ndarray, IterationRecord]:
    """One full outer iteration from the control u."""
    cfg = cfg if cfg is not None else SSNConfig()
    disc = disc if disc is not None else Discretization(spec, mesh)
    state = disc.solve_state(u, y_init=y_init, tol=cfg.inner_tol)
    result = _step(disc, j, u, cfg, state)
    return result.u_next, result.record


def run_ssn(
    spec: ProblemSpec,
    mesh: TriMesh,
    cfg: SSNConfig | None = None,
    disc: Discretization | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[IterationRecord]]:
    """Run the outer loop to convergence; returns (u, y, phi, records).

    records holds one full row per outer iteration plus a final row with
    the objective of the accepted control.  Raises SolverError (carrying
    the records accumulated so far) when max_outer is exhausted.
    """
    cfg = cfg if cfg is not None else SSNConfig()
    violations = validate(spec)
    if violations:
        raise ConfigurationError("problem data invalid: " + "; ".join(violations))
    disc = disc if disc is not None else Discretization(spec, mesh)

    floor = cfg.step_floor(disc.n_nodes)
    u = _initial_control(cfg, disc.n_nodes)
    records: list[IterationRecord] = []
    y_warm: np.ndarray | None = None

    for j in range(cfg.max_outer):
        state = disc.solve_state(u, y_init=y_warm, tol=cfg.inner_tol)
        result = _step(disc, j, u, cfg, state)
        records.append(result.record)
        u, y_warm = result.u_next, result.y

        if result.record.delta < floor:
            final = disc.solve_state(u, y_init=y_warm, tol=cfg.inner_tol)
            records.append(
                IterationRecord(
                    j=j + 1,
                    J=_objective(disc, u, final.y),
                    delta=None,
                    newton_iters=final.newton_iters,
                    cg_iters=None,
                    measures=None,
                )
            )
            phi = disc.solve_adjoint(u, final.y)
            return u, final.y, phi, records

    raise SolverError(
        f"ssn: no convergence in {cfg.max_outer} outer iterations",
        history=records,
    )


@dataclass(frozen=True)
class ComplementarityReport:
    """Discrete measures of the bound-attainment sets of a solution.

    sigma is the measure of nodes where a bound is attained while the
    gradient nu*u - y*phi also vanishes (within tol_sigma); strict
    complementarity means sigma is (numerically) zero.
    """

    upper: float
    lower: float
    interior: float
    sigma: float
    tol_sigma: float


def complementarity_report(
    spec: ProblemSpec,
    mesh: TriMesh,
    u: np.ndarray,
    y: np.ndarray,
    phi: np.ndarray,
    tol_sigma: float = 1e-8,
    disc: Discretization | None = None,
) -> ComplementarityReport:
    disc = disc if disc is not None else Discretization(spec, mesh)
    at_upper = (
        np.abs(u - spec.beta) <= tol_sigma
        if np.isfinite(spec.beta)
        else np.zeros(len(u), dtype=bool)
    )
    at_lower = np.abs(u - spec.alpha) <= tol_sigma
    interior = ~(at_upper | at_lower)
    grad = spec.nu * u - y * phi
    sigma = (at_upper | at_lower) & (np.abs(grad) <= tol_sigma)
    return ComplementarityReport(
        upper=disc.measure(at_upper),
        lower=disc.measure(at_lower),
        interior=disc.measure(interior),
        sigma=disc.measure(sigma),
        tol_sigma=tol_sigma,
    )
