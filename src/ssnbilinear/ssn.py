"""Outer semismooth Newton loop for the bilinear control problem.

The optimality system is the nonsmooth fixed-point equation

    F(u) = u - Proj_[alpha, beta]((1/nu) * y_u * phi_u) = 0.

Each outer iteration solves the state and adjoint equations, classifies
every node as upper-active (y*phi >= nu*beta), lower-active
(y*phi <= nu*alpha), or inactive, assigns the Newton correction directly
on the active sets (w = bound - u there), and solves the reduced
quadratic problem for the inactive components with a matrix-free
conjugate gradient method in the lumped L2 inner product: pde.cg_solve
with inner = Discretization.inner, the routine the one-off PDE solves
run too.  Its typed failures reach the caller: NegativeCurvatureError
when the reduced Hessian is not positive definite on the inactive set,
SolverError on a nonfinite value or an exhausted max_cg budget.  One CG
operator application costs two linear PDE solves with a factorization
of the operator Q(u, y) of the linearized equations (see pde).

Q(u_j, y_j) is factored afresh only at j = 0 and after a scaled step
delta_{j-1} of at least REFACTOR_STEP.  Once the steps are small u hardly
moves, and a later step keeps the factor of the last large one for the
right-hand side's Hessian term and for every CG product (the chord or
Shamanskii idea; Kelley, Iterative Methods for Linear and Nonlinear
Equations, SIAM 1995, ch. 5).  The adjoint, and with it F(u) and the
active sets, is still solved against the current Q by one-off PCG, so
the stale factor only makes the step an inexact semismooth Newton step
whose error shrinks with the previous step, which keeps the superlinear
rate (Ulbrich, Semismooth Newton Methods for Variational Inequalities
and Constrained Optimization Problems in Function Spaces, SIAM 2011).
CG stays valid with the stale factor: the Hessian term it applies is
symmetric for every symmetric Q.  The kept factor also preconditions
the state solves' Newton steps and the final adjoint solve.

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

from .errors import ConfigurationError, SolverError
from .objective import _hessian_term, _objective
from .pde import (
    DEFAULT_TOL,
    Discretization,
    LinearizedOperator,
    StateSolveReport,
    cg_solve,
)
from .problem import ProblemSpec, validate

# An outer step after a scaled step below this reuses the kept factor of Q.
# On the benchmark (both trackings, nu in {0.01, 0.05, 0.2}, levels 4-9)
# delta_0 lies in [0.16, 0.99] and delta_1 in [1e-5, 4.9e-2], so a run
# factors Q in its first two outer steps only.
REFACTOR_STEP = 0.1


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
    inner_tol: float = DEFAULT_TOL
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
    disc: Discretization,
    y: np.ndarray,
    phi: np.ndarray,
    sets: ActiveSets,
    v: np.ndarray,
    operator: LinearizedOperator,
) -> np.ndarray:
    """CG operator: (1/nu) * reduced Hessian restricted to the inactive set.

    v is masked to the inactive set, z and eta are solved with load
    chi_I*v, and the result chi_I*(v - (phi*z + eta*y)/nu) is returned.
    """
    vi = np.where(sets.inactive, v, 0.0)
    term = _hessian_term(disc, y, phi, vi, operator)
    return np.where(sets.inactive, vi - term / disc.spec.nu, 0.0)


def _step(
    disc: Discretization,
    j: int,
    u: np.ndarray,
    cfg: SSNConfig,
    state: StateSolveReport,
    refactor: bool = True,
) -> tuple[np.ndarray, IterationRecord]:
    """Lines 4-11 of one outer iteration, given the state solve of line 3.

    With refactor = False the step keeps the Discretization's factor of
    an earlier Q for its Hessian solves; the adjoint is still solved
    against Q(u, y), and a factor that solve makes is the one kept.
    """
    spec = disc.spec
    y = state.y
    jval = _objective(disc, u, y)
    if refactor:
        op = disc.linearized_operator(u, y)
        phi = disc.solve_adjoint(u, y, operator=op)
    else:
        phi = disc.solve_adjoint(u, y)
        op = disc.kept_factor
    sets = classify(spec, y, phi)

    w = y * phi / spec.nu - u
    w[sets.upper] = spec.beta - u[sets.upper]
    w[sets.lower] = spec.alpha - u[sets.lower]

    w_active = np.where(sets.inactive, 0.0, w)
    term = _hessian_term(disc, y, phi, w_active, op)
    rhs = np.where(sets.inactive, w + term / spec.nu, 0.0)

    def apply(v):
        return apply_Mj(disc, y, phi, sets, v, op)

    max_cg = cfg.max_cg if cfg.max_cg is not None else disc.n_nodes
    v_inactive, cg_iters = cg_solve(
        apply, rhs, cfg.inner_tol, max_cg, inner=disc.inner
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
    return u_next, record


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


def run_ssn(
    disc: Discretization, cfg: SSNConfig | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[IterationRecord]]:
    """Run the outer loop to convergence; returns (u, y, phi, records).

    records holds one full row per outer iteration plus a final row with
    the objective of the accepted control.  Raises SolverError (carrying
    the records accumulated so far) when max_outer is exhausted.

    The structural invariants of disc.spec (bounds, nu, a0, da_dy >= a0,
    diffusion), which make every linearized operator positive definite,
    are checked first.  The sampled finite-difference check of the
    hand-entered derivatives is not repeated here: config files run it
    at load time unless fd_check = off, and validate(spec) runs it for
    library callers.
    """
    cfg = cfg if cfg is not None else SSNConfig()
    violations = validate(disc.spec, derivative_check=False)
    if violations:
        raise ConfigurationError("problem data invalid: " + "; ".join(violations))

    floor = cfg.step_floor(disc.n_nodes)
    u = _initial_control(cfg, disc.n_nodes)
    records: list[IterationRecord] = []
    y_warm: np.ndarray | None = None

    try:
        for j in range(cfg.max_outer):
            state = disc.solve_state(u, y_init=y_warm, tol=cfg.inner_tol)
            refactor = not records or records[-1].delta >= REFACTOR_STEP
            u, record = _step(disc, j, u, cfg, state, refactor)
            records.append(record)
            y_warm = state.y

            if record.delta < floor:
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
    finally:
        # the caller's disc outlives the run; its last LU need not
        disc.release_factorization()

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
    disc: Discretization,
    u: np.ndarray,
    y: np.ndarray,
    phi: np.ndarray,
    tol_sigma: float = 1e-8,
) -> ComplementarityReport:
    spec = disc.spec
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
