"""Outer semismooth Newton loop for the bilinear control problem.

The optimality system is the nonsmooth fixed-point equation

    F(u) = u - Proj_[alpha, beta]((1/nu) * y_u * phi_u) = 0.

Each outer iteration solves the state and adjoint equations and forms
the projection P = Proj_[alpha, beta](y*phi/nu) once.  w = P - u is
-F(u).  The Newton derivative of the projection is the indicator of the
inactive set, where P lies strictly inside (alpha, beta); a node with P
on a bound is active.  The Newton correction on the active set is w
itself, bound - u there, and the step solves the reduced quadratic
problem for the inactive components with a matrix-free conjugate
gradient method in the lumped L2 inner product: pde.cg_solve with
inner = Discretization.inner, the routine the one-off PDE solves run
too.  Its typed failures reach the caller: NegativeCurvatureError
when the reduced Hessian is not positive definite on the inactive set,
SolverError on a nonfinite value or an exhausted budget of n_nodes
iterations (CG's exact-arithmetic bound), each with the table rows made
so far.  One CG operator application is one Discretization.hessian_term:
two linear PDE solves with the factorization of the operator Q(u, y) of
the linearized equations that the Discretization keeps (see pde), the
linearized state z and adjoint eta of its direction.  The right-hand
side costs one more, two solves, for the correction w_A on the active
sets, and none when w_A is zero, as it is once the active nodes sit on
their bounds (Q^-1 0 = 0).

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
the state solves' Newton steps and the adjoint solves.

From mesh level COARSE_START_LEVEL up, a run on level k solves the levels
COARSE_START_LEVEL - 1, ..., k in one ascending loop (nested iteration;
mesh.prolong).  The first level starts from the constant control u0 and
its state from zero; every level above it starts from the prolonged
control and state of the solution below it.  Semismooth Newton converges
mesh-independently (Hintermueller and Ulbrich, Math. Program. 101
(2004)), so the prolonged solution lies in level k's region of fast
convergence.  Its state solve's first Newton step factors Q(P u_c, P
y_c), and outer step 0 keeps that factor.  The first scaled step falls
2-4x per level: on the benchmark (both trackings, nu in {0.01, 0.05,
0.2}) it is at most 0.035 from level 7 up (a cold start's is about 0.9),
below REFACTOR_STEP, so level k factors Q once.  At levels 5-6 it lands
above the cut in 3 of 12 variants, and outer step 1 factors again.
Steps with a factor kept from the start contract by only 1e-2 to 1e-5
each, so the stop lands anywhere below outer_tol; the default outer_tol
is set low enough for that (see SSNConfig).  Every level appends its rows
to the run's records, with j from 0; the refactoring rule and the
stagnation test read only the level's own rows.  A level below k is
solved on its own Discretization, which lives only for that level's
solve, and whose work counters are added to the run's; the level loop
releases each level's last LU when the level ends, whatever its
outcome.  A caller may hand run_ssn the result of an earlier run_ssn of
the same problem as coarse: when the loop would solve that result's
level, it starts above it from its prolonged control and state, the
start it would have computed itself, so a sweep over levels solves each
one once; otherwise the result is ignored.

Outer step j is an inexact semismooth Newton step.  After the state and
adjoint solves at u_j, w = -F(u_j) at every node, so the residual
||F(u_j)||_h = ||w||_h costs nothing, and the loop stops as soon as it
is at most outer_tol, before step j's CG runs (the optimality-system
stop of the primal-dual active set method: Hintermueller, Ito, Kunisch,
SIAM J. Optim. 13 (2002)).  Otherwise CG runs only to the relative
residual

    eta_j = max(PCG_RTOL, min(CG_ETA_MAX, max(||F_j||^(1+theta), c*outer_tol/||F_j||))),
    ||F_j|| = ||F(u_j)||_h,  theta = CG_FORCING_THETA,  c = CG_TOL_SHARE,

from pde.forcing_term, the rule of the state Newton steps, with its
floor pde.PCG_RTOL, which did not bind: on the benchmark (both
trackings, levels 3, 5 and 7) the min(...) term stayed above 3.6e-12,
also at outer_tol = 1e-20.  Forcing terms that fall to 0 keep the superlinear rate (Ulbrich,
above); the term c*outer_tol/||F_j|| keeps the last step from solving
far below what outer_tol needs.

Step j also returns y_j + z_j and phi_j + eta_j, z_j and eta_j the
linearized state and adjoint of its step v_j, and costs no solve for
them: z and eta are linear in v, so they are those of w_A plus the sum
of step_k times those of each CG direction p_k, which CG adds up as it
goes (pde.cg_solve's on_step), two vectors whatever its iteration count.
y_j + z_j starts the state solve at u_{j+1}.  It is first-order
accurate, so the state solves need fewer Newton steps, and the last ones
none: their start is then the state to within O(|v_j|^2), where a start
from y_j would leave an error of order |v_j| that the residual norm of
the state solve cannot see (that norm weighs a nodal error e_i with the
lumped weight w_i ~ h^2), and that moves ||F||_h by 1e-13 at levels 6-7.
phi_j + eta_j starts the one-off adjoint PCG at u_{j+1}, whose stop, a
relative residual of pde.PCG_RTOL, does not depend on its start, so the
step stays an inexact Newton step of the same accuracy (Ulbrich, above);
the level-8 adjoints of the benchmark take 4, 2, 1 and 1 PCG iterations
where a start from zero took 4 each.  An outer step that factors Q
solves its adjoint directly and drops the prediction before the new LU
is built.

||F(u_j)||_h is that of the computed state and adjoint, which is what
the returned (u, y, phi) satisfy.  The final row's objective is
J* = J(u, y) - phi.r(u, y), r the state residual: the state error Q^-1 r
moves J by -phi.r to first order, and phi is already solved.  So J* is
that of the exact state to second order in r, far below inner_tol (at
level 9 J(u, y) alone was off by 8e-12 relative, J* by 4e-15, against
the state solved to its rounding floor by exact Newton steps).  The last
step's CG runs to about CG_TOL_SHARE * outer_tol; with a factor kept from
a nested level's start the step itself is less exact, and the returned
point lies anywhere below the target (see SSNConfig).

A scaled step

    delta_j = ||v_j|| / max(1, ||u_{j+1}||)

below step_floor(n_nodes) = 10*eps*n_nodes is rounding noise: eps times
a scale of the condition number of Q, which grows like h^-2.  A run
whose residual is still above outer_tol after such a step stops on
stagnation, and one that has made MAX_OUTER steps stops on its budget;
a residual that is not finite (u0 = 1e300 overflows it) stops at once.
Each raises SolverError with the rows made, the last of which names the
reason.  Every row records ||F(u_j)||_h in residual, and the final
row its stop_reason.  A target below rounding (outer_tol = 1e-20) stops
a nested level on stagnation, but a level solved cold reaches
||F||_h = 0.0: once its steps are small, its state and adjoint solves
return their predictions untouched, and u_{j+1} lands on
Proj(y_{j+1} phi_{j+1}/nu) in floating point.
"""

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import ConfigurationError, SolverError
from .mesh import build_uniform_mesh, prolong
from .objective import _objective
from .pde import DEFAULT_TOL, Discretization, cg_solve, dot, forcing_term
from .problem import ProblemSpec, validate

# An outer step after a scaled step below this reuses the kept factor of Q.
# On the benchmark (both trackings, nu in {0.01, 0.05, 0.2}) a cold start
# at level 4 has delta_0 in [0.16, 0.99] and delta_1 in [1e-5, 4.9e-2], so
# it factors Q in its first two outer steps only.  A nested level's
# delta_0 is at most 0.035 from level 7 up, so it factors Q once.
REFACTOR_STEP = 0.1
# From this mesh level up, a run first solves the next coarser level and
# starts from its solution (see run_ssn); below it, it starts cold.  A
# start of the state alone from level 3 cost level 4 an outer iteration in
# 2 of 6 benchmark variants (both trackings, nu in {0.01, 0.05, 0.2}).
COARSE_START_LEVEL = 5
# Outer step j runs CG to the relative residual eta_j = forcing_term(
# ||F_j||^(1 + CG_FORCING_THETA), ||F_j||, CG_TOL_SHARE * outer_tol,
# CG_ETA_MAX), ||F_j|| = ||F(u_j)||_h (see pde.forcing_term).
# On the benchmark (both trackings, nu in {0.01, 0.05, 0.2}, levels 4-9,
# each started cold, outer_tol 1e-12) theta = 0.25 keeps every outer count
# at most that of CG run to 5e-14, and the same at levels 4-9 except
# at level 4 with linear tracking and nu = 0.01; theta = 0.5 also took 3 steps at level 4 with quadratic
# tracking and nu = 0.05, against 4 at levels 5-9.
CG_FORCING_THETA = 0.25
CG_ETA_MAX = 0.1
# The last step's CG runs to CG_TOL_SHARE * outer_tol / ||F_j||.  With
# cold starts and outer_tol 1e-12 the final ||F||_h was 3e-17 to 1.4e-14
# on the benchmark and the sup-norm of F below 1.1e-13 (a share of 0.1
# left 2.6e-13 at levels 5-7).  With nested levels, predicted adjoint
# starts and the default outer_tol it is 7e-18 to 3.5e-14 at levels 4-9,
# and the sup-norm at most 3.4e-14 at levels 4-7, 1.2e-13 at level 8 and
# 1.7e-13 at level 9 (see SSNConfig).
CG_TOL_SHARE = 0.01
# The outer steps a level may take; on the benchmark a level takes 3-5.
MAX_OUTER = 30
# complementarity_report's tolerance for a bound attained and a vanishing
# gradient.
TOL_SIGMA = 1e-8


@dataclass(frozen=True)
class IterationRecord:
    """One row of the convergence table.

    level is the mesh level of the row's outer step and j its index on
    that level, from 0.  residual is ||F(u_j)||_h.  The final row of a
    level reports only the objective (corrected for the state residual,
    see run_ssn), the residual and the stop_reason ("residual",
    "nonfinite", "stagnation" or "budget") of its control, plus the
    warm-started Newton count of its state solve; delta and cg_iters are
    None there, and stop_reason is None on every other row.
    """

    level: int
    j: int
    J: float
    delta: float | None
    newton_iters: int
    cg_iters: int | None
    residual: float
    stop_reason: str | None = None


@dataclass(frozen=True)
class SSNConfig:
    """Tolerances and start of the outer loop.

    outer_tol is the target for ||F(u)||_h on every level.  A nested
    level's steps keep a factor made at its start and contract slowly, so
    its stop lands anywhere below outer_tol; at 1e-12 the sup-norm of F
    reached 1.3e-12.  With the default it stays below 3.5e-14 at levels
    4-7 on the benchmark (both trackings, nu in {0.01, 0.05, 0.2}), and
    reaches 1.2e-13 at level 8 and 1.7e-13 at level 9 (quadratic, nu =
    0.01), where the last step lands closer to outer_tol: the returned
    adjoint is within 1.2e-14 relative of the exact one, and F at the
    exact adjoint reads the same.  inner_tol is the tolerance of the
    state solves; both are positive and finite reals.  u0 is the constant
    control that the first level a run solves starts from, a finite real.
    The budgets are module constants: MAX_OUTER outer steps per level,
    and n_nodes iterations per CG.
    """

    outer_tol: float = 5e-14
    inner_tol: float = DEFAULT_TOL
    u0: float = 0.0

    def __post_init__(self):
        tols = {"outer_tol": self.outer_tol, "inner_tol": self.inner_tol}
        for name, value in tols.items():
            if not isinstance(value, Real) or isinstance(value, bool):
                raise ConfigurationError(f"{name} must be a real number, got {value!r}")
        if not all(0 < value < np.inf for value in tols.values()):
            raise ConfigurationError("tolerances must be positive and finite")
        u0 = self.u0
        if not isinstance(u0, Real) or isinstance(u0, bool) or not np.isfinite(u0):
            raise ConfigurationError(f"u0 must be a finite real, got {u0!r}")


def step_floor(n_nodes: int) -> float:
    """Scaled step below which the outer loop has stagnated: 10*eps*n.

    A solve with Q is accurate to about eps times its condition number,
    which grows like h^-2, i.e. like the node count n; smaller steps are
    rounding noise, and a run whose residual is still above outer_tol
    after one of them stops on stagnation.
    """
    return 10.0 * float(np.finfo(float).eps) * n_nodes


def _projection(spec: ProblemSpec, y: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Nodewise Proj_[alpha, beta](y*phi/nu)."""
    return np.clip(y * phi / spec.nu, spec.alpha, spec.beta)


def optimality_residual(
    spec: ProblemSpec, u: np.ndarray, y: np.ndarray, phi: np.ndarray
) -> np.ndarray:
    """Nodewise F(u) = u - Proj_[alpha, beta](y*phi/nu)."""
    return u - _projection(spec, y, phi)


@dataclass(frozen=True, eq=False)
class Iterate:
    """The state, adjoint and Newton data at one control u_j.

    w = Proj(y*phi/nu) - u_j is -F(u_j) at every node and the Newton
    correction on the active set, so residual = ||F(u_j)||_h = ||w||_h.
    inactive marks the nodes whose projection lies strictly inside
    (alpha, beta); a node on a bound is active.
    """

    u: np.ndarray
    y: np.ndarray
    phi: np.ndarray
    inactive: np.ndarray
    w: np.ndarray
    residual: float


def _linearize(
    disc: Discretization,
    u: np.ndarray,
    y: np.ndarray,
    phi_init: np.ndarray | None = None,
) -> Iterate:
    """Solve the adjoint at (u, y) and project y*phi/nu onto the bounds.

    The projection P gives w = P - u = -F(u) and the inactive set
    alpha < P < beta, so F, w and the active sets cannot disagree.  The
    adjoint is a one-off solve against Q(u, y) started from phi_init.
    It is preconditioned by the factor disc keeps, of an earlier Q; with
    none kept it factors Q(u, y) and solves directly.  The step's Hessian
    solves use the factor kept after it either way.
    """
    spec = disc.spec
    phi = disc.solve_adjoint(u, y, phi_init=phi_init)
    proj = _projection(spec, y, phi)
    inactive = (spec.alpha < proj) & (proj < spec.beta)
    w = proj - u
    return Iterate(u, y, phi, inactive, w, disc.norm(w))


def _step(
    disc: Discretization,
    j: int,
    it: Iterate,
    eta: float,
    newton_iters: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, IterationRecord]:
    """The Newton step of one outer iteration from it.

    The reduced system on the inactive set is solved by CG to the
    relative residual eta within n_nodes iterations, its Hessian products
    solved by disc's kept factor; newton_iters is the row's Newton count.
    Returns u_{j+1}, the state and adjoint predicted there to first
    order, and the row.
    """
    spec = disc.spec
    y, phi, inactive, w = it.y, it.phi, it.inactive, it.w
    w_active = np.where(inactive, 0.0, w)
    if w_active.any():
        term, z_v, eta_v = disc.hessian_term(y, phi, w_active)
        rhs = np.where(inactive, w + term / spec.nu, 0.0)
    else:  # Q^-1 0 = 0: no solves, and w + 0 / nu = w
        z_v, eta_v = disc.zeros(), disc.zeros()
        rhs = np.where(inactive, w, 0.0)
    z_p = eta_p = None

    def apply(p):
        # (1/nu) * the reduced Hessian on the inactive set: chi_I*(p_I -
        # (phi*z + y*eta)/nu), z and eta those of p_I = chi_I*p
        nonlocal z_p, eta_p
        vi = np.where(inactive, p, 0.0)
        term, z_p, eta_p = disc.hessian_term(y, phi, vi)
        return np.where(inactive, vi - term / spec.nu, 0.0)

    def add_solves(step):
        # z and eta are linear in v: CG's x += step * p adds step times p's
        nonlocal z_v, eta_v
        z_v += step * z_p
        eta_v += step * eta_p

    v_inactive, cg_iters = cg_solve(
        apply, rhs, eta, disc.n_nodes, inner=disc.inner, on_step=add_solves
    )

    v = np.where(inactive, v_inactive, w)
    u_next = it.u + v
    # z and eta of v = v_I + w_A: the state and adjoint at u_{j+1} to
    # first order, the starts of the next state and adjoint solves
    y_next, phi_next = y + z_v, phi + eta_v
    record = IterationRecord(
        level=disc.mesh.level,
        j=j,
        J=_objective(disc, it.u, y),
        delta=disc.norm(v) / max(1.0, disc.norm(u_next)),
        newton_iters=newton_iters,
        cg_iters=cg_iters,
        residual=it.residual,
    )
    return u_next, y_next, phi_next, record


def _solve_level(
    disc: Discretization,
    cfg: SSNConfig,
    u: np.ndarray,
    y: np.ndarray | None,
    records: list[IterationRecord],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The outer loop on disc's mesh from the control u and state start y.

    y = None solves the level cold: its state solve starts from zero.
    disc keeps no factor on entry (run_ssn releases it), and keeps the
    level's last LU on return, also when the level fails; only an outer
    step that refactors releases one here.  Appends the level's rows to
    records and returns (u, y, phi) once it meets outer_tol; a stop on a
    nonfinite residual, stagnation or budget raises SolverError.
    """
    level = disc.mesh.level
    cold = y is None
    floor = step_floor(disc.n_nodes)
    last: IterationRecord | None = None
    phi: np.ndarray | None = None
    reason = None
    for j in range(MAX_OUTER + 1):
        state = disc.solve_state(u, y_init=y, tol=cfg.inner_tol)
        # a warm level keeps the factor its state solve's first Newton step
        # made; with none kept, the adjoint factors Q itself
        refactor = cold if last is None else last.delta >= REFACTOR_STEP
        if refactor:
            # the adjoint factors Q(u, y) and solves directly: neither
            # the old LU nor a start is alive while the new one is built
            disc.release_factorization()
            phi = None
        it = _linearize(disc, u, state.y, phi)
        if not np.isfinite(it.residual):
            reason = "nonfinite"
        elif it.residual <= cfg.outer_tol:
            reason = "residual"
        elif last is not None and last.delta < floor:
            reason = "stagnation"
        elif j == MAX_OUTER:
            reason = "budget"
        if reason is not None:
            break
        eta = forcing_term(
            it.residual ** (1.0 + CG_FORCING_THETA),
            it.residual,
            CG_TOL_SHARE * cfg.outer_tol,
            CG_ETA_MAX,
        )
        u, y, phi, last = _step(disc, j, it, eta, state.newton_iters)
        records.append(last)
        # the next iteration's factorization is a run's memory peak:
        # this iteration's arrays need not be alive for it
        del it, state
    # the state error Q^-1 r moves J by -phi.r to first order
    r = disc.state_residual(u, it.y)
    records.append(
        IterationRecord(
            level=level,
            j=j,
            J=_objective(disc, u, it.y) - float(dot(it.phi, r)),
            delta=None,
            newton_iters=state.newton_iters,
            cg_iters=None,
            residual=it.residual,
            stop_reason=reason,
        )
    )

    if reason == "residual":
        return it.u, it.y, it.phi
    if reason == "nonfinite":
        raise SolverError(f"ssn: nonfinite ||F||_h = {it.residual} at level {level}")
    if reason == "stagnation":
        raise SolverError(
            f"ssn: stagnation at level {level}: scaled step {last.delta:.3e} "
            f"below {floor:.3e} with ||F||_h = {it.residual:.3e} above "
            f"outer_tol {cfg.outer_tol:.3e}"
        )
    raise SolverError(
        f"ssn: no convergence in {MAX_OUTER} outer iterations at level "
        f"{level} (||F||_h = {it.residual:.3e}, outer_tol {cfg.outer_tol:.3e})"
    )


def can_start_from(level: int, coarse_level: int) -> bool:
    """Whether run_ssn on level can start from a solution on coarse_level."""
    return COARSE_START_LEVEL - 1 <= coarse_level < level


def run_ssn(
    disc: Discretization, cfg: SSNConfig | None = None, coarse: tuple | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[IterationRecord]]:
    """Run the outer loop to convergence; returns (u, y, phi, records).

    The run solves the levels from COARSE_START_LEVEL - 1 (or disc's own
    level, if that is lower) up to disc's, the first from the constant
    control u0 and every other from the prolonged solution below it; see
    the module docstring.  records holds the rows of every level solved,
    coarsest first and disc's own last: per level one full row per outer
    step plus a final row with the objective, ||F||_h and stop_reason of
    its accepted control, which satisfies ||F(u)||_h <= outer_tol.  When a
    level's ||F||_h is not finite, or it stagnates or exhausts MAX_OUTER,
    the run raises SolverError with the records, whose final row names
    the reason; a SolverError or NegativeCurvatureError of a state,
    adjoint or CG solve on any level is raised again as the same class
    with all the rows made so far.

    coarse is the (u, y, phi, records) that an earlier run_ssn of the
    same problem and cfg returned; its level is records[-1].level.  When
    can_start_from(disc's level, that level), the run starts from its u
    and y and solves only the levels above it, each exactly as a run
    without coarse would, and records, like disc's work counters, hold
    only theirs; u0 seeds nothing.  Otherwise the run ignores it, rows,
    arrays and counters alike: a handed solution only saves work the run
    would do itself.  u and y with other than one value per node of that
    level raise ConfigurationError.

    The run releases disc's kept factor on entry, so no factor of an
    earlier solve preconditions its own, and releases each level's last
    LU when that level ends, whatever its outcome: disc keeps no factor
    after the run.

    The structural invariants of disc.spec (bounds, nu, a0, da_dy >= a0,
    diffusion), which make every linearized operator positive definite,
    are checked first, once for all levels.  The sampled
    finite-difference check of the hand-entered derivatives is not
    repeated here: config files run it at load time unless fd_check =
    off, and validate(spec) runs it for library callers.
    """
    # a factor kept from an earlier solve on disc preconditions nothing here
    disc.release_factorization()
    cfg = cfg if cfg is not None else SSNConfig()
    top = disc.mesh.level
    first, u, y = min(top, COARSE_START_LEVEL - 1), None, None
    if coarse is not None:
        u_c, y_c, _, rows = coarse
        if not rows:
            raise ConfigurationError("coarse records must hold at least one row")
        level = rows[-1].level
        n = (2**level + 1) ** 2
        if np.shape(u_c) != (n,) or np.shape(y_c) != (n,):
            raise ConfigurationError(
                f"coarse u and y must hold one value per node of level {level} "
                f"({n}), got shapes {np.shape(u_c)} and {np.shape(y_c)}"
            )
        if can_start_from(top, level):
            first, u, y = level + 1, u_c, y_c
    violations = validate(disc.spec, derivative_check=False)
    if violations:
        raise ConfigurationError("problem data invalid: " + "; ".join(violations))
    records: list[IterationRecord] = []
    try:
        for level in range(first, top + 1):
            level_disc = disc
            if level < top:
                level_disc = Discretization(disc.spec, build_uniform_mesh(level))
            if y is None:
                u = np.full(level_disc.n_nodes, float(cfg.u0))
            else:
                # this level's state solve factors Q, a run's memory peak:
                # nothing of the coarser level is alive for it
                u, y, phi = prolong(u, level), prolong(y, level), None
            try:
                # an overflow ends the level in a typed stop, not a warning
                with np.errstate(all="ignore"):
                    u, y, phi = _solve_level(level_disc, cfg, u, y, records)
            finally:
                # the caller's disc outlives the run; no level's LU need
                level_disc.release_factorization()
                if level < top:
                    disc.add_work(level_disc)
    except SolverError as exc:
        # the rows made so far replace the failed solve's own history,
        # which stays on __cause__
        raise type(exc)(str(exc), history=records) from exc
    return u, y, phi, records


@dataclass(frozen=True)
class ComplementarityReport:
    """Discrete measures of the bound-attainment sets of a solution.

    sigma is the measure of nodes where a bound is attained while the
    gradient nu*u - y*phi also vanishes (within tol_sigma, always
    TOL_SIGMA); strict complementarity means sigma is (numerically) zero.
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
) -> ComplementarityReport:
    spec = disc.spec
    at_upper = np.abs(u - spec.beta) <= TOL_SIGMA
    at_lower = np.abs(u - spec.alpha) <= TOL_SIGMA
    interior = ~(at_upper | at_lower)
    grad = spec.nu * u - y * phi
    sigma = (at_upper | at_lower) & (np.abs(grad) <= TOL_SIGMA)
    return ComplementarityReport(
        upper=disc.measure(at_upper),
        lower=disc.measure(at_lower),
        interior=disc.measure(interior),
        sigma=disc.measure(sigma),
        tol_sigma=TOL_SIGMA,
    )
