"""Finite-difference verification of the derivative machinery.

Gradient route: the directional derivative from the pointwise gradient
field must agree with a central difference of two fresh objective
evaluations to second order in the step t.  Hessian route: the quadratic
form from hessian_vec must agree with a second central difference, again
to second order, and the Hessian must be symmetric in the lumped inner
product.  Each fresh evaluation is a state solve to pde.DEFAULT_TOL,
started from the state at the base control; the two ladders of one
direction share the controls u +- t v they have in common, each solved
once.

verify_derivatives(spec, VerifySettings(level, directions, seed)) runs
the check the way run_ssn(disc, SSNConfig) runs the solver: both reject
a spec that breaks validate's structural invariants, and the settings
object owns the defaults and rejects values that are not integers or
are out of range, among them more directions than the verify level has
nodes.  The probe directions are drawn one by one from default_rng(seed).

Observed orders are least-squares slopes on a log-log scale.  Each
difference quotient carries a roundoff floor proportional to
eps*max(1,|J|)/t (first differences) or eps*max(1,|J|)/t^2 (second
differences); points within KEEP_ABOVE times that floor are excluded from
the slope fit, since there the quotient measures noise, not the decay
order (fit_decay_order reports a floor-only sequence as order infinity).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .mesh import MAX_LEVEL, build_uniform_mesh
from .objective import (
    evaluate_reduced,
    fd_curvature_oracle,
    fd_gradient_oracle,
    hessian_vec,
)
from .pde import Discretization
from .problem import ProblemSpec, validate

GRAD_STEPS = (1e-2, 1e-3, 1e-4, 1e-5)
CURV_STEPS = (1e-1, 3e-2, 1e-2, 3e-3)
MIN_ORDER = 1.9
MAX_SYMMETRY = 1e-10
_FLOOR_FACTOR = 50.0
# an error is fitted only above this multiple of its roundoff floor
KEEP_ABOVE = 20.0


@dataclass(frozen=True)
class VerifySettings:
    """Parameters of the finite-difference verification run."""

    level: int = 4
    directions: int = 5
    seed: int = 1234

    def __post_init__(self):
        for name, value in vars(self).items():
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if not 1 <= self.level <= MAX_LEVEL:
            raise ConfigurationError(f"level {self.level} outside [1, {MAX_LEVEL}]")
        if self.directions < 1:
            raise ConfigurationError("directions must be at least 1")
        # more directions than the control has entries probe nothing new,
        # and each costs 15 state solves
        nodes = (2**self.level + 1) ** 2
        if self.directions > nodes:
            raise ConfigurationError(
                f"directions must be at most {nodes}, the node count of "
                f"level {self.level}, got {self.directions}"
            )
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class DirectionReport:
    """FD results for one probe direction."""

    grad_errors: tuple[float, ...]
    grad_order: float
    curv_errors: tuple[float, ...]
    curv_order: float


@dataclass(frozen=True)
class VerificationResult:
    settings: VerifySettings
    directions: list[DirectionReport]
    symmetry: list[float]
    passed: bool
    # the work of the Discretization the check ran on
    newton_count: int
    pcg_count: int
    factor_count: int


def fit_decay_order(ts, errors, floors) -> float:
    """Least-squares slope of log(error) against log(t).

    Points whose error sits at or below KEEP_ABOVE times its estimated
    roundoff floor are excluded from the fit: once a difference quotient
    reaches the floor of double precision its size carries no information
    about the decay order.  If fewer than two points remain the sequence
    has decayed onto the floor everywhere, which dominates any finite
    order; math.inf is returned to signal that.
    """
    ts = np.asarray(ts, dtype=float)
    errors = np.asarray(errors, dtype=float)
    mask = errors > KEEP_ABOVE * np.asarray(floors, dtype=float)
    if np.count_nonzero(mask) < 2:
        return math.inf
    lt = np.log(ts[mask])
    le = np.log(np.maximum(errors[mask], 1e-300))
    slope = np.polyfit(lt, le, 1)[0]
    return float(slope)


def verify_derivatives(
    spec: ProblemSpec, settings: VerifySettings = VerifySettings()
) -> VerificationResult:
    """Run the full FD check suite at settings.level.

    The structural invariants of spec are checked first, as run_ssn
    checks them: a violation raises ConfigurationError.
    """
    violations = validate(spec, derivative_check=False)
    if violations:
        raise ConfigurationError("problem data invalid: " + "; ".join(violations))
    disc = Discretization(spec, build_uniform_mesh(settings.level))
    base = evaluate_reduced(disc, np.zeros(disc.n_nodes))
    jscale = max(1.0, abs(base.J))
    eps = float(np.finfo(float).eps)
    rng = np.random.default_rng(settings.seed)

    # every Hessian product first, while disc keeps the factor of Q at the
    # base point: a state solve of the ladders may replace it
    probes: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(settings.directions):
        v = rng.standard_normal(disc.n_nodes)
        v = v / disc.norm(v)
        probes.append((v, hessian_vec(disc, base.y, base.phi, v)))

    reports: list[DirectionReport] = []
    for v, hv in probes:
        # J(u + s v) by signed step s: t = 1e-2 is on both ladders
        values: dict[float, float] = {}
        slope = disc.inner(base.grad, v)
        grad_errors = [
            abs(fd - slope)
            for fd in fd_gradient_oracle(disc, base.u, base.y, v, GRAD_STEPS, values)
        ]
        grad_floors = [_FLOOR_FACTOR * eps * jscale / t for t in GRAD_STEPS]
        grad_order = fit_decay_order(GRAD_STEPS, grad_errors, grad_floors)

        quad = disc.inner(hv, v)
        curv_errors = [
            abs(fd2 - quad)
            for fd2 in fd_curvature_oracle(
                disc, base.u, base.y, v, CURV_STEPS, values
            )
        ]
        curv_floors = [4.0 * _FLOOR_FACTOR * eps * jscale / (t * t) for t in CURV_STEPS]
        curv_order = fit_decay_order(CURV_STEPS, curv_errors, curv_floors)

        reports.append(
            DirectionReport(
                grad_errors=tuple(grad_errors),
                grad_order=grad_order,
                curv_errors=tuple(curv_errors),
                curv_order=curv_order,
            )
        )

    # <H v1, v2> against <v1, H v2> for each direction and the next,
    # cyclically; a single direction has no partner.
    symmetry = [
        abs(a - b) / max(abs(a), abs(b), 1e-300)
        for (v1, hv1), (v2, hv2) in zip(probes, probes[1:] + probes[:1])
        if len(probes) > 1
        for a, b in [(disc.inner(hv1, v2), disc.inner(v1, hv2))]
    ]

    orders_ok = all(
        r.grad_order >= MIN_ORDER and r.curv_order >= MIN_ORDER for r in reports
    )
    sym_ok = all(s <= MAX_SYMMETRY for s in symmetry)
    return VerificationResult(
        settings=settings,
        directions=reports,
        symmetry=symmetry,
        passed=orders_ok and sym_ok,
        newton_count=disc.newton_count,
        pcg_count=disc.pcg_count,
        factor_count=disc.factor_count,
    )


def format_verification(result: VerificationResult) -> str:
    lines = [
        f"finite-difference verification at level {result.settings.level} "
        f"(seed {result.settings.seed})",
        f"gradient steps:  {', '.join(f'{t:g}' for t in GRAD_STEPS)}",
        f"curvature steps: {', '.join(f'{t:g}' for t in CURV_STEPS)}",
    ]
    for index, r in enumerate(result.directions):
        g = "floor" if math.isinf(r.grad_order) else f"{r.grad_order:.2f}"
        c = "floor" if math.isinf(r.curv_order) else f"{r.curv_order:.2f}"
        lines.append(
            f"direction {index}: gradient order {g}, curvature order {c}"
        )
        lines.append(
            "  grad errors: " + " ".join(f"{e:.3e}" for e in r.grad_errors)
        )
        lines.append(
            "  curv errors: " + " ".join(f"{e:.3e}" for e in r.curv_errors)
        )
    if result.symmetry:
        lines.append(
            "hessian symmetry residuals: "
            + " ".join(f"{s:.3e}" for s in result.symmetry)
        )
    lines.append(
        f"work: newton {result.newton_count}, pcg {result.pcg_count}, "
        f"factorizations {result.factor_count}"
    )
    lines.append("verdict: " + ("PASS" if result.passed else "FAIL"))
    return "\n".join(lines)
