"""Finite-difference verification of the derivative machinery.

Gradient route: the directional derivative from the pointwise gradient
field must agree with a central difference of two fresh objective
evaluations to second order in the step t.  Hessian route: the quadratic
form from hessian_vec must agree with a second central difference, again
to second order, and the Hessian must be symmetric in the lumped inner
product.

Observed orders are least-squares slopes on a log-log scale.  Each
difference quotient carries a roundoff floor proportional to
eps*max(1,|J|)/t (first differences) or eps*max(1,|J|)/t^2 (second
differences); points that have decayed onto that floor are excluded from
the slope fit, since below it the quotient measures noise, not the decay
order (fit_decay_order reports a floor-only sequence as order infinity).
"""

import math
from dataclasses import dataclass

import numpy as np

from .mesh import build_uniform_mesh
from .objective import (
    evaluate_reduced,
    fd_curvature_oracle,
    fd_gradient_oracle,
    fit_decay_order,
    hessian_vec,
)
from .pde import Discretization
from .problem import ProblemSpec

GRAD_STEPS = (1e-2, 1e-3, 1e-4, 1e-5)
CURV_STEPS = (1e-1, 3e-2, 1e-2, 3e-3)
MIN_ORDER = 1.9
MAX_SYMMETRY = 1e-10
_FLOOR_FACTOR = 50.0


@dataclass(frozen=True)
class VerifySettings:
    """Parameters of the finite-difference verification run."""

    level: int = 4
    directions: int = 5
    seed: int = 1234


@dataclass(frozen=True)
class DirectionReport:
    """FD results for one probe direction."""

    index: int
    skipped: bool
    grad_errors: tuple[float, ...] = ()
    grad_order: float = math.nan
    curv_errors: tuple[float, ...] = ()
    curv_order: float = math.nan


@dataclass(frozen=True)
class VerificationResult:
    level: int
    seed: int
    grad_steps: tuple[float, ...]
    curv_steps: tuple[float, ...]
    directions: list[DirectionReport]
    symmetry: list[float]
    passed: bool


def verify_derivatives(
    spec: ProblemSpec,
    level: int = VerifySettings.level,
    directions: int = VerifySettings.directions,
    seed: int = VerifySettings.seed,
    direction_vectors=None,
) -> VerificationResult:
    """Run the full FD check suite at one mesh level.

    direction_vectors overrides the seeded random directions (used to
    exercise the zero-direction skip path deterministically).
    """
    disc = Discretization(spec, build_uniform_mesh(level))
    base = evaluate_reduced(disc, np.zeros(disc.n_nodes))
    jscale = max(1.0, abs(base.J))
    eps = float(np.finfo(float).eps)

    if direction_vectors is None:
        rng = np.random.default_rng(seed)
        direction_vectors = [rng.standard_normal(disc.n_nodes) for _ in range(directions)]

    reports: list[DirectionReport] = []
    kept: list[tuple[np.ndarray, np.ndarray]] = []
    for idx, v in enumerate(direction_vectors):
        v = np.asarray(v, dtype=float)
        vnorm = disc.norm(v)
        if vnorm == 0.0:
            reports.append(DirectionReport(index=idx, skipped=True))
            continue
        v = v / vnorm

        slope = disc.inner(base.grad, v)
        grad_errors = [
            abs(fd - slope) for fd in fd_gradient_oracle(disc, base.u, v, GRAD_STEPS)
        ]
        grad_floors = [_FLOOR_FACTOR * eps * jscale / t for t in GRAD_STEPS]
        grad_order = fit_decay_order(GRAD_STEPS, grad_errors, grad_floors)

        hv = hessian_vec(disc, base.y, base.phi, v, base.operator)
        quad = disc.inner(hv, v)
        curv_errors = [
            abs(fd2 - quad) for fd2 in fd_curvature_oracle(disc, base.u, v, CURV_STEPS)
        ]
        curv_floors = [4.0 * _FLOOR_FACTOR * eps * jscale / (t * t) for t in CURV_STEPS]
        curv_order = fit_decay_order(CURV_STEPS, curv_errors, curv_floors)

        reports.append(
            DirectionReport(
                index=idx,
                skipped=False,
                grad_errors=tuple(grad_errors),
                grad_order=grad_order,
                curv_errors=tuple(curv_errors),
                curv_order=curv_order,
            )
        )
        kept.append((v, hv))

    # <H v1, v2> against <v1, H v2> for each kept direction and the next,
    # cyclically; a single direction has no partner.
    symmetry = [
        abs(a - b) / max(abs(a), abs(b), 1e-300)
        for (v1, hv1), (v2, hv2) in zip(kept, kept[1:] + kept[:1])
        if len(kept) > 1
        for a, b in [(disc.inner(hv1, v2), disc.inner(v1, hv2))]
    ]

    orders_ok = all(
        r.skipped or (r.grad_order >= MIN_ORDER and r.curv_order >= MIN_ORDER)
        for r in reports
    )
    sym_ok = all(s <= MAX_SYMMETRY for s in symmetry)
    return VerificationResult(
        level=level,
        seed=seed,
        grad_steps=GRAD_STEPS,
        curv_steps=CURV_STEPS,
        directions=reports,
        symmetry=symmetry,
        passed=orders_ok and sym_ok and len(kept) > 0,
    )


def format_verification(result: VerificationResult) -> str:
    lines = [
        f"finite-difference verification at level {result.level} "
        f"(seed {result.seed})",
        f"gradient steps:  {', '.join(f'{t:g}' for t in result.grad_steps)}",
        f"curvature steps: {', '.join(f'{t:g}' for t in result.curv_steps)}",
    ]
    for r in result.directions:
        if r.skipped:
            lines.append(f"direction {r.index}: skipped (zero direction)")
            continue
        g = "floor" if math.isinf(r.grad_order) else f"{r.grad_order:.2f}"
        c = "floor" if math.isinf(r.curv_order) else f"{r.curv_order:.2f}"
        lines.append(
            f"direction {r.index}: gradient order {g}, curvature order {c}"
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
    lines.append("verdict: " + ("PASS" if result.passed else "FAIL"))
    return "\n".join(lines)
