"""Continuous problem data for bilinear control of semilinear Neumann problems.

The governing model on Omega = (0,1)^2 is

    -div(diffusion grad y) + a(x, y) + u*y = 0   in Omega,
    conormal derivative of y = g                 on the boundary,

and the control u is chosen in {alpha <= u <= beta} to minimize

    J(u) = int_Omega L(x, y_u) dx + (nu/2) int_Omega u^2 dx.

A ProblemSpec carries the scalar functions a and L with their first and
second y-derivatives (supplied, not differentiated symbolically), the flux
g, the bounds, the Tikhonov weight nu, and the monotonicity constant a0
with da_dy >= a0 > -alpha, which keeps every linearized operator positive
definite for admissible controls.

Calling convention for the scalar functions: f(x, y) receives x as an
(k, 2) array of points and y as an (k,) array (or scalar) of state values
and returns values broadcastable to (k,).  The flux g(x) takes points only.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError


def nodal(fn: Callable, x: np.ndarray, y=None) -> np.ndarray:
    """Evaluate f(x, y) (or g(x)) and broadcast the result to one value per point."""
    out = fn(x) if y is None else fn(x, y)
    return np.broadcast_to(np.asarray(out, dtype=float), (x.shape[0],))


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """All continuous data of one control problem instance."""

    a: Callable
    da_dy: Callable
    d2a_dy2: Callable
    L: Callable
    dL_dy: Callable
    d2L_dy2: Callable
    g: Callable
    alpha: float
    beta: float
    nu: float
    a0: float
    diffusion: np.ndarray = field(default_factory=lambda: np.eye(2))


def check_spd_2x2(diffusion) -> np.ndarray:
    """The diffusion matrix as a float array; raises unless it is 2x2 SPD."""
    d = np.asarray(diffusion, dtype=float)
    if d.shape != (2, 2):
        raise ConfigurationError(f"diffusion must be 2x2, got shape {d.shape}")
    if not np.isfinite(d).all():
        raise ConfigurationError("diffusion entries must be finite")
    if d[0, 1] != d[1, 0]:
        raise ConfigurationError("diffusion must be symmetric")
    if d[0, 0] <= 0.0 or np.linalg.det(d) <= 0.0:
        raise ConfigurationError("diffusion must be positive definite")
    return d


def desired_state(x: np.ndarray) -> np.ndarray:
    """Tracking target of the benchmark: -64*x1*(1-x1)*x2*(1-x2)."""
    return -64.0 * x[:, 0] * (1.0 - x[:, 0]) * x[:, 1] * (1.0 - x[:, 1])


def benchmark_instance(tracking: str = "quadratic") -> ProblemSpec:
    """The reference instance every convergence table in this package uses.

    Nonlinearity a(x,y) = y^3|y| + 2y - 100*sin(2*pi*x1)*sin(pi*x2), zero
    flux, bounds [-1, 1], nu = 0.05, a0 = 2.  The objective integrand is
    L = 0.5*(y - y_d)^2 by default; tracking="linear" switches to the
    degenerate form L = 0.5*(y - y_d) with vanishing second derivative.
    """

    def a(x, y):
        return (
            y * y * y * np.abs(y)
            + 2.0 * y
            - 100.0 * np.sin(2.0 * np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
        )

    def da_dy(x, y):
        return 4.0 * y * y * np.abs(y) + 2.0

    def d2a_dy2(x, y):
        return 12.0 * y * np.abs(y)

    if tracking == "quadratic":
        objective_terms = (
            lambda x, y: 0.5 * (y - desired_state(x)) ** 2,
            lambda x, y: y - desired_state(x),
            lambda x, y: 1.0,
        )
    elif tracking == "linear":
        objective_terms = (
            lambda x, y: 0.5 * (y - desired_state(x)),
            lambda x, y: 0.5,
            lambda x, y: 0.0,
        )
    else:
        raise ConfigurationError(
            f"tracking must be 'quadratic' or 'linear', got {tracking!r}"
        )
    big_l, dl, d2l = objective_terms

    return ProblemSpec(
        a=a,
        da_dy=da_dy,
        d2a_dy2=d2a_dy2,
        L=big_l,
        dL_dy=dl,
        d2L_dy2=d2l,
        g=lambda x: 0.0,
        alpha=-1.0,
        beta=1.0,
        nu=0.05,
        a0=2.0,
    )


def _sample_points() -> tuple[np.ndarray, np.ndarray]:
    """Fixed (x, y) sample pairs for spot checks: 25 points x 33 state values.

    Every point is paired with every state value, so one call of a
    callback evaluates it on the whole sample.
    """
    t = np.linspace(0.1, 0.9, 5)
    xx, yy = np.meshgrid(t, t)
    x = np.column_stack([xx.ravel(), yy.ravel()])
    ys = np.linspace(-8.0, 8.0, 33)
    return np.tile(x, (ys.size, 1)), np.repeat(ys, x.shape[0])


def _fd_mismatch(f, df, x: np.ndarray, y: np.ndarray) -> bool:
    """True when central differences of f disagree with df at the pairs (x, y).

    Checks that the worst mismatch shrinks like t^2 between t=1e-2 and
    t=1e-3, with an absolute floor so exactly-matching derivatives (e.g.
    polynomial f) are not rejected on roundoff noise.
    """
    scale = max(1.0, float(np.max(np.abs(nodal(f, x, y)))))
    d = nodal(df, x, y)
    errs = []
    for t in (1e-2, 1e-3):
        fd = (nodal(f, x, y + t) - nodal(f, x, y - t)) / (2.0 * t)
        errs.append(float(np.max(np.abs(fd - d))))
    floor = 1e-8 * scale
    # a NaN mismatch fails too
    return not errs[1] <= max(0.05 * errs[0], floor)


def validate(spec: ProblemSpec, derivative_check: bool = True) -> list[str]:
    """Check all ProblemSpec invariants; returns a list of violations.

    An empty list means the instance is usable.  Violations are reported,
    not raised, so a config loader can show all of them at once.
    """
    out = []
    if not (math.isfinite(spec.nu) and spec.nu > 0):
        out.append(f"nu must be positive, got {spec.nu}")
    if not (math.isfinite(spec.a0) and spec.a0 >= 0):
        out.append(f"a0 must be a finite nonnegative real, got {spec.a0}")
    if not math.isfinite(spec.alpha):
        out.append(f"alpha must be finite, got {spec.alpha}")
    elif not spec.alpha < spec.beta:
        out.append(f"bounds must satisfy alpha < beta, got [{spec.alpha}, {spec.beta}]")
    if math.isfinite(spec.alpha) and math.isfinite(spec.a0):
        if not -spec.a0 < spec.alpha:
            out.append(
                f"alpha must exceed -a0 = {-spec.a0}, got alpha = {spec.alpha}"
            )
    try:
        check_spd_2x2(spec.diffusion)
    except ConfigurationError as exc:
        out.append(str(exc))

    x, y = _sample_points()
    try:
        worst = float(np.min(nodal(spec.da_dy, x, y)))
        if not worst >= spec.a0 - 1e-12:  # a NaN sample fails too
            out.append(
                f"da_dy must stay >= a0 = {spec.a0}; sampled minimum {worst:.6g}"
            )
    except Exception as exc:  # user-supplied callables may misbehave
        out.append(f"da_dy could not be evaluated on the sample grid: {exc}")

    if derivative_check:
        pairs = [
            ("da_dy vs a", spec.a, spec.da_dy),
            ("d2a_dy2 vs da_dy", spec.da_dy, spec.d2a_dy2),
            ("dL_dy vs L", spec.L, spec.dL_dy),
            ("d2L_dy2 vs dL_dy", spec.dL_dy, spec.d2L_dy2),
        ]
        for label, f, df in pairs:
            try:
                if _fd_mismatch(f, df, x, y):
                    out.append(
                        f"derivative consistency failed for {label}: finite "
                        "differences do not match at second order"
                    )
            except Exception as exc:
                out.append(f"derivative check for {label} could not run: {exc}")
    return out
