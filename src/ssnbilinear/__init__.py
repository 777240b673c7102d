"""Semismooth Newton solver for bilinear optimal control problems.

Controls enter the state equation multiplicatively (a u*y term), the
state equation is a semilinear elliptic Neumann problem on the unit
square, and the control is box constrained.  The package discretizes
with P1 finite elements and lumped mass, and solves the first-order
optimality system with a semismooth Newton method whose inner quadratic
problems run a matrix-free conjugate gradient on the inactive set.

Every computation goes through one Discretization (a problem assembled on
a mesh); the lower-level operations live in the submodules.
"""

from .config import parse_config
from .errors import ConfigurationError, NegativeCurvatureError, SolverError
from .mesh import build_uniform_mesh
from .pde import Discretization
from .problem import ProblemSpec, benchmark_instance, validate
from .ssn import (
    IterationRecord,
    SSNConfig,
    complementarity_report,
    optimality_residual,
    run_ssn,
)
from .verification import format_verification, verify_derivatives

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "Discretization",
    "IterationRecord",
    "NegativeCurvatureError",
    "ProblemSpec",
    "SSNConfig",
    "SolverError",
    "benchmark_instance",
    "build_uniform_mesh",
    "complementarity_report",
    "format_verification",
    "optimality_residual",
    "parse_config",
    "run_ssn",
    "validate",
    "verify_derivatives",
]
