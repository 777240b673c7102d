"""Exception types shared across the package.

Two failure categories are distinguished so the command line tool can map
them onto exit codes: bad input (configuration) versus a solver that did
not reach its tolerance.
"""


class ConfigurationError(Exception):
    """Invalid user input: mesh level, problem data, or config file."""


class SolverError(Exception):
    """An iterative solver failed to converge.

    history is what the failed solve made before the failure: the
    accepted residual norms ||r||_h from Discretization.solve_state, the
    IterationRecord rows from ssn.run_ssn, and [] from pde.cg_solve and
    every other raise.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history if history is not None else []


class NegativeCurvatureError(SolverError):
    """The CG operator produced a direction of nonpositive curvature.

    The reduced quadratic model is expected to be positive definite on the
    inactive set near a solution; this error signals that the second order
    condition failed at the current iterate.
    """
