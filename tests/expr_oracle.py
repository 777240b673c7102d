"""Reference evaluator of the expression language: a walk over the parse tree.

The package compiles an expression once per set of points, folding every
subtree free of y into a value (ssnbilinear.expressions._compile).  The
tests compare it against this walk, which evaluates the whole tree on
every call with the same operations in the same order.  Constants are
numpy float64, as in the package.
"""

import numpy as np

from ssnbilinear.expressions import _FUNCTIONS, _SMALL_POWERS


def evaluate(node, env):
    """The value of the parse tree node; env maps x1, x2 and y to values."""
    kind = node[0]
    if kind == "num":
        return np.float64(node[1])
    if kind == "var":
        return env[node[1]]
    if kind == "neg":
        return -evaluate(node[1], env)
    if kind == "call":
        return _FUNCTIONS[node[1]](evaluate(node[2], env))
    a = evaluate(node[1], env)
    if kind == "^" and node[2] in _SMALL_POWERS:
        out = a
        for _ in range(int(node[2][1]) - 1):
            out = out * a
        return out
    b = evaluate(node[2], env)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    if kind == "/":
        return a / b
    if kind == "^":
        return a**b
    raise AssertionError(f"unhandled node {kind}")


def tree_walk(expression, x, y=None):
    """expression(x, y) by the walk, as Expression.__call__ binds the variables."""
    env = {"x1": x[:, 0], "x2": x[:, 1], "y": y}
    return evaluate(expression._ast, env)
