"""Tiny arithmetic expression language for user-defined problem data.

Grammar (infix; ^ is right-associative exponentiation binding tighter
than unary minus):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | 'pi' | VARIABLE | FUNC '(' expr ')' | '(' expr ')'

Variables are x1, x2 (point coordinates) and y (state value); functions
are sin, cos, exp, abs.  Expressions evaluate vectorized over numpy
arrays.  Errors carry the offending column so a config file line can be
repaired without guessing, and quote the text around it; a parse tree
deeper than MAX_DEPTH is an error too.

An expression is compiled once per set of points x (a mesh's nodes):
every subtree free of y is evaluated then, constants in numpy float64
(0/0 is nan and 10^400 is inf), and kept as a read-only value, and each
call on those points runs only the operations that involve y, in the
order of the tree.  The result is the same, bit for bit, as evaluating
the whole tree on every call.

A power whose exponent is the literal 2, 3 or 4 is multiplied out left
to right (a^3 = (a*a)*a): numpy's pow is many times slower, and the
product differs from it by about one unit in the last place (a^2 not at
all, since numpy squares `** 2.0` by a*a).  Every other exponent, such
as y^2.5 or y^(1+1), goes through `**`.
"""

import functools
import operator
import re

import numpy as np

from .errors import ConfigurationError

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}
_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
# Exponent nodes evaluated by repeated multiplication.
_SMALL_POWERS = {("num", 2.0), ("num", 3.0), ("num", 4.0)}
_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": operator.pow,
}
# The deepest parse tree, and the deepest nesting of parentheses, function
# calls, unary minuses and exponents, an expression may have: parsing,
# compiling and evaluating each recurse once per level.
MAX_DEPTH = 100
# An error message quotes the text this far on each side of its column.
_EXCERPT = 40


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.variables = variables
        self.pos = 0
        # nested factor() calls in progress, and the depth of each tree built
        self.nesting = 0
        self.depths = {}

    def error(self, message: str) -> ConfigurationError:
        start, end = max(0, self.pos - _EXCERPT), self.pos + _EXCERPT
        cut = "..." * (start > 0), "..." * (end < len(self.text))
        return ConfigurationError(
            f"expression error at column {self.pos + 1}: {message} "
            f"(in {cut[0]}{self.text[start:end]!r}{cut[1]})"
        )

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def node(self, *node):
        """The tree node, once its depth is checked against MAX_DEPTH."""
        depth = 1 + max(
            (self.depths[id(c)] for c in node[1:] if isinstance(c, tuple)), default=0
        )
        if depth > MAX_DEPTH:
            raise self.error(f"expression is nested deeper than {MAX_DEPTH} levels")
        self.depths[id(node)] = depth
        return node

    def parse(self):
        node = self.expr()
        if self.peek():
            raise self.error(f"unexpected {self.text[self.pos]!r}")
        return node

    def expr(self):
        node = self.term()
        while True:
            if self.take("+"):
                node = self.node("+", node, self.term())
            elif self.take("-"):
                node = self.node("-", node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            if self.take("*"):
                node = self.node("*", node, self.factor())
            elif self.take("/"):
                node = self.node("/", node, self.factor())
            else:
                return node

    def factor(self):
        # every recursion of the parser passes through here
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise self.error(f"expression is nested deeper than {MAX_DEPTH} levels")
        node = self.node("neg", self.factor()) if self.take("-") else self.power()
        self.nesting -= 1
        return node

    def power(self):
        node = self.atom()
        if self.take("^"):
            return self.node("^", node, self.factor())
        return node

    def atom(self):
        ch = self.peek()
        if not ch:
            raise self.error("unexpected end of expression")
        if ch == "(":
            self.pos += 1
            node = self.expr()
            if not self.take(")"):
                raise self.error("expected ')'")
            return node
        m = _NUMBER.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return self.node("num", float(m.group()))
        m = _NAME.match(self.text, self.pos)
        if m:
            name = m.group()
            if name in _FUNCTIONS:
                self.pos = m.end()
                if not self.take("("):
                    raise self.error(f"function {name} needs '(...)'")
                node = self.expr()
                if not self.take(")"):
                    raise self.error("expected ')'")
                return self.node("call", name, node)
            if name == "pi":
                self.pos = m.end()
                return self.node("num", float(np.pi))
            if name in self.variables:
                self.pos = m.end()
                return self.node("var", name)
            raise self.error(
                f"unknown name {name!r}; allowed: {', '.join(self.variables)}, "
                f"pi, {', '.join(sorted(_FUNCTIONS))}"
            )
        raise self.error(f"unexpected {ch!r}")


def _small_power(a, n: int):
    """a^n for n in 2..4, multiplied out left to right: (a*a)*a for n = 3."""
    out = a
    for _ in range(n - 1):
        out = out * a
    return out


def _fold(value):
    """A value computed from constants and x alone, made read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    return value


def _unary(op, a):
    if callable(a):
        return lambda y: op(a(y))
    return _fold(op(a))


def _binary(op, a, b):
    if callable(a):
        if callable(b):
            return lambda y: op(a(y), b(y))
        return lambda y: op(a(y), b)
    if callable(b):
        return lambda y: op(a, b(y))
    return _fold(op(a, b))


def _state(y):
    return y


def _compile(node, x):
    """The parse tree node on the points x.

    A node that does not use y is evaluated here, once, and returned as
    its value (a float64 scalar or a read-only array; no value is
    callable).  A node that uses y is returned as a function of y that
    applies the node's operations to its operands in the order of the
    tree, reading the values of its y-free operands.  Constants are numpy
    float64, so a division by zero or an overflow gives inf or nan.
    """
    kind = node[0]
    if kind == "num":
        return np.float64(node[1])
    if kind == "var":
        return _state if node[1] == "y" else x[:, 0 if node[1] == "x1" else 1]
    if kind == "neg":
        return _unary(operator.neg, _compile(node[1], x))
    if kind == "call":
        return _unary(_FUNCTIONS[node[1]], _compile(node[2], x))
    a = _compile(node[1], x)
    if kind == "^" and node[2] in _SMALL_POWERS:
        return _unary(functools.partial(_small_power, n=int(node[2][1])), a)
    return _binary(_BINARY[kind], a, _compile(node[2], x))


class Expression:
    """A parsed expression; callable following the ProblemSpec convention.

    The first call on a read-only x compiles the expression for those
    points (see _compile) and keeps the result until a call on other
    points; a read-only x is taken never to change.  A writable x is
    compiled afresh on every call.
    """

    def __init__(self, text: str, with_y: bool):
        self.text = text
        self.with_y = with_y
        variables = ("x1", "x2", "y") if with_y else ("x1", "x2")
        self._ast = _Parser(text, variables).parse()
        self._points = None
        self._compiled = None

    def _compile_on(self, x):
        # x-only subtrees may divide by zero or overflow: they give inf or nan
        with np.errstate(all="ignore"):
            compiled = _compile(self._ast, x)
        if not x.flags.writeable:
            self._points, self._compiled = x, compiled
        return compiled

    def __call__(self, x, y=None):
        compiled = self._compiled if x is self._points else self._compile_on(x)
        return compiled(y) if callable(compiled) else compiled

    def __repr__(self):
        return f"Expression({self.text!r})"


def compile_expression(text: str, with_y: bool = True) -> Expression:
    """Compile an expression over x1, x2 (and y unless with_y=False)."""
    if not text or not text.strip():
        raise ConfigurationError("expression is empty")
    return Expression(text.strip(), with_y)
