"""Tiny arithmetic expression language for user-defined problem data.

Grammar (infix; ^ is right-associative exponentiation binding tighter
than unary minus):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | 'pi' | VARIABLE | FUNC '(' expr ')' | '(' expr ')'

Variables are x1, x2 (point coordinates) and y (state value); functions
are sin, cos, exp, abs.  Compiled expressions evaluate vectorized over
numpy arrays.  Errors carry the offending column so a config file line
can be repaired without guessing.

A power whose exponent is the literal 2, 3 or 4 is multiplied out left
to right (a^3 = (a*a)*a): numpy's pow is many times slower, and the
product differs from it by about one unit in the last place (a^2 not at
all, since numpy squares `** 2.0` by a*a).  Every other exponent, such
as y^2.5 or y^(1+1), goes through `**`.
"""

import re

import numpy as np

from .errors import ConfigurationError

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}
_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
# Exponent nodes evaluated by repeated multiplication.
_SMALL_POWERS = {("num", 2.0), ("num", 3.0), ("num", 4.0)}


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.variables = variables
        self.pos = 0

    def error(self, message: str) -> ConfigurationError:
        return ConfigurationError(
            f"expression error at column {self.pos + 1}: {message} "
            f"(in {self.text!r})"
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

    def parse(self):
        node = self.expr()
        if self.peek():
            raise self.error(f"unexpected {self.text[self.pos]!r}")
        return node

    def expr(self):
        node = self.term()
        while True:
            if self.take("+"):
                node = ("+", node, self.term())
            elif self.take("-"):
                node = ("-", node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            if self.take("*"):
                node = ("*", node, self.factor())
            elif self.take("/"):
                node = ("/", node, self.factor())
            else:
                return node

    def factor(self):
        if self.take("-"):
            return ("neg", self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        if self.take("^"):
            return ("^", node, self.factor())
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
            return ("num", float(m.group()))
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
                return ("call", name, node)
            if name == "pi":
                self.pos = m.end()
                return ("num", float(np.pi))
            if name in self.variables:
                self.pos = m.end()
                return ("var", name)
            raise self.error(
                f"unknown name {name!r}; allowed: {', '.join(self.variables)}, "
                f"pi, {', '.join(sorted(_FUNCTIONS))}"
            )
        raise self.error(f"unexpected {ch!r}")


def _evaluate(node, env):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return env[node[1]]
    if kind == "neg":
        return -_evaluate(node[1], env)
    if kind == "call":
        return _FUNCTIONS[node[1]](_evaluate(node[2], env))
    a = _evaluate(node[1], env)
    if kind == "^" and node[2] in _SMALL_POWERS:
        out = a
        for _ in range(int(node[2][1]) - 1):
            out = out * a
        return out
    b = _evaluate(node[2], env)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    if kind == "/":
        return a / b
    if kind == "^":
        return a ** b
    raise AssertionError(f"unhandled node {kind}")


class Expression:
    """A compiled expression; callable following the ProblemSpec convention."""

    def __init__(self, text: str, with_y: bool):
        self.text = text
        self.with_y = with_y
        variables = ("x1", "x2", "y") if with_y else ("x1", "x2")
        self._ast = _Parser(text, variables).parse()

    def __call__(self, x, y=None):
        env = {"x1": x[:, 0], "x2": x[:, 1]}
        if self.with_y:
            env["y"] = y
        return _evaluate(self._ast, env)

    def __repr__(self):
        return f"Expression({self.text!r})"


def compile_expression(text: str, with_y: bool = True) -> Expression:
    """Compile an expression over x1, x2 (and y unless with_y=False)."""
    if not text or not text.strip():
        raise ConfigurationError("expression is empty")
    return Expression(text.strip(), with_y)
