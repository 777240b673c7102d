"""Expression language: precedence, vectorization, error positions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ssnbilinear import ConfigurationError
from ssnbilinear.expressions import compile_expression


def ev(text, x1=0.0, x2=0.0, y=None):
    x = np.array([[x1, x2]])
    expr = compile_expression(text, with_y=y is not None)
    out = expr(x, None if y is None else np.array([y]))
    return float(np.asarray(out).ravel()[0])


@pytest.mark.parametrize(
    "text,value",
    [
        ("2+3*4", 14.0),
        ("(2+3)*4", 20.0),
        ("2*3^2", 18.0),
        ("2^3^2", 512.0),  # right-associative
        ("-2^2", -4.0),  # unary minus binds looser than ^
        ("(-2)^2", 4.0),
        ("1/4", 0.25),
        ("10-4-3", 3.0),  # left-associative
        ("--3", 3.0),
        ("1.5e2", 150.0),
        (".5 + 1e-3", 0.501),
        ("pi", float(np.pi)),
        ("sin(pi/2)", 1.0),
        ("cos(0)", 1.0),
        ("exp(0)", 1.0),
        ("abs(-3)", 3.0),
        ("sin(pi/6)^2 + cos(pi/6)^2", 1.0),
    ],
)
def test_constant_expressions(text, value):
    assert ev(text) == pytest.approx(value, rel=1e-14)


def test_variables():
    assert ev("x1*x2 + y", x1=2.0, x2=3.0, y=4.0) == pytest.approx(10.0)
    assert ev("x2 - x1", x1=0.25, x2=1.0) == pytest.approx(0.75)


def test_vectorized_evaluation():
    expr = compile_expression("y^3*abs(y) + 2*y - 100*sin(2*pi*x1)*sin(pi*x2)")
    x = np.array([[0.25, 0.5], [0.75, 0.5]])
    y = np.array([1.0, 0.0])
    out = expr(x, y)
    np.testing.assert_allclose(out, [-97.0, 100.0], atol=1e-12)


def test_flux_expressions_have_no_y():
    expr = compile_expression("x1 + x2", with_y=False)
    out = expr(np.array([[0.25, 0.5]]))
    np.testing.assert_allclose(out, [0.75])
    with pytest.raises(ConfigurationError, match="unknown name"):
        compile_expression("y + 1", with_y=False)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("2+", "column 3"),
        ("sin 3", "needs"),
        ("(1+2", r"expected '\)'"),
        ("foo(3)", "unknown name"),
        ("2**3", "unexpected"),
        ("1 2", "unexpected"),
        ("", "empty"),
        ("   ", "empty"),
    ],
)
def test_parse_errors_carry_position(text, fragment):
    with pytest.raises(ConfigurationError, match=fragment):
        compile_expression(text)


def test_repr_mentions_source():
    assert "x1" in repr(compile_expression("x1 + 1", with_y=False))


def ulp_distance(a, b):
    """Units in the last place between float64 arrays of one sign convention."""
    ia = np.asarray(a, dtype=np.float64).view(np.int64)
    ib = np.asarray(b, dtype=np.float64).view(np.int64)
    ia = np.where(ia < 0, np.iinfo(np.int64).min - ia, ia)
    ib = np.where(ib < 0, np.iinfo(np.int64).min - ib, ib)
    return np.abs(ia - ib)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
def test_small_integer_powers_are_products(values):
    y = np.array(values)
    x = np.zeros((y.size, 2))
    with np.errstate(over="ignore", under="ignore"):
        cube = compile_expression("y^3")(x, y)
        assert np.array_equal(cube, y * y * y)
        finite = np.isfinite(cube) & np.isfinite(y**3)
        assert np.all(ulp_distance(cube[finite], (y**3)[finite]) <= 2)
        square = compile_expression("y^2")(x, y)
        assert square.tobytes() == (y**2).tobytes()


class PowerProbe:
    """A stand-in for y that records whether a power multiplies or calls **."""

    def __init__(self):
        self.ops = []

    def __mul__(self, other):
        self.ops.append("*")
        return self

    def __pow__(self, exponent):
        self.ops.append(("**", exponent))
        return self


@pytest.mark.parametrize(
    "text,ops",
    [
        ("y^2", ["*"]),
        ("y^3", ["*", "*"]),
        ("y^4", ["*", "*", "*"]),
        ("y^2.5", [("**", 2.5)]),
        ("y^(1+1)", [("**", 2.0)]),
        ("y^5", [("**", 5.0)]),
        ("y^-1", [("**", -1.0)]),
    ],
)
def test_only_literal_exponents_two_to_four_multiply(text, ops):
    probe = PowerProbe()
    compile_expression(text)(np.zeros((1, 2)), probe)
    assert probe.ops == ops


def test_integer_power_edge_cases():
    assert ev("2^-1") == 0.5
    assert ev("(-2)^3") == -8.0
    assert ev("(-2)^4") == 16.0
    assert ev("1e200^3") == float("inf")
