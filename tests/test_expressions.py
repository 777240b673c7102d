"""Expression language: precedence, vectorization, error positions, and
the compiled form against the tree walk of expr_oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expr_oracle import tree_walk
from ssnbilinear import ConfigurationError, build_uniform_mesh
from ssnbilinear.expressions import MAX_DEPTH, compile_expression
from ssnbilinear.problem import nodal


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


@pytest.mark.parametrize(
    "text,value",
    [("0/0", np.nan), ("-1/0", -np.inf), ("10^400", np.inf), ("1e400 - 1e400", np.nan)],
)
def test_constants_are_float64_and_may_be_nonfinite(text, value):
    out = compile_expression(text, with_y=False)(np.zeros((1, 2)))
    assert isinstance(out, np.float64)
    np.testing.assert_array_equal(out, value)


@pytest.mark.parametrize(
    "text,column",
    [
        ("(" * 101 + "y" + ")" * 101, 101),
        ("-" * 101 + "y", 101),
        ("2^" * 101 + "y", 201),
        ("sin(" * 101 + "y" + ")" * 101, 401),
        ("+".join(["y"] * 102), 202),
        ("*".join(["y"] * 102), 202),
        ("y+(" + "y*" * 99 + "y)", 204),  # a tree of depth 100 under a sum
    ],
    ids=["parentheses", "minus", "powers", "calls", "sum", "product", "sum-of-product"],
)
def test_trees_deeper_than_the_bound_are_rejected_at_a_column(text, column):
    with pytest.raises(ConfigurationError) as exc:
        compile_expression(text)
    assert str(exc.value).startswith(
        f"expression error at column {column}: expression is nested deeper "
        f"than {MAX_DEPTH} levels"
    )


def test_a_tree_at_the_bound_parses_and_evaluates():
    y = np.array([2.0])
    x = np.zeros((1, 2))
    deep = "(" * 99 + "y" + ")" * 99
    assert compile_expression(f"{deep} + {'+'.join(['1'] * 99)}")(x, y)[0] == 101.0
    assert compile_expression("-" * 99 + "y")(x, y)[0] == -2.0


def test_a_writable_x_is_evaluated_afresh():
    expr = compile_expression("sin(x1) * y + x2")
    x = np.array([[0.1, 0.2], [0.3, 0.4]])
    y = np.array([1.0, 2.0])
    expr(x, y)
    x[:, 0] = [0.5, 0.7]
    x[:, 1] = [1.0, 2.0]
    np.testing.assert_array_equal(expr(x, y), np.sin(x[:, 0]) * y + x[:, 1])


def test_values_kept_for_a_mesh_are_read_only():
    nodes = build_uniform_mesh(2).nodes
    assert not nodes.flags.writeable
    flux = compile_expression("64 * x1 * (1 - x1)", with_y=False)
    kept = nodal(flux, nodes)
    assert kept is flux(nodes) and kept.shape == (nodes.shape[0],)
    with pytest.raises(ValueError, match="read-only"):
        kept[0] = 1.0
    np.testing.assert_array_equal(kept, 64 * nodes[:, 0] * (1 - nodes[:, 0]))


# y is drawn as often as all the other leaves together
LEAVES = ["x1", "x2", "pi", "0", "1", "2", "0.5", "3", "10", "1e400", "1e-320"]
LEAF = st.one_of(st.just("y"), st.sampled_from(LEAVES))


def _compound(children):
    binary = st.tuples(children, st.sampled_from("+-*/^"), children)
    return st.one_of(
        binary.map("".join),  # precedence and associativity decide the tree
        binary.map(lambda t: f"({''.join(t)})"),
        children.map(lambda c: f"-{c}"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "abs"]), children).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
        st.tuples(children, st.sampled_from("234")).map(lambda t: f"({t[0]})^{t[1]}"),
        # deep nesting and long left-deep chains, either side of the bound
        st.tuples(st.integers(1, MAX_DEPTH + 5), children).map(
            lambda t: "(" * t[0] + t[1] + ")" * t[0]
        ),
        st.tuples(st.integers(2, MAX_DEPTH + 5), children).map(
            lambda t: "-".join([t[1]] * t[0])
        ),
    )


EXPRESSIONS = st.recursive(LEAF, _compound, max_leaves=12)
# y takes NaN, infinities, zeros of both signs and huge values
STATES = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300, -2.5, 0.75, 3.0])


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(derandomize=True, max_examples=150)
@given(EXPRESSIONS)
def test_compiled_expressions_match_the_tree_walk_bit_for_bit(text):
    try:
        expr = compile_expression(text)
    except ConfigurationError as exc:
        assert "nested deeper" in str(exc)
        return
    side = np.linspace(0.0, 1.0, 3)
    read_only = np.column_stack([np.repeat(side, 3), np.tile(side, 3)])
    writable = read_only.copy()
    read_only.flags.writeable = False
    with np.errstate(all="ignore"):
        for x in (read_only, read_only, writable):  # compiled, kept, afresh
            assert same_bits(expr(x, STATES), tree_walk(expr, x, STATES)), text
