"""Problem data: benchmark values, bounds, validation diagnostics."""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from ssnbilinear import (
    ConfigurationError,
    benchmark_instance,
    build_uniform_mesh,
    validate,
)
from ssnbilinear.expressions import compile_expression
from ssnbilinear.problem import desired_state, nodal


def pts(*coords):
    return np.array(coords, dtype=float)


def test_benchmark_nonlinearity_point_values():
    spec = benchmark_instance()
    x = pts((0.25, 0.5))
    # at this point both sine factors are 1
    assert nodal(spec.a, x, np.array([0.0]))[0] == pytest.approx(-100.0, abs=1e-12)
    assert nodal(spec.a, x, np.array([1.0]))[0] == pytest.approx(-97.0, abs=1e-12)
    assert nodal(spec.a, x, np.array([-1.0]))[0] == pytest.approx(-103.0, abs=1e-12)


def test_benchmark_derivative_point_values():
    spec = benchmark_instance()
    x = pts((0.1, 0.9))
    ys = np.linspace(-4.0, 4.0, 41)
    for yv in ys:
        da = nodal(spec.da_dy, x, np.array([yv]))[0]
        assert da == pytest.approx(4.0 * yv * yv * abs(yv) + 2.0, rel=1e-14)
        assert da >= 2.0
        d2a = nodal(spec.d2a_dy2, x, np.array([yv]))[0]
        assert d2a == pytest.approx(12.0 * yv * abs(yv), rel=1e-14, abs=1e-14)


def test_benchmark_derivatives_match_finite_differences():
    spec = benchmark_instance()
    x = pts((0.3, 0.7))
    y0 = 1.3
    errs = []
    for t in (1e-2, 1e-3):
        fd = (
            nodal(spec.a, x, np.array([y0 + t]))[0]
            - nodal(spec.a, x, np.array([y0 - t]))[0]
        ) / (2 * t)
        errs.append(abs(fd - nodal(spec.da_dy, x, np.array([y0]))[0]))
    order = math.log(errs[0] / errs[1]) / math.log(10.0)
    assert order >= 1.9


def test_desired_state_values():
    x = pts((0.5, 0.5), (0.25, 0.75), (0.0, 0.3), (1.0, 0.6))
    np.testing.assert_allclose(desired_state(x), [-4.0, -2.25, 0.0, 0.0], atol=1e-14)


def test_benchmark_passes_validation():
    assert validate(benchmark_instance()) == []


def test_validate_evaluates_each_callback_on_the_whole_sample():
    # one call per finite-difference step, not one per sampled state value
    spec = benchmark_instance()
    sizes = []

    def counted(fn):
        def wrapper(x, y):
            sizes.append(x.shape[0])
            return fn(x, y)

        return wrapper

    names = ("a", "da_dy", "d2a_dy2", "L", "dL_dy", "d2L_dy2")
    counted_spec = dataclasses.replace(
        spec, **{name: counted(getattr(spec, name)) for name in names}
    )
    assert validate(counted_spec) == []
    assert len(sizes) <= 40
    assert set(sizes) == {25 * 33}


@pytest.mark.parametrize(
    "flux, value",
    [
        (lambda x: np.float64(0.0) / 0.0, "nan"),
        (compile_expression("10^400", with_y=False), "inf"),
        (compile_expression("1 / x1", with_y=False), "inf"),
        (compile_expression("x2 - 0/0 * x1", with_y=False), "nan"),
    ],
)
def test_validate_flags_a_flux_that_is_not_finite_on_the_boundary(flux, value):
    spec = dataclasses.replace(benchmark_instance(), g=flux)
    with np.errstate(all="raise"):  # the verdict holds under any filter
        msgs = validate(spec, derivative_check=False)
    assert msgs == [f"g must be finite on the boundary; sampled value {value}"]


def test_linear_tracking_variant():
    spec = benchmark_instance(tracking="linear")
    x = pts((0.5, 0.5))
    assert nodal(spec.L, x, np.array([0.0]))[0] == pytest.approx(2.0)  # 0.5*(0-(-4))
    assert nodal(spec.d2L_dy2, x, np.array([3.0]))[0] == 0.0
    assert validate(spec) == []


def test_unknown_tracking_rejected():
    with pytest.raises(ConfigurationError):
        benchmark_instance(tracking="cubic")


def test_nodal_broadcasts_scalars():
    x = pts((0.1, 0.2), (0.3, 0.4), (0.5, 0.6))
    out = nodal(lambda x, y: 2.5, x, np.zeros(3))
    np.testing.assert_array_equal(out, [2.5, 2.5, 2.5])
    out = nodal(lambda x: 0.0, x)
    assert out.shape == (3,)


# --- validation diagnostics --------------------------------------------


def test_validate_flags_bad_nu():
    spec = dataclasses.replace(benchmark_instance(), nu=0.0)
    msgs = validate(spec, derivative_check=False)
    assert any("nu" in m for m in msgs)


def test_validate_flags_bad_a0():
    spec = dataclasses.replace(benchmark_instance(), a0=-1.0)
    msgs = validate(spec, derivative_check=False)
    assert any("a0" in m for m in msgs)


def test_validate_flags_infinite_alpha():
    spec = dataclasses.replace(benchmark_instance(), alpha=-math.inf)
    msgs = validate(spec, derivative_check=False)
    assert any("alpha must be finite" in m for m in msgs)


def test_validate_flags_crossed_bounds():
    spec = dataclasses.replace(benchmark_instance(), alpha=2.0, beta=1.0)
    msgs = validate(spec, derivative_check=False)
    assert any("alpha < beta" in m for m in msgs)


def test_validate_flags_alpha_below_monotonicity_margin():
    # coercivity needs -a0 < alpha; alpha = -3 with a0 = 2 breaks it
    spec = dataclasses.replace(benchmark_instance(), alpha=-3.0)
    msgs = validate(spec, derivative_check=False)
    assert any("-a0" in m or "exceed" in m for m in msgs)


def test_validate_flags_indefinite_diffusion():
    spec = dataclasses.replace(
        benchmark_instance(), diffusion=np.array([[-1.0, 0.0], [0.0, 1.0]])
    )
    msgs = validate(spec, derivative_check=False)
    assert any("positive definite" in m for m in msgs)


def test_validate_flags_derivative_below_a0():
    spec = dataclasses.replace(benchmark_instance(), da_dy=lambda x, y: 1.0)
    msgs = validate(spec, derivative_check=False)
    assert any("sampled minimum" in m for m in msgs)


def test_validate_flags_a_nan_derivative():
    spec = benchmark_instance()
    nan_below_zero = lambda x, y: np.where(y < 0, np.nan, spec.da_dy(x, y))
    msgs = validate(dataclasses.replace(spec, da_dy=nan_below_zero), derivative_check=False)
    assert msgs == ["da_dy must stay >= a0 = 2.0; sampled minimum nan"]


def test_validate_flags_a_nan_expression_whatever_the_warning_filter():
    # the suite turns warnings into errors; numpy's invalid-value warning
    # must not turn the NaN verdict into an evaluation failure
    spec = benchmark_instance()
    da_dy = compile_expression("4 * y^2 * abs(y) + 2 + 0 * y^0.5", with_y=True)
    msgs = validate(dataclasses.replace(spec, da_dy=da_dy), derivative_check=False)
    assert msgs == ["da_dy must stay >= a0 = 2.0; sampled minimum nan"]


def test_validate_flags_inconsistent_derivative():
    spec = dataclasses.replace(
        benchmark_instance(), da_dy=lambda x, y: 4.0 * y * y * np.abs(y) + 2.5
    )
    msgs = validate(spec)
    assert any("derivative consistency failed for da_dy vs a" in m for m in msgs)


def test_validate_flags_a_nan_derivative_pair():
    spec = benchmark_instance()
    nan_below_zero = lambda x, y: np.where(y < 0, np.nan, spec.dL_dy(x, y))
    msgs = validate(dataclasses.replace(spec, dL_dy=nan_below_zero))
    assert any("derivative consistency failed for dL_dy vs L" in m for m in msgs)


def test_validate_derivative_check_can_be_skipped():
    spec = dataclasses.replace(
        benchmark_instance(), dL_dy=lambda x, y: np.zeros_like(y)
    )
    assert validate(spec, derivative_check=False) == []
    assert any("dL_dy" in m for m in validate(spec, derivative_check=True))


def test_validate_collects_multiple_violations():
    spec = dataclasses.replace(benchmark_instance(), nu=-1.0, a0=-2.0)
    msgs = validate(spec, derivative_check=False)
    assert len(msgs) >= 2


def test_validate_reports_broken_callable():
    def boom(x, y):
        raise RuntimeError("broken")

    spec = dataclasses.replace(benchmark_instance(), da_dy=boom)
    msgs = validate(spec, derivative_check=False)
    assert any("could not be evaluated" in m for m in msgs)


def readme_problem_expressions():
    """The [problem] keys of the README's expression example."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8"
    )
    block = re.search(r"```ini\n\[problem\]\n(a .*?)```", readme, re.DOTALL).group(1)
    return dict(
        (key.strip(), value.strip())
        for key, value in (line.split("=", 1) for line in block.splitlines())
    )


def test_preset_nonlinearity_is_bitwise_the_readme_expressions():
    spec = benchmark_instance()
    texts = readme_problem_expressions()
    x = build_uniform_mesh(5).nodes
    y = np.random.default_rng(11).uniform(-4.0, 4.0, x.shape[0])
    for name in ("a", "da_dy", "d2a_dy2"):
        expected = nodal(compile_expression(texts[name]), x, y)
        assert nodal(getattr(spec, name), x, y).tobytes() == expected.tobytes(), name
