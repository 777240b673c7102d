"""Derivative verification driver and its report formatting."""

import dataclasses
import math

import numpy as np
import pytest

from ssnbilinear import benchmark_instance, format_verification, verify_derivatives


def test_verify_benchmark_passes_on_coarse_mesh():
    result = verify_derivatives(benchmark_instance(), level=2, directions=2, seed=99)
    assert result.passed
    assert len(result.directions) == 2
    for rep in result.directions:
        assert not rep.skipped
        assert rep.grad_order >= 1.9 or math.isinf(rep.grad_order)
        assert rep.curv_order >= 1.9 or math.isinf(rep.curv_order)
    for resid in result.symmetry:
        assert resid <= 1e-10


def test_verify_is_seed_reproducible():
    a = verify_derivatives(benchmark_instance(), level=2, directions=2, seed=5)
    b = verify_derivatives(benchmark_instance(), level=2, directions=2, seed=5)
    for ra, rb in zip(a.directions, b.directions):
        assert ra.grad_errors == rb.grad_errors
        assert ra.curv_errors == rb.curv_errors


def test_verify_skips_zero_directions():
    spec = benchmark_instance()
    n = (2**2 + 1) ** 2
    dirs = [np.zeros(n), np.ones(n)]
    result = verify_derivatives(spec, level=2, direction_vectors=dirs)
    assert result.directions[0].skipped
    assert not result.directions[1].skipped
    assert result.passed  # one informative direction is enough


def test_format_verification_is_readable():
    result = verify_derivatives(benchmark_instance(), level=2, directions=2, seed=99)
    text = format_verification(result)
    assert "PASS" in text
    assert "direction 0" in text
    # roundoff-floored error sequences report an infinite decay order
    if any(math.isinf(r.grad_order) for r in result.directions):
        assert "floor" in text


def test_verify_reports_its_work_and_warm_starts_halve_it():
    # a cold start at every FD point made 430 Newton steps and 1050
    # preconditioner applications here
    result = verify_derivatives(benchmark_instance(), level=4, directions=5, seed=1234)
    assert result.passed
    assert 0 < result.newton_count <= 215
    assert 0 < result.pcg_count <= 525
    assert result.factor_count == 2
    lines = format_verification(result).splitlines()
    assert lines[-2] == (
        f"work: newton {result.newton_count}, pcg {result.pcg_count}, "
        "factorizations 2"
    )
    assert lines[-1] == "verdict: PASS"


def scaled(fn, factor):
    return lambda x, y: factor * np.asarray(fn(x, y))


@pytest.mark.parametrize(
    "field,factor",
    [("dL_dy", 1.0 + 1e-6), ("d2L_dy2", 1.0 + 1e-4), ("d2a_dy2", 1.0 + 1e-4)],
)
def test_verify_fails_on_a_slightly_wrong_derivative(field, factor):
    spec = benchmark_instance()
    wrong = dataclasses.replace(spec, **{field: scaled(getattr(spec, field), factor)})
    assert not verify_derivatives(wrong, level=4, directions=5, seed=1234).passed
