"""Derivative verification driver and its report formatting."""

import dataclasses
import math

import numpy as np
import pytest

from ssnbilinear import (
    ConfigurationError,
    Discretization,
    benchmark_instance,
    build_uniform_mesh,
    format_verification,
    verify_derivatives,
)
from ssnbilinear import pde, verification
from ssnbilinear.verification import VerifySettings

COARSE = VerifySettings(level=2, directions=2, seed=99)


def test_verify_benchmark_passes_on_coarse_mesh():
    result = verify_derivatives(benchmark_instance(), COARSE)
    assert result.passed
    assert len(result.directions) == 2
    for rep in result.directions:
        assert rep.grad_order >= 1.9 or math.isinf(rep.grad_order)
        assert rep.curv_order >= 1.9 or math.isinf(rep.curv_order)
    for resid in result.symmetry:
        assert resid <= 1e-10


def test_verify_is_seed_reproducible():
    settings = VerifySettings(level=2, directions=2, seed=5)
    a = verify_derivatives(benchmark_instance(), settings)
    b = verify_derivatives(benchmark_instance(), settings)
    for ra, rb in zip(a.directions, b.directions):
        assert ra.grad_errors == rb.grad_errors
        assert ra.curv_errors == rb.curv_errors


def test_verify_draws_the_directions_from_one_seeded_generator(monkeypatch):
    # direction k is the (k+1)-th draw of default_rng(seed), normalized
    seen = []
    oracle = verification.fd_gradient_oracle
    monkeypatch.setattr(
        verification,
        "fd_gradient_oracle",
        lambda disc, u, y, v, ts, values: seen.append(v)
        or oracle(disc, u, y, v, ts, values),
    )
    settings = VerifySettings(level=2, directions=3, seed=7)
    verify_derivatives(benchmark_instance(), settings)
    assert len(seen) == 3
    rng = np.random.default_rng(7)
    disc = Discretization(benchmark_instance(), build_uniform_mesh(2))
    for v in seen:
        w = rng.standard_normal(disc.n_nodes)
        np.testing.assert_array_equal(v, w / disc.norm(w))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"level": 0}, "level 0 outside [1, 12]"),
        ({"level": 13}, "level 13 outside [1, 12]"),
        ({"directions": 0}, "directions must be at least 1"),
        (
            {"level": 2, "directions": 26},
            "directions must be at most 25, the node count of level 2, got 26",
        ),
        (
            {"directions": 10**20},
            "directions must be at most 289, the node count of level 4, "
            "got 100000000000000000000",
        ),
        ({"directions": 2.5}, "directions must be an integer, got 2.5"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"level": True}, "level must be an integer, got True"),
    ],
)
def test_verify_settings_reject_values_out_of_range(kwargs, message):
    with pytest.raises(ConfigurationError) as exc:
        VerifySettings(**kwargs)
    assert str(exc.value) == message


@pytest.mark.parametrize("nu", [0.0, -1.0])
def test_verify_rejects_the_problems_run_ssn_rejects(nu):
    spec = dataclasses.replace(benchmark_instance(), nu=nu)
    with pytest.raises(ConfigurationError) as exc:
        verify_derivatives(spec, COARSE)
    assert str(exc.value) == f"problem data invalid: nu must be positive, got {nu}"


def test_verify_settings_take_as_many_directions_as_nodes():
    assert VerifySettings(level=2, directions=25).directions == 25


def test_format_verification_is_readable():
    result = verify_derivatives(benchmark_instance(), COARSE)
    text = format_verification(result)
    assert "PASS" in text
    assert "direction 0" in text
    # roundoff-floored error sequences report an infinite decay order
    if any(math.isinf(r.grad_order) for r in result.directions):
        assert "floor" in text


def test_verify_reports_its_work_and_warm_starts_halve_it():
    # a cold start at every FD point made 430 Newton steps and 1050
    # preconditioner applications here
    result = verify_derivatives(benchmark_instance())
    assert result.settings == VerifySettings(level=4, directions=5, seed=1234)
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
    assert not verify_derivatives(wrong).passed


def test_verify_hessian_products_stay_at_the_base_point(monkeypatch):
    # with no PCG budget every state solve of the ladders factors Q anew;
    # each Hessian product must still use the factor of Q at the base
    # point that evaluate_reduced left
    monkeypatch.setattr(pde, "PCG_MAX_ITERS", 0)
    base, used = [], []
    evaluate_reduced = verification.evaluate_reduced
    hessian_vec = verification.hessian_vec

    def evaluated(disc, u):
        ev = evaluate_reduced(disc, u)
        base.append(disc.kept_factor)
        return ev

    def recorded(disc, *args):
        used.append(disc.kept_factor)
        return hessian_vec(disc, *args)

    monkeypatch.setattr(verification, "evaluate_reduced", evaluated)
    monkeypatch.setattr(verification, "hessian_vec", recorded)
    settings = VerifySettings(level=3)
    result = verify_derivatives(benchmark_instance(), settings)
    assert result.factor_count > 2 + settings.directions
    assert len(base) == 1 and base[0] is not None
    assert len(used) == settings.directions
    assert all(factor is base[0] for factor in used)
