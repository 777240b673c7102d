"""INI run-configuration parsing and validation."""

import math

import numpy as np
import pytest

from ssnbilinear import ConfigurationError, parse_config
from ssnbilinear.config import RunConfig, VerifySettings
from ssnbilinear.problem import nodal


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


MINIMAL = """
[problem]
preset = benchmark

[mesh]
levels = 3
"""


def test_minimal_benchmark_config(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, MINIMAL))
    assert isinstance(cfg, RunConfig)
    assert cfg.levels == (3,)
    assert cfg.output_dir == "out"
    assert cfg.write_fields is True
    assert cfg.ssn.outer_tol == 5e-14
    assert cfg.ssn.max_outer == 30
    assert cfg.ssn.u0 is None
    assert cfg.verify == VerifySettings(level=4, directions=5, seed=1234)
    assert cfg.spec.nu == 0.05
    # the parsed spec evaluates like the built-in benchmark
    x = np.array([[0.25, 0.5]])
    assert cfg.spec.a(x, np.zeros(1))[0] == pytest.approx(-100.0)


def test_missing_file():
    with pytest.raises(ConfigurationError, match="not found"):
        parse_config("/nonexistent/run.cfg")


def test_missing_problem_section(tmp_path):
    with pytest.raises(ConfigurationError, match=r"missing \[problem\]"):
        parse_config(write_cfg(tmp_path, "[mesh]\nlevels = 3\n"))


def test_unknown_preset(tmp_path):
    text = "[problem]\npreset = mystery\n\n[mesh]\nlevels = 3\n"
    with pytest.raises(ConfigurationError, match="unknown preset"):
        parse_config(write_cfg(tmp_path, text))


def test_levels_required(tmp_path):
    text = "[problem]\npreset = benchmark\n\n[mesh]\nlevels =\n"
    with pytest.raises(ConfigurationError, match="at least one mesh level"):
        parse_config(write_cfg(tmp_path, text))


def test_levels_parsing(tmp_path):
    text = "[problem]\npreset = benchmark\n\n[mesh]\nlevels = 2, 4 6\n"
    assert parse_config(write_cfg(tmp_path, text)).levels == (2, 4, 6)


@pytest.mark.parametrize(
    "levels, fragment",
    [("2 wide", "must be integers"), ("0", "outside"), ("99", "outside")],
)
def test_bad_levels(tmp_path, levels, fragment):
    text = f"[problem]\npreset = benchmark\n\n[mesh]\nlevels = {levels}\n"
    with pytest.raises(ConfigurationError, match=fragment):
        parse_config(write_cfg(tmp_path, text))


CUSTOM = """
[problem]
a = y - 1
da_dy = 1
d2a_dy2 = 0
L = 0.5 * y^2
dL_dy = y
d2L_dy2 = 1
g = 0
alpha = -0.5
beta = 0.5
nu = 0.1
a0 = 1

[mesh]
levels = 2
"""


def test_custom_problem_via_expressions(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, CUSTOM))
    spec = cfg.spec
    assert spec.alpha == -0.5 and spec.beta == 0.5
    assert spec.nu == 0.1 and spec.a0 == 1.0
    x = np.array([[0.3, 0.7], [0.1, 0.1]])
    y = np.array([2.0, -1.0])
    np.testing.assert_allclose(spec.a(x, y), y - 1.0)
    np.testing.assert_allclose(spec.L(x, y), 0.5 * y**2)
    np.testing.assert_allclose(spec.g(x), 0.0)


def test_custom_problem_missing_function(tmp_path):
    text = CUSTOM.replace("da_dy = 1\n", "")
    with pytest.raises(ConfigurationError, match="da_dy"):
        parse_config(write_cfg(tmp_path, text))


@pytest.mark.parametrize("token", ["inf", "+inf", "Inf"])
def test_infinite_beta_token(tmp_path, token):
    text = CUSTOM.replace("beta = 0.5", f"beta = {token}")
    cfg = parse_config(write_cfg(tmp_path, text))
    assert cfg.spec.beta == math.inf


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("nu = 0.1\n", "", "[problem] missing required key 'nu'"),
        ("nu = 0.1", "nu = x", "[problem] nu must be a real number, got 'x'"),
    ],
    ids=["missing", "not-a-number"],
)
def test_problem_real_messages(tmp_path, old, new, message):
    with pytest.raises(ConfigurationError) as exc:
        parse_config(write_cfg(tmp_path, CUSTOM.replace(old, new)))
    assert message in str(exc.value)


def test_semantic_violations_are_collected(tmp_path):
    # two independent problems reported in one exception
    text = CUSTOM.replace("nu = 0.1", "nu = -1").replace("a0 = 1", "a0 = -2")
    with pytest.raises(ConfigurationError) as exc:
        parse_config(write_cfg(tmp_path, text))
    msg = str(exc.value)
    assert "nu" in msg and "a0" in msg


def test_fd_check_gating(tmp_path):
    # a wrong hand-coded derivative passes only when fd_check is off
    broken = CUSTOM.replace("da_dy = 1", "da_dy = 3")
    with pytest.raises(ConfigurationError, match="consistency"):
        parse_config(write_cfg(tmp_path, broken))
    relaxed = broken.replace("[problem]", "[problem]\nfd_check = off")
    cfg = parse_config(write_cfg(tmp_path, relaxed))
    assert cfg.spec is not None


def test_expression_errors_name_the_key(tmp_path):
    text = CUSTOM.replace("L = 0.5 * y^2", "L = 0.5 *")
    with pytest.raises(ConfigurationError, match="L:"):
        parse_config(write_cfg(tmp_path, text))


def test_ssn_overrides(tmp_path):
    text = MINIMAL + "\n[ssn]\nouter_tol = 1e-10\nmax_outer = 12\nmax_cg = 40\nu0 = 0.25\n"
    cfg = parse_config(write_cfg(tmp_path, text))
    assert cfg.ssn.outer_tol == 1e-10
    assert cfg.ssn.max_outer == 12
    assert cfg.ssn.max_cg == 40
    assert cfg.ssn.u0 == 0.25


@pytest.mark.parametrize(
    "extra, fragment",
    [
        ("[ssn]\nouter_tol = 0\n", "positive"),
        ("[ssn]\nmax_outer = 0\n", "at least 1"),
        ("[ssn]\nmax_outer = soon\n", "integer"),
        ("[verify]\nlevel = 0\n", "outside"),
        ("[verify]\ndirections = 0\n", "at least 1"),
        ("[output]\nwrite_fields = maybe\n", "on/off"),
    ],
)
def test_section_violations(tmp_path, extra, fragment):
    with pytest.raises(ConfigurationError, match=fragment):
        parse_config(write_cfg(tmp_path, MINIMAL + "\n" + extra))


def test_output_and_verify_sections(tmp_path):
    text = MINIMAL + (
        "\n[output]\ndirectory = results\nwrite_fields = off\n"
        "\n[verify]\nlevel = 3\ndirections = 2\nseed = 7\n"
    )
    cfg = parse_config(write_cfg(tmp_path, text))
    assert cfg.output_dir == "results"
    assert cfg.write_fields is False
    assert cfg.verify == VerifySettings(level=3, directions=2, seed=7)


def test_inline_comments(tmp_path):
    text = "[problem]\npreset = benchmark  # reference run\n\n[mesh]\nlevels = 3  ; coarse\n"
    cfg = parse_config(write_cfg(tmp_path, text))
    assert cfg.levels == (3,)


def test_linear_tracking_switch(tmp_path):
    text = MINIMAL.replace("preset = benchmark", "preset = benchmark\ntracking = linear")
    x = np.array([[0.5, 0.5]])
    # quadratic tracking (the default) has unit curvature, linear has zero
    default = parse_config(write_cfg(tmp_path, MINIMAL, name="default.cfg"))
    assert nodal(default.spec.d2L_dy2, x, np.array([3.0]))[0] == 1.0
    cfg = parse_config(write_cfg(tmp_path, text))
    assert nodal(cfg.spec.d2L_dy2, x, np.array([3.0]))[0] == 0.0


def test_bad_tracking_value(tmp_path):
    text = MINIMAL.replace("preset = benchmark", "preset = benchmark\ntracking = cubic")
    with pytest.raises(ConfigurationError, match="tracking"):
        parse_config(write_cfg(tmp_path, text))
