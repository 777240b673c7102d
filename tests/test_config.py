"""INI run-configuration parsing and validation."""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from ssnbilinear import ConfigurationError, SSNConfig, parse_config
from ssnbilinear.config import _KEYS, RunConfig, VerifySettings
from ssnbilinear.problem import nodal

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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
    assert cfg.ssn.inner_tol == 5e-14
    assert cfg.ssn.u0 == 0.0
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
    [
        ("2 wide", "must be integers"),
        ("0", "outside"),
        ("99", "outside"),
        ("4 5, 5", r"\[mesh\] level 5 listed twice"),
    ],
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


def test_bad_booleans_name_their_section_and_key(tmp_path):
    text = MINIMAL.replace("[problem]", "[problem]\nfd_check = perhaps")
    with pytest.raises(ConfigurationError) as exc:
        parse_config(write_cfg(tmp_path, text + "\n[output]\nwrite_fields = Maybe\n"))
    assert str(exc.value).splitlines()[1:] == [
        "  [output] write_fields expected on/off, got 'Maybe'",
        "  [problem] fd_check expected on/off, got 'perhaps'",
    ]


def test_expression_errors_name_the_key(tmp_path):
    text = CUSTOM.replace("L = 0.5 * y^2", "L = 0.5 *")
    with pytest.raises(ConfigurationError, match="L:"):
        parse_config(write_cfg(tmp_path, text))


def test_ssn_overrides(tmp_path):
    text = MINIMAL + "\n[ssn]\nouter_tol = 1e-10\ninner_tol = 1e-12\nu0 = 0.25\n"
    cfg = parse_config(write_cfg(tmp_path, text))
    assert cfg.ssn.outer_tol == 1e-10
    assert cfg.ssn.inner_tol == 1e-12
    assert cfg.ssn.u0 == 0.25


@pytest.mark.parametrize(
    "extra, fragment",
    [
        ("[ssn]\nouter_tol = 0\n", "positive"),
        ("[ssn]\nouter_tol = inf\n", r"\[ssn\] tolerances must be positive and finite"),
        ("[ssn]\ninner_tol = inf\n", r"\[ssn\] tolerances must be positive and finite"),
        # the budgets are solver constants, not settings
        ("[ssn]\nmax_cg = 40\n", r"\[ssn\] unknown key 'max_cg'"),
        ("[ssn]\nmax_outer = 30\n", r"\[ssn\] unknown key 'max_outer'"),
        ("[ssn]\nouter_tol = soon\n", r"\[ssn\] outer_tol must be a real number"),
        ("[ssn]\nu0 = nan\n", r"\[ssn\] u0 must be a finite real"),
        ("[ssn]\nu0 = inf\n", r"\[ssn\] u0 must be a finite real"),
        ("[verify]\nlevel = 0\n", "outside"),
        ("[verify]\ndirections = 0\n", "at least 1"),
        ("[verify]\nseed = -1\n", r"\[verify\] seed must be nonnegative, got -1"),
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


def test_verify_section_reports_only_its_first_violation(tmp_path):
    text = MINIMAL + "\n[verify]\nlevel = 13\ndirections = 0\n"
    with pytest.raises(ConfigurationError) as exc:
        parse_config(write_cfg(tmp_path, text))
    assert "[verify] level 13 outside [1, 12]" in str(exc.value)
    assert "directions" not in str(exc.value)


EVERY_SECTION = MINIMAL + (
    "\n[ssn]\nu0 = 0\n\n[output]\ndirectory = out\n\n[verify]\nseed = 1\n"
)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("[ssn]", "[sovler]", "unknown section [sovler]"),
        ("u0 = 0", "innner_tol = 1e-10", "[ssn] unknown key 'innner_tol'"),
        ("u0", "max_iters", "[ssn] unknown key 'max_iters'"),
        ("levels = 3", "levels = 3\nlevel = 4", "[mesh] unknown key 'level'"),
        ("directory", "dir", "[output] unknown key 'dir'"),
        ("seed", "seeds", "[verify] unknown key 'seeds'"),
        ("preset", "fdcheck = off\npreset", "[problem] unknown key 'fdcheck'"),
    ],
)
def test_unknown_sections_and_keys_are_rejected(tmp_path, old, new, message):
    assert parse_config(write_cfg(tmp_path, EVERY_SECTION)).verify.seed == 1
    with pytest.raises(ConfigurationError) as exc:
        parse_config(write_cfg(tmp_path, EVERY_SECTION.replace(old, new)))
    assert message in str(exc.value)


def test_unknown_problem_key_is_rejected_in_any_case(tmp_path):
    # keys match case-insensitively, as configparser reads them
    cfg = parse_config(write_cfg(tmp_path, CUSTOM.replace("dL_dy", "DL_DY")))
    assert cfg.spec is not None
    with pytest.raises(ConfigurationError, match=r"\[problem\] unknown key 'ddl_dy'"):
        parse_config(write_cfg(tmp_path, CUSTOM.replace("dL_dy", "ddL_dy")))


@pytest.mark.parametrize("line", ["nu = 0.01", "a = y", "g = 1", "beta = inf"])
def test_problem_data_beside_a_preset_is_rejected(tmp_path, line):
    text = MINIMAL.replace("preset = benchmark", f"preset = benchmark\n{line}")
    key = line.split()[0]
    with pytest.raises(ConfigurationError) as exc:
        parse_config(write_cfg(tmp_path, text))
    assert f"[problem] {key} is set by the preset" in str(exc.value)


def test_tracking_without_a_preset_is_rejected(tmp_path):
    text = CUSTOM.replace("[problem]", "[problem]\ntracking = linear")
    with pytest.raises(ConfigurationError) as exc:
        parse_config(write_cfg(tmp_path, text))
    assert "[problem] tracking applies only to preset = benchmark" in str(exc.value)


def test_all_violations_of_keys_are_collected(tmp_path):
    text = (
        MINIMAL.replace("preset = benchmark", "preset = benchmark\nnu = 0.01")
        + "\n[ssn]\ninnner_tol = 1e-10\n\n[sovler]\nx = 1\n"
    )
    with pytest.raises(ConfigurationError) as exc:
        parse_config(write_cfg(tmp_path, text))
    msg = str(exc.value)
    assert "unknown section [sovler]" in msg
    assert "unknown key 'innner_tol'" in msg
    assert "nu is set by the preset" in msg


@pytest.mark.parametrize("name", ["benchmark.cfg", "quick.cfg"])
def test_shipped_configs_parse(name):
    assert parse_config(str(ROOT / "configs" / name)).spec is not None


def test_readme_config_examples_parse(tmp_path):
    readme = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 2
    for i, block in enumerate(blocks):
        if "[mesh]" not in block:
            block += "\n[mesh]\nlevels = 2\n"
        assert parse_config(write_cfg(tmp_path, block, name=f"readme{i}.cfg")).spec


def readme_key_table():
    """{(section, key): default text} from the README's key table."""
    text = README.read_text(encoding="utf-8").split("All keys and defaults:", 1)[1]
    rows = {}
    for line in text.strip().split("\n\n", 1)[0].splitlines()[2:]:
        section, key, default = line.strip("|").split("|")[:3]
        rows[(section.strip(), key.strip())] = default.strip()
    return rows


def test_readme_key_table_is_the_allowed_key_table():
    allowed = {(section, key) for section, keys in _KEYS.items() for key in keys}
    assert set(readme_key_table()) == allowed


def test_readme_defaults_are_the_settings_defaults():
    table = readme_key_table()
    owners = ((SSNConfig(), "ssn", float), (VerifySettings(), "verify", int))
    for owner, section, cast in owners:
        for field in dataclasses.fields(owner):
            text = table[(section, field.name)]
            assert cast(text) == getattr(owner, field.name), (section, field.name)


def test_default_section_is_reported_once_as_unknown(tmp_path):
    # configparser would copy [DEFAULT] into every section: its levels
    # would be applied to [mesh] and its seed reported under [problem]
    text = "[DEFAULT]\nseed = 3\nlevels = 4\n\n" + MINIMAL
    with pytest.raises(ConfigurationError) as exc:
        parse_config(write_cfg(tmp_path, text))
    message = str(exc.value)
    assert message.count("DEFAULT") == 1
    assert "unknown section [DEFAULT]" in message
    assert "unknown key" not in message
