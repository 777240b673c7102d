"""Run configuration files.

Config files use INI syntax.  A minimal file:

    [problem]
    preset = benchmark

    [mesh]
    levels = 7 8 9

_KEYS lists the keys each section takes; the README's key table mirrors
it.  parse_config collects every violation it can find, unknown sections
and keys included, before raising, so a broken file is repaired in one
round trip.
"""

import configparser
import os
from dataclasses import dataclass

from .errors import ConfigurationError
from .expressions import compile_expression
from .mesh import MAX_LEVEL
from .problem import ProblemSpec, benchmark_instance, validate
from .ssn import SSNConfig
from .verification import VerifySettings

_PROBLEM_FUNCS = ("a", "da_dy", "d2a_dy2", "L", "dL_dy", "d2L_dy2")
_PROBLEM_REALS = ("alpha", "beta", "nu", "a0")
# the keys of a problem spelt out by hand, which a preset sets itself
_PROBLEM_DATA = (*_PROBLEM_FUNCS, "g", *_PROBLEM_REALS)
_KEYS = {
    "problem": ("preset", "tracking", "fd_check", *_PROBLEM_DATA),
    "mesh": ("levels",),
    "ssn": ("outer_tol", "inner_tol", "u0"),
    "output": ("directory", "write_fields"),
    "verify": ("level", "directions", "seed"),
}


@dataclass(frozen=True)
class RunConfig:
    """Everything one `run` or `verify` invocation needs."""

    spec: ProblemSpec
    levels: tuple[int, ...]
    ssn: SSNConfig
    output_dir: str
    write_fields: bool
    verify: VerifySettings


def _parse_bool(parser, section: str, key: str, errors: list[str]) -> bool:
    """[section] key as configparser reads a boolean; True if left out."""
    raw = parser.get(section, key, fallback=None)
    if raw is None:
        return True
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        errors.append(f"[{section}] {key} expected on/off, got {raw!r}")
        return True


def _parse_numbers(section, keys, cast, errors: list[str], label: str) -> dict:
    """The values of those keys that section sets, converted by cast."""
    kind = "an integer" if cast is int else "a real number"
    values = {}
    for key in keys:
        raw = section.get(key)
        if raw is None:
            continue
        try:
            values[key] = cast(raw.strip())
        except ValueError:
            errors.append(f"[{label}] {key} must be {kind}, got {raw!r}")
    return values


def _parse_levels(raw: str | None, errors: list[str]) -> tuple[int, ...]:
    if raw is None or not raw.strip():
        errors.append("[mesh] at least one mesh level is required")
        return ()
    levels = []
    for tok in raw.replace(",", " ").split():
        try:
            lev = int(tok)
        except ValueError:
            errors.append(f"[mesh] levels must be integers, got {tok!r}")
            continue
        if not 1 <= lev <= MAX_LEVEL:
            errors.append(f"[mesh] level {lev} outside [1, {MAX_LEVEL}]")
            continue
        if lev in levels:
            # a second solve would overwrite the level's own outputs
            errors.append(f"[mesh] level {lev} listed twice")
            continue
        levels.append(lev)
    return tuple(levels)


def _problem_from_section(section, errors: list[str]) -> ProblemSpec | None:
    preset = section.get("preset")
    tracking = section.get("tracking", "quadratic").strip()
    if tracking not in ("quadratic", "linear"):
        errors.append(
            f"[problem] tracking must be quadratic or linear, got {tracking!r}"
        )
        tracking = "quadratic"

    if preset is not None:
        errors.extend(
            f"[problem] {key} is set by the preset; drop one of the two"
            for key in _PROBLEM_DATA
            if key in section
        )
        if preset.strip() != "benchmark":
            errors.append(f"[problem] unknown preset {preset!r}")
            return None
        return benchmark_instance(tracking)
    if "tracking" in section:
        errors.append("[problem] tracking applies only to preset = benchmark")

    funcs = {}
    for key in _PROBLEM_FUNCS:
        raw = section.get(key)
        if raw is None:
            errors.append(f"[problem] missing required key {key!r}")
            continue
        try:
            funcs[key] = compile_expression(raw, with_y=True)
        except ConfigurationError as exc:
            errors.append(f"[problem] {key}: {exc}")
    g_raw = section.get("g", "0")
    try:
        flux = compile_expression(g_raw, with_y=False)
    except ConfigurationError as exc:
        errors.append(f"[problem] g: {exc}")
        flux = None

    for key in _PROBLEM_REALS:
        if section.get(key) is None:
            errors.append(f"[problem] missing required key {key!r}")
    reals = _parse_numbers(section, _PROBLEM_REALS, float, errors, "problem")

    complete = len(funcs) == len(_PROBLEM_FUNCS) and len(reals) == len(_PROBLEM_REALS)
    if not complete or flux is None:
        return None
    return ProblemSpec(**funcs, g=flux, **reals)


def parse_config(path: str) -> RunConfig:
    """Parse and validate a config file; raises ConfigurationError listing
    every violation found."""
    if not os.path.isfile(path):
        raise ConfigurationError(f"config file not found: {path}")
    # No header names the default section, so [DEFAULT] is a section like
    # any other (and reported as unknown) instead of being copied into all.
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), default_section="\n"
    )
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle, source=path)
    except configparser.Error as exc:
        raise ConfigurationError(f"config syntax error: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not UTF-8: {exc}") from exc

    errors: list[str] = []
    for name in parser.sections():
        if name not in _KEYS:
            errors.append(f"unknown section [{name}]")
            continue
        # keys are matched as configparser stores them: in lower case
        allowed = [parser.optionxform(key) for key in _KEYS[name]]
        errors.extend(
            f"[{name}] unknown key {key!r}"
            for key in parser[name]
            if key not in allowed
        )

    if not parser.has_section("problem"):
        errors.append("missing [problem] section")
        spec = None
    else:
        spec = _problem_from_section(parser["problem"], errors)

    mesh_section = parser["mesh"] if parser.has_section("mesh") else {}
    levels = _parse_levels(mesh_section.get("levels"), errors)

    # Keys left out of the file keep the SSNConfig and VerifySettings defaults.
    ssn_section = parser["ssn"] if parser.has_section("ssn") else {}
    try:
        ssn = SSNConfig(
            **_parse_numbers(ssn_section, _KEYS["ssn"], float, errors, "ssn")
        )
    except ConfigurationError as exc:
        errors.append(f"[ssn] {exc}")
        ssn = None

    out_section = parser["output"] if parser.has_section("output") else {}
    output_dir = out_section.get("directory", "out")
    write_fields = _parse_bool(parser, "output", "write_fields", errors)

    ver_section = parser["verify"] if parser.has_section("verify") else {}
    try:
        verify = VerifySettings(
            **_parse_numbers(ver_section, _KEYS["verify"], int, errors, "verify")
        )
    except ConfigurationError as exc:
        errors.append(f"[verify] {exc}")
        verify = None

    fd_checks = _parse_bool(parser, "problem", "fd_check", errors)

    if spec is not None:
        errors.extend(validate(spec, derivative_check=fd_checks))

    if errors:
        raise ConfigurationError(
            "invalid config:\n  " + "\n  ".join(errors)
        )

    return RunConfig(
        spec=spec,
        levels=levels,
        ssn=ssn,
        output_dir=output_dir,
        write_fields=write_fields,
        verify=verify,
    )
