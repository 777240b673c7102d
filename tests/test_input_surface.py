"""Property tests of the input surface: config text and argv, drawn at
random and run in-process through cli.main.

Whatever the input, main returns an exit code in {0, 1, 2, 3} and raises
nothing; an exit code of 1 comes with stderr starting "error:"; no
traceback and no warning reach stderr.  Solves stay small: every level a
drawn config can solve is at most 3, while out-of-range and non-integer
level tokens are drawn freely.
"""

import contextlib
import io
import string
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ssnbilinear.cli import main

# stands for the test's output directory in drawn config text and argv
OUT = "@OUT@"
FIXED = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# The README's expression problem: the start that the drawn custom
# problems mutate, so that some of them are valid and solve.
README_PROBLEM = {
    "a": "y^3 * abs(y) + 2*y - 100 * sin(2*pi*x1) * sin(pi*x2)",
    "da_dy": "4 * y^2 * abs(y) + 2",
    "d2a_dy2": "12 * y * abs(y)",
    "L": "0.5 * (y + 64 * x1 * (1 - x1) * x2 * (1 - x2))^2",
    "dL_dy": "y + 64 * x1 * (1 - x1) * x2 * (1 - x2)",
    "d2L_dy2": "1",
    "g": "0",
    "alpha": "-1",
    "beta": "1",
    "nu": "0.05",
    "a0": "2",
}
KNOWN_KEYS = (
    *README_PROBLEM, "preset", "tracking", "fd_check", "levels", "outer_tol",
    "inner_tol", "u0", "directory", "write_fields", "level", "directions", "seed",
)

def small(text):
    """Whether text, split as [mesh] levels is, names no level from 4 to
    12: a drawn config solves nothing above level 3."""
    for token in text.replace(",", " ").split():
        try:
            if 4 <= int(token) <= 12:
                return False
        except ValueError:
            pass
    return True


# a value on one line: any printable text, '%', '#', ';' and brackets too
garbage = st.text(
    alphabet=string.ascii_letters + string.digits + string.punctuation + " ",
    max_size=12,
).filter(small)
numbers = st.one_of(
    st.sampled_from(
        ["nan", "-nan", "inf", "-inf", "1e308", "1e400", "-1e400", "0", "-0",
         "-5", "1e-300", "5e-324", "0.05", "2.5", "10**3", "0x10", "1_0", ""]
    ),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-(10**30), 10**30).map(str).filter(small),
    garbage,
)
expressions = st.one_of(
    st.recursive(
        st.sampled_from(
            ["x1", "x2", "y", "pi", "0", "1", "2", "0.5", "1e308", "1e400",
             "nan", "z"]
        ),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/^"), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"
            ),
            st.tuples(st.sampled_from(["sin", "cos", "exp", "abs", "log"]), inner).map(
                lambda t: f"{t[0]}({t[1]})"
            ),
            inner.map(lambda e: f"-{e}"),
        ),
        max_leaves=6,
    ),
    # deep nesting, on both sides of the depth limit
    st.integers(1, 160).map(lambda n: "(" * n + "y" + ")" * n),
    st.integers(1, 160).map(lambda n: "-" * n + "y"),
    st.integers(1, 160).map(lambda n: " + ".join(["y"] * n)),
    # overflow, at compile time and in the solve
    st.sampled_from(
        ["exp(exp(1000))", "10^400", "0/0", "1/0", "y^1000", "exp(1000*y)",
         "y^2.5", "(-1)^0.5", "exp(y)^y"]
    ),
    numbers,
)
small_levels = st.sampled_from(["1", "2", "3"])
# out of range or no integer
bad_levels = st.one_of(
    st.sampled_from(["0", "-1", "13", "99999999999999999999", "2.5", "1e3",
                     "3%", "nan", "x", "true", ""]),
    st.integers(max_value=0).map(str),
    st.integers(min_value=13).map(str),
    garbage,
)


@st.composite
def config_texts(draw):
    """A verb and the text of a config file whose outputs go into the
    directory OUT.

    Each choice takes its unusual branch in `odd` of ten draws, and odd
    is itself drawn: 0 gives a valid config that solves, 5 one with many
    faults.
    """
    odd = draw(st.sampled_from([0, 0, 1, 5]))

    def pick(usual, unusual):
        return draw(unusual if draw(st.integers(0, 9)) < odd else usual)

    def optional(values):
        return st.none() | values

    if draw(st.booleans()):
        problem = {
            "preset": pick(st.just("benchmark"), garbage),
            "tracking": pick(
                optional(st.sampled_from(["quadratic", "linear"])),
                st.sampled_from(["", "cubic"]) | garbage,
            ),
        }
        preset_key = pick(st.none(), st.sampled_from(sorted(README_PROBLEM)))
        if preset_key is not None:
            problem[preset_key] = README_PROBLEM[preset_key]
    else:
        problem = {
            key: pick(st.just(value), optional(expressions))
            for key, value in README_PROBLEM.items()
        }
        problem["tracking"] = pick(st.none(), st.just("linear"))
    problem["fd_check"] = pick(
        optional(st.sampled_from(["on", "off"])), st.sampled_from(["yes", "0"]) | garbage
    )
    if problem.get("d2L_dy2") == "1" and draw(st.booleans()):
        # a wrong second derivative, left unchecked: verify fails, exit 3
        problem.update(d2L_dy2="2", fd_check="off")
    separator = draw(st.sampled_from([" ", ", "]))
    sections = {
        "problem": problem,
        "mesh": {
            "levels": pick(
                st.lists(small_levels, min_size=1, max_size=3, unique=True).map(
                    separator.join
                ),
                optional(st.lists(small_levels | bad_levels, max_size=4).map(separator.join)),
            )
        },
        "ssn": {
            # a target below rounding stagnates, a huge u0 overflows: exit 2
            "outer_tol": pick(optional(st.sampled_from(["1e-10", "1e-300"])), numbers),
            "inner_tol": pick(optional(st.sampled_from(["1e-12", "5e-14"])), numbers),
            "u0": pick(optional(st.sampled_from(["-0.5", "-5", "1e300"])), numbers),
        },
        "output": {
            # a directory, or a path that names a file
            "directory": pick(st.just(f"{OUT}/out"), st.just(f"{OUT}/a-file")),
            "write_fields": pick(optional(st.sampled_from(["on", "off"])), garbage),
        },
        "verify": {
            # never left out: the default level is 4
            "level": pick(small_levels, bad_levels),
            "directions": pick(
                optional(st.sampled_from(["1", "2", "3"])),
                st.sampled_from(["0", "-1", "100000000000000000000"]) | garbage,
            ),
            "seed": pick(
                optional(st.sampled_from(["0", "7", str(2**64 + 1)])),
                st.sampled_from(["-1", "1.5"]) | garbage,
            ),
        },
    }
    names = [name for name in sections if not pick(st.just(False), st.just(True))]
    if pick(st.just(False), st.just(True)):
        names.append(draw(st.sampled_from(["DEFAULT", "Problem", "extra"])))
    lines = []
    for name in draw(st.permutations(names)):
        lines.append(f"[{name}]")
        lines.extend(
            f"{key} = {value}"
            for key, value in sections.get(name, {}).items()
            if value is not None
        )
        # an unknown key, a repeated key, or a line that is no key at all
        if pick(st.just(False), st.just(True)):
            key = draw(st.sampled_from(KNOWN_KEYS) | garbage)
            lines.append(f"{key} = {draw(numbers)}" if draw(st.booleans()) else key)
    if pick(st.just(False), st.just(True)):
        lines = draw(st.permutations(lines))
    # without its [verify] section, verify would solve at level 4
    verb = draw(st.sampled_from(["run", "verify"])) if "verify" in names else "run"
    return verb, "\n".join(lines) + "\n"


def run_main(argv):
    """cli.main(argv) in-process: exit code, stdout, stderr and the warnings
    raised on the way.  An exception that escapes main fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue(), caught


def assert_clean_exit(code, err, caught):
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert err.startswith("error:"), err
    assert "Traceback" not in err
    assert "Warning" not in err
    assert [str(w.message) for w in caught] == []


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    """The directory that OUT stands for, holding a file named a-file."""
    path = tmp_path_factory.mktemp("surface")
    (path / "a-file").write_text("not a directory\n")
    return path


@settings(FIXED, max_examples=150)
@given(drawn=config_texts())
def test_any_config_text_ends_in_a_clean_exit(out_dir, drawn):
    verb, text = drawn
    path = out_dir / "drawn.cfg"
    path.write_text(text.replace(OUT, str(out_dir)), encoding="utf-8")
    code, _, err, caught = run_main([verb, str(path)])
    assert_clean_exit(code, err, caught)


VERBS = ("run", "verify", "mesh-info")
argv_lists = st.one_of(
    # no verb, an unknown verb, a flag
    st.lists(garbage | st.sampled_from(["-h", "--help", "--version", "--", "-"]), max_size=3),
    st.tuples(garbage.filter(lambda verb: verb not in VERBS), garbage).map(list),
    # a config path that is missing, empty or a directory, maybe with more
    st.tuples(
        st.sampled_from(["run", "verify"]),
        st.sampled_from(["", ".", f"{OUT}/missing.cfg", OUT, "-"]) | garbage,
    ).map(list),
    st.tuples(st.sampled_from(["run", "verify"]), garbage, garbage).map(list),
    # mesh-info with a level out of range, a small one, or no integer
    st.tuples(
        st.just("mesh-info"),
        st.integers(max_value=0).map(str)
        | st.integers(min_value=13).map(str)
        | st.sampled_from(["1", "2", "3", "2.5", "x", "", "1e3", "0x3"]),
    ).map(list),
    st.tuples(st.just("mesh-info"), st.sampled_from(["1", "13"]), garbage).map(list),
)


@settings(FIXED, max_examples=150)
@given(argv=argv_lists)
def test_any_argv_ends_in_a_clean_exit(out_dir, argv):
    code, _, err, caught = run_main([arg.replace(OUT, str(out_dir)) for arg in argv])
    assert_clean_exit(code, err, caught)
