"""The declared CLI surface: flags per subcommand, JSON meta order, input validation.

These tests call ``cli.main`` in-process, so an exception escaping it fails
the test instead of printing a traceback.
"""

import argparse
import contextlib
import io
import json
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafock import cli

F, I, C = "float", "int", "_parse_complex"
COMMON = [
    ("--format", None, False, "csv", ("csv", "json"), None),
    ("--output", None, False, None, None, None),
]
# (flag, type, required, default, choices, nargs) in declaration order
SURFACE = {
    "basis": [("--p", F, True, None, None, None), ("--cutoff", I, True, None, None, None)],
    "op-matrix": [
        ("--gen", None, True, None, ("b1+", "b1-", "b2+", "b2-", "h1", "h2"), None),
        ("--p", F, True, None, None, None),
        ("--cutoff", I, True, None, None, None),
    ],
    "verify-triple": [
        ("--p", F, True, None, None, None),
        ("--cutoff", I, True, None, None, None),
        ("--tol", F, False, 1e-12, None, None),
    ],
    "zeromodes": [
        ("--p", F, True, None, None, None),
        ("--j", I, True, None, None, None),
        ("--k", I, True, None, None, None),
    ],
    "coherent": [
        ("--p", F, True, None, None, None),
        ("--j", I, True, None, None, None),
        ("--k", I, True, None, None, None),
        ("--alpha", C, True, None, None, None),
        ("--nmax", I, False, None, None, None),
        ("--normalized", None, False, False, None, 0),
        ("--cat", None, False, None, ("+", "-"), None),
    ],
    "b2-elements": [
        ("--p", F, True, None, None, None),
        ("--j", I, True, None, None, None),
        ("--k", I, True, None, None, None),
        ("--alpha", C, True, None, None, None),
        ("--alpha-prime", C, True, None, None, None),
        ("--nmax", I, False, 20, None, None),
    ],
    "bicoherent": [
        ("--p", F, True, None, None, None),
        ("--j", I, True, None, None, None),
        ("--l", I, True, None, None, None),
        ("--alpha", C, True, None, None, None),
        ("--beta", C, True, None, None, None),
        ("--kmax", I, False, 12, None, None),
    ],
    "bessel": [
        ("--kind", None, True, None, ("i", "k"), None),
        ("--nu", F, True, None, None, None),
        ("--x", F, True, None, None, None),
    ],
    "moments": [
        ("--p", F, True, None, None, None),
        ("--j", I, True, None, None, None),
        ("--kind", None, True, None, ("I", "II"), None),
        ("--nmax", I, False, 5, None, None),
    ],
    "resolution": [
        ("--p", F, True, None, None, None),
        ("--j", I, True, None, None, None),
        ("--ncheck", I, False, 10, None, None),
        ("--mode", None, False, "offdiag", ("offdiag", "cat"), None),
        ("--tol", F, False, 1e-6, None, None),
    ],
    "verify-all": [("--p", F, False, None, None, None), ("--cutoff", I, False, None, None, None)],
}


def run(capsys, command):
    code = cli.main(command.split())
    out, err = capsys.readouterr()
    return code, out, err


def test_every_subcommand_declares_the_pinned_flags():
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subs.choices) == list(SURFACE)
    for name, sub in subs.choices.items():
        got = [
            (a.option_strings[0], getattr(a.type, "__name__", None), a.required, a.default,
             None if a.choices is None else tuple(a.choices), a.nargs)
            for a in sub._actions if a.option_strings and a.dest != "help"
        ]
        assert got == SURFACE[name] + COMMON, name


@pytest.mark.parametrize("command, keys", [
    ("b2-elements --p 2.5 --j 0 --k 1 --alpha 0.5,0 --alpha-prime 0.3,0 --nmax 6",
     ["p", "j", "k", "nmax", "alpha", "alpha_prime"]),
    ("coherent --p 2.5 --j 0 --k 1 --alpha 0.5,0 --nmax 6 --normalized --cat +",
     ["p", "j", "k", "nmax", "alpha", "normalized", "cat"]),
    ("resolution --p 2.5 --j 0 --ncheck 2", ["p", "tol", "j", "ncheck", "mode"]),
])
def test_json_meta_lists_flags_in_declaration_order(capsys, command, keys):
    code, out, _ = run(capsys, command + " --format json")
    assert code == 0
    assert list(json.loads(out)["meta"]) == ["subcommand", "version", *keys]


@pytest.mark.parametrize("command", [
    "coherent --p inf --j 0 --k 1 --alpha 0.5,0",
    "verify-triple --p 2.5 --cutoff 8 --tol inf",
    "resolution --p 2.5 --j 0 --ncheck 4 --tol inf",
    "basis --p inf --cutoff 2",
    "verify-all --p inf",
    "coherent --p 2.5 --j 0 --k 1 --alpha nan,0",
    "b2-elements --p 2.5 --j 1 --k 2 --alpha 0.7,0.2 --alpha-prime nan,0",
    "bicoherent --p 2.5 --j 0 --l 1 --alpha 0.5,0 --beta 0.5,nan",
    "bessel --kind k --nu nan --x 1",
    "bessel --kind i --nu inf --x 1",
    "bessel --kind i --nu 0.5 --x inf",
])
def test_non_finite_values_are_usage_errors(capsys, command):
    code, out, err = run(capsys, command)
    assert code == 2
    assert out == ""
    assert err.startswith("parafock: error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, code", [
    ("basis --p 1 --cutoff 1", 2),
    ("basis --p 1.0000001 --cutoff 0", 0),
    ("basis --p 2 --cutoff -1", 2),
    ("bessel --kind i --nu 0.5 --x 0", 0),
    ("bessel --kind i --nu 0.5 --x -1e-300", 2),
    ("verify-triple --p 2.5 --cutoff 3 --tol 0", 2),
    ("moments --p 2.5 --j 0 --kind I --nmax 0", 2),
    ("verify-triple --p 2.5 --cutoff 2", 2),
])
def test_lower_bounds_keep_their_inclusiveness(capsys, command, code):
    assert run(capsys, command)[0] == code


def _numbers(value):
    """Every number in a parsed JSON value, or in a CSV field that parses as one."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    if isinstance(value, bool):
        return []
    if isinstance(value, (int, float)):
        return [value]
    try:
        return [float(value)]
    except (TypeError, ValueError):
        return []


_BAD = {
    "p": ["nan", "inf", "-inf", "-1", "1", "120.5", "1e308", "x"],
    "j": ["-1", "1000000", "nan", "inf", "1.5"],
    "k": ["-1", "1000000", "nan", "inf", "1.5"],
    "nmax": ["-1", "3", "1000000", "nan", "inf", "1.5"],
    "alpha": ["nan,0", "0,inf", "-inf,1", "6,0", "1e308,1e308", "1", "x,y"],
    "alpha-prime": ["nan,0", "0,inf", "-inf,1", "6,0", "1e308,1e308", "1", "x,y"],
}


_COMPLEX_VALUE = st.tuples(st.floats(-3, 3), st.floats(-3, 3)).map(lambda z: f"{z[0]!r},{z[1]!r}")
# seconds one in-process CLI run may take; the slowest accepted example here
# (a verify-all pass) takes about 2 s
_WALL_LIMIT = 15.0


@st.composite
def _b2_argv(draw):
    """b2-elements flags with up to two of them non-finite or out of range.

    j > k and k = 0 are in range for the parser and rejected by the handler;
    every run that reaches the engine has j + k + nmax <= 80.
    """
    k, j = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    values = {
        "p": repr(draw(st.floats(1.0, 8.0, exclude_min=True))),
        "j": str(j),
        "k": str(k),
        "nmax": str(draw(st.integers(4, 80 - j - k))),
        "alpha": draw(_COMPLEX_VALUE),
        "alpha-prime": draw(_COMPLEX_VALUE),
    }
    for name in draw(st.sets(st.sampled_from(sorted(_BAD)), max_size=2)):
        values[name] = draw(st.sampled_from(_BAD[name]))
    fmt = draw(st.sampled_from(["csv", "json"]))
    # --flag=value keeps argparse from reading a negative value as a flag
    return ["b2-elements", *(f"--{name}={v}" for name, v in values.items()), f"--format={fmt}"]


def _assert_exits_cleanly(argv):
    """Exit 0 or 2 within _WALL_LIMIT seconds, no traceback, only finite numbers on stdout."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert elapsed < _WALL_LIMIT, (argv, elapsed)
    text = out.getvalue()
    if argv[-1] == "--format=json" and code == 0:
        values = _numbers(json.loads(text))
    else:
        values = _numbers([f for ln in text.splitlines() for f in ln.lstrip("# ").replace("=", ",").split(",")])
    assert all(math.isfinite(x) for x in values), (argv, text)
    return code


@settings(derandomize=True, max_examples=120, deadline=None)
@given(argv=_b2_argv())
def test_b2_elements_fuzz_exits_cleanly(argv):
    _assert_exits_cleanly(argv)


_P = st.one_of(st.floats(1.0, 8.0, exclude_min=True), st.floats(1.0, 120.0, exclude_min=True)).map(repr)
_BAD_INT = ["-1", "nan", "inf", "1.5", "1000000", "100000000"]
_BAD_REAL = ["nan", "inf", "-inf", "x"]
_BAD_COMPLEX = _BAD["alpha"]

# per subcommand: its flags (strategies of the text value; None omits the
# flag, True passes it bare), the bad values each may take instead, and the
# example count; engine sizes stay small so the whole test stays short
_FUZZ = {
    "basis": ({"p": _P, "cutoff": st.integers(0, 12).map(str)},
              {"p": _BAD["p"], "cutoff": ["201", *_BAD_INT]}, 40),
    "op-matrix": ({"gen": st.sampled_from(["b1+", "b1-", "b2+", "b2-", "h1", "h2"]), "p": _P,
                   "cutoff": st.integers(0, 10).map(str)},
                  {"gen": ["b3+", ""], "p": _BAD["p"], "cutoff": ["201", *_BAD_INT]}, 40),
    "verify-triple": ({"p": _P, "cutoff": st.integers(3, 9).map(str),
                       "tol": st.one_of(st.none(), st.floats(1e-12, 1e-3).map(repr))},
                      {"p": _BAD["p"], "cutoff": ["2", "201", *_BAD_INT], "tol": ["0", "-1", *_BAD_REAL]}, 20),
    "zeromodes": ({"p": _P, "j": st.integers(0, 8).map(str), "k": st.integers(0, 10).map(str)},
                  {"p": _BAD["p"], "j": ["5000", *_BAD_INT], "k": ["5000", *_BAD_INT]}, 40),
    "coherent": ({"p": _P, "j": st.integers(0, 6).map(str), "k": st.integers(0, 6).map(str),
                  "alpha": _COMPLEX_VALUE,
                  "nmax": st.one_of(st.none(), st.integers(4, 200).map(str)),
                  "normalized": st.sampled_from([None, True]), "cat": st.sampled_from([None, "+", "-"])},
                 {"p": _BAD["p"], "j": _BAD_INT, "k": _BAD_INT, "alpha": _BAD_COMPLEX,
                  "nmax": ["3", "201", *_BAD_INT], "cat": ["0"]}, 60),
    "bicoherent": ({"p": _P, "j": st.integers(0, 6).map(str), "l": st.integers(0, 7).map(str),
                    "alpha": _COMPLEX_VALUE, "beta": _COMPLEX_VALUE,
                    "kmax": st.integers(2, 200).map(str)},
                   {"p": _BAD["p"], "j": _BAD_INT, "l": _BAD_INT, "alpha": _BAD_COMPLEX,
                    "beta": _BAD_COMPLEX, "kmax": ["1", "201", *_BAD_INT]}, 60),
    "bessel": ({"kind": st.sampled_from(["i", "k"]), "nu": st.floats(-60, 60).map(repr),
                "x": st.floats(0, 50).map(repr)},
               {"kind": ["j"], "nu": ["61", "1e308", *_BAD_REAL], "x": ["-1", "51", "1e308", *_BAD_REAL]}, 40),
    "moments": ({"p": _P, "j": st.integers(0, 6).map(str), "kind": st.sampled_from(["I", "II"]),
                 "nmax": st.integers(1, 8).map(str)},
                {"p": _BAD["p"], "j": _BAD_INT, "kind": ["III"], "nmax": ["0", "9", *_BAD_INT]}, 30),
    "resolution": ({"p": _P, "j": st.integers(0, 6).map(str), "ncheck": st.integers(0, 16).map(str),
                    "mode": st.sampled_from(["offdiag", "cat"]),
                    "tol": st.one_of(st.none(), st.floats(1e-6, 1e-2).map(repr))},
                   {"p": _BAD["p"], "j": _BAD_INT, "ncheck": ["17", *_BAD_INT], "mode": ["diag"],
                    "tol": ["0", "-1", *_BAD_REAL]}, 30),
    "verify-all": ({"p": st.one_of(st.none(), _P), "cutoff": st.one_of(st.none(), st.integers(3, 8).map(str))},
                   {"p": _BAD["p"], "cutoff": ["2", "201", *_BAD_INT]}, 4),
}


@st.composite
def _subcommand_argv(draw, name):
    """Flags of one subcommand with up to two of them non-finite, out of range or malformed."""
    flags, bad, _ = _FUZZ[name]
    values = {flag: draw(strategy) for flag, strategy in flags.items()}
    for flag in draw(st.sets(st.sampled_from(sorted(bad)), max_size=2)):
        values[flag] = draw(st.sampled_from(bad[flag]))
    fmt = draw(st.sampled_from(["csv", "json"]))
    given_flags = [f"--{flag}" if v is True else f"--{flag}={v}" for flag, v in values.items() if v is not None]
    return [name, *given_flags, f"--format={fmt}"]


@pytest.mark.parametrize("name", list(_FUZZ))
def test_every_subcommand_fuzz_exits_cleanly(name):
    @settings(derandomize=True, max_examples=_FUZZ[name][2], deadline=None, database=None)
    @given(argv=_subcommand_argv(name))
    def check(argv):
        _assert_exits_cleanly(argv)

    check()


# inputs past the envelope that the fuzz found or only reaches by chance, run whatever it draws
_EDGE_ARGV = [
    "bicoherent --p 2.5 --j 1 --l 2 --alpha=0.5,0 --beta=0,0",
    "bicoherent --p 2.5 --j 1000 --l 1000 --alpha=0.5,0 --beta=5,0",
    "bessel --kind k --nu 60 --x 1e-300",
    "coherent --p 2.5 --j 0 --k 0 --alpha=0,0 --cat -",
    "b2-elements --p 2.5 --j 0 --k 1 --alpha=0.5,0 --alpha-prime=0.5,0 --nmax 3",
    "moments --p 2.5 --j 0 --kind I --nmax 1000",
    "verify-triple --p 2.5 --cutoff 65",
    # past the cutoff envelope: rejected before the O(k) coefficient loop
    "zeromodes --p 2.5 --j 0 --k 20000000",
]


@pytest.mark.parametrize("argv", _EDGE_ARGV)
def test_known_edge_inputs_exit_2(argv):
    assert _assert_exits_cleanly(argv.split()) == 2


# in-envelope inputs at extreme orders where the I series underflows; each once ended in a traceback
_HUGE = str(10**306)
_EDGE_ARGV_OK = [
    "bessel --kind i --nu 2.6e305 --x 1",
    f"coherent --p 2 --j {_HUGE} --k {_HUGE} --alpha=1,0",
    "bessel --kind i --nu 400 --x 50",
    "coherent --p 2 --j 316 --k 316 --alpha=5,0",
    "bessel --kind i --nu 0 --x 5e-324",
    # the automatic rung count once stopped where |alpha| / sqrt(n + 1) >= 1 and then refused the state
    "coherent --p 2.5 --j 20000 --k 20000 --alpha=5,0",
    "bicoherent --p 2.5 --j 20000 --l 20000 --alpha=0,5 --beta=1,0",
]


@pytest.mark.parametrize("argv", _EDGE_ARGV_OK, ids=lambda a: a[:60])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_known_edge_inputs_exit_0(argv, fmt):
    assert _assert_exits_cleanly([*argv.split(), f"--format={fmt}"]) == 0
