"""Random command lines: the CLI ends in an exit code, never a traceback.

Each example draws a subcommand and some of its flags. Values come from a
small domain that keeps every run cheap (j_max <= 2, n <= 64, a small
shift-study degree) plus bad values: negatives, 0, nan, inf, text and
missing paths. ``main`` must return 0-3, or argparse must exit 2; any other
exception fails the test.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hermite_needlets.cli import main

MISSING = "good.json/missing"  # below a file, so it can be neither read nor made


def values(*good):
    """A good value half the time, else a bad one."""
    bad = ["-1", "0", "nan", "inf", "x"]
    return st.one_of(st.sampled_from([str(v) for v in good]), st.sampled_from(bad))


def paths(*good):
    return st.one_of(st.sampled_from(good), st.just(MISSING))


FLAG_ONLY = st.none()
CONFIG = {
    "--config": paths("good.json", "bad.json", "list.json"),
    "--node-budget": values(100, 10**6),
    "--output-dir": paths("out"),
}
FRAME = {
    "--dimension": values(1, 2),
    "--delta": values(0.01, 0.025),
    "--cutoff": st.sampled_from(["quadratic", "dual", "x"]),
}
GRID = {"--grid-radius": values(5, 30), "--points-per-unit": values(4, 16)}
OUT = {"--out": paths("o.csv", "out")}
FUNCTION = {
    "--function": st.sampled_from([
        'hermite:{"coeffs":[[[0],1.0],[[3],0.5]]}',
        'hermite:{"dim":2,"coeffs":[[[1,0],1.0]]}',
        'hermite:{"coeffs":[[[-1],1.0]]}',
        'hermite:{"coeffs":[[[99999],1.0]]}',
        'hermite:{"dim":0,"coeffs":[]}',
        "hermite:[]",
        "hermite:{bad",
        "bump:1.0,0.3",
        "bump:3",
        "bump:0",
        "bump:",
        "bump:x",
        "wave:3",
    ]),
    "--degree": values(4, 16),
}
J_MAX = {"--j-max": values(1, 2)}
# 2000 and 1e-300 take some norms past the double range, which exits 1
INDICES = {"--alpha": values(0.5, 1, 2000, 1e-300), "--p": values(1, 2, 3, 2000, 1e-300),
           "--q": values(1, 2, 3, 2000, 1e-300)}

# name: (flags always given, flags given when drawn, each with its values)
COMMANDS = {
    "rule": ({}, {"--n": values(1, 2, 17, 64), "--d": values(1, 2), **OUT,
                  **{k: CONFIG[k] for k in ("--config", "--node-budget", "--output-dir")}}),
    "frame": (J_MAX, {"--cutoff-table": FLAG_ONLY, **CONFIG, **FRAME}),
    "decompose": (J_MAX, {**FUNCTION, **OUT, **CONFIG, **FRAME}),
    "norms": (J_MAX, {**FUNCTION, **INDICES, **OUT, **CONFIG, **FRAME, **GRID,
                      "--kind": st.sampled_from(list("FBfbEAx")),
                      "--approx-n": values(0, 4)}),
    "reconstruct": (J_MAX, {"--coeffs": paths("coeffs.csv", "bad.json", "binary.csv"),
                            **OUT, **CONFIG, **FRAME}),
    "decay": (J_MAX, {"--level": values(1, 2), "--node": values(5, 10**6),
                      "--k": values(6, 11), "--deriv": values(1), **OUT, **CONFIG,
                      **FRAME}),
    # width 3 at degree 700 passes the projection tail check
    "shift-study": ({**J_MAX, "--degree": values(8, 700)},
                    {"--shifts": st.sampled_from(["0", "0,1.5", "-3", "", "1e300", "0,x",
                                                  "nan"]),
                     "--width": values(3, 1), **INDICES, **OUT, **CONFIG, **GRID,
                     "--delta": FRAME["--delta"], "--cutoff": FRAME["--cutoff"]}),
    # always one cheap suite (without --suite, verify runs all of them): the
    # CLI path is the same for every suite, and the session's catalogue
    # fixture (conftest.py) asserts every check once
    "verify": ({"--suite": st.sampled_from(["cutoffs", "x"])}, {}),
}
REQUIRED = {"--n", "--function", "--alpha", "--p", "--q", "--kind", "--coeffs", "--level",
            "--shifts"}


@st.composite
def command_lines(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    always, optional = COMMANDS[name]
    # a required flag is left out now and then, for argparse to reject
    drawn = [f for f in optional if f in REQUIRED and draw(st.integers(0, 19))]
    rest = [f for f in optional if f not in REQUIRED]
    drawn += draw(st.lists(st.sampled_from(rest), unique=True, max_size=4)) if rest else []
    argv = [name]
    for flag in [*always, *drawn]:
        value = draw({**always, **optional}[flag])
        argv += [flag] if value is None else [flag + "=" + value]
    return argv


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_fuzz")
    (root / "good.json").write_text(json.dumps({"j_max": 1, "node_budget": 10**6}))
    (root / "bad.json").write_text("{bad")
    (root / "list.json").write_text("[1, 2]")
    (root / "binary.csv").write_bytes(b"\xff\xfe\x00")
    (root / "coeffs.csv").write_text("level,node_index,xi_1,s_value\n0,1,0.5,0.25\n")
    return root


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=command_lines())
def test_random_command_line_exits_cleanly(inputs, monkeypatch, capsys, argv):
    monkeypatch.chdir(inputs)
    capsys.readouterr()  # drop what earlier examples printed
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        assert exc.code == 2
        return
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert capsys.readouterr().err.count("\n") == 1
