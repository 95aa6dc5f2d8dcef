"""The CLI's exit-code contract over generated argument lists.

Every call must return 0 (ok), 1 (usage), 2 (parse or validation) or 3
(numerical); nothing may escape ``main``, warnings included (the suite turns
them into errors), and a nonzero exit writes exactly one line to stderr.
Each call starts from a good call of one subcommand on case9, with cheap
trial counts and ranges, and replaces a few of its options by other
tokens from small pools of good and bad ones.
"""

import contextlib
import io
import os

import pytest
from hypothesis import given, settings, strategies as st

from stealthdeg.cli import main


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    texts = {
        "spec.csv": "branch_index,phi\n1,0.5\n2,-0.25\n",
        "bounds.csv": "branch_index,phi_min,phi_max\n"
                      + "".join(f"{i},-1,1\n" for i in range(1, 10)),
        "pinned.csv": "branch_index,phi_min,phi_max\n1,-1,-1\n2,0.25,0.25\n",
        "huge.csv": "branch_index,phi\n1,1e300\n2,3e153\n",
        "huge-bounds.csv": "branch_index,phi_min,phi_max\n1,-1e300,1e300\n2,0,1e300\n",
        "nan.csv": "branch_index,phi\n1,nan\n",
        "header.csv": "branch_index,phi\n",
        "empty.csv": "",
        "garbage.m": "mpc.bus = [ 1 3;\n",
    }
    for name, text in texts.items():
        (root / name).write_text(text)
    (root / "binary.bin").write_bytes(b"\xff\xfe\x00x")
    return root


_CASES = ["case9", "{binary.bin}", "{garbage.m}", "{spec.csv}", "{missing.m}", "{.}"]
_FILES = ["{spec.csv}", "{huge.csv}", "{huge-bounds.csv}", "{binary.bin}", "{nan.csv}",
          "{header.csv}", "{empty.csv}", "{missing.csv}", "{.}"]
_BOUNDS = ["{bounds.csv}", "{pinned.csv}", *_FILES]
_RATIOS = ["0.5", "1e300", "3e153", "-1e300", "-1", "-2", "nan", "inf", ""]
_RHOS = ["0.5", "0", "1", "-0.5", "1e300", "nan", "abc"]
_SNRS = ["30", "0", "200", "1e300", "-1e300", "nan"]
_RANGES = ["0:1:0.5", "-3:1:1", "1e300:1e300:1", "1e100:1e100:1", "0:1:0", "1:0:1", "0:1",
           "nan:1:1", "0:1e300:1", "a:b:c"]
_LISTS = ["0.5,1", "2,9", "1e300", "0", "10", "-1", "nan", ",", "x"]
_COUNTS = ["2", "1", "0", "-1", "1e300", "x"]
_SEEDS = ["0", "1", "-1", str(2 ** 64), "x"]
_OUTS = ["{out.csv}", "{no-dir/out.csv}", "{.}"]

SCENARIO = {"--rho": _RHOS, "--snr-db": _SNRS}
OPTIONS = {
    "dump-model": {"--out-dir": ["{.}", "{no-dir}", "{spec.csv}"]},
    "classify": {"--rho": _RHOS},
    "evaluate": {**SCENARIO, "--spec": _FILES},
    "sweep-beta": {**SCENARIO, "--beta": _RANGES, "--out": _OUTS},
    "montecarlo-alpha": {**SCENARIO, "--alphas": _LISTS, "--trials": _COUNTS,
                         "--seed": _SEEDS, "--out": _OUTS},
    "sweep-k": {**SCENARIO, "--ks": _LISTS, "--alpha": _RATIOS, "--trials": _COUNTS,
                "--seed": _SEEDS, "--out": _OUTS},
    "maximize": {**SCENARIO, "--bounds": _BOUNDS, "--out": _OUTS},
    "mtd-plan": {**SCENARIO, "--bounds": _BOUNDS, "--out": _OUTS},
}
# classify takes its ratio from exactly one of these.
RATIO_SOURCES = {"--beta": _RATIOS, "--spec": _FILES}
FLAGS = {"maximize": ["--oracle", "--refine"], "mtd-plan": ["--oracle", "--refine"]}
STRAYS = ["--seed=0", "--bogus", "extra", "--beta"]


@st.composite
def argvs(draw):
    """A good call of one subcommand with one to three of its options
    replaced by another token from the option's pool, or left out."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    options = {"--case": _CASES, **OPTIONS[command]}
    if command == "classify":
        source = draw(st.sampled_from(sorted(RATIO_SOURCES)))
        options[source] = RATIO_SOURCES[source]
    values = {option: pool[0] for option, pool in options.items()}
    for _ in range(draw(st.integers(1, 3))):
        option = draw(st.sampled_from(sorted(options)))
        values[option] = draw(st.sampled_from([*options[option][1:], None]))
    argv = [command, *(f"{option}={value}" for option, value in values.items()
                       if value is not None)]
    argv += [flag for flag in FLAGS.get(command, []) if draw(st.booleans())]
    if draw(st.integers(0, 7)) == 7:
        argv.append(draw(st.sampled_from(STRAYS)))
    return argv


def _resolve(token, root):
    """Replace a ``{name}`` placeholder by a path under ``root``."""
    head, brace, rest = token.partition("{")
    if not brace:
        return token
    return head + str(root / rest.rstrip("}"))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(argv=argvs())
def test_exit_code_contract(files, argv):
    argv = [_resolve(token, files) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    # dump-model without --out-dir writes to the working directory.
    cwd = os.getcwd()
    os.chdir(files)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2, 3)
    if code != 0:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, (argv, err.getvalue())
        prefix = {1: "usage error: ", 2: "error: ", 3: "numerical error: "}[code]
        assert lines[0].startswith(prefix), (argv, lines[0])


SUBCOMMANDS = [
    ["classify", "--case", "case9", "--rho", "0.5", "--beta", "0.5"],
    ["evaluate", "--case", "case9", "--rho", "0.5", "--snr-db", "30", "--spec", "{spec.csv}"],
    ["sweep-beta", "--case", "case9", "--rho", "0.5", "--snr-db", "30",
     "--beta", "0:1:0.5", "--out", "{out.csv}"],
    ["montecarlo-alpha", "--case", "case9", "--rho", "0.5", "--snr-db", "30",
     "--alphas", "0.5,1", "--trials", "2", "--out", "{out.csv}"],
    ["sweep-k", "--case", "case9", "--rho", "0.5", "--snr-db", "30",
     "--ks", "2,9", "--trials", "2", "--out", "{out.csv}"],
    ["maximize", "--case", "case9", "--rho", "0.5", "--snr-db", "30",
     "--bounds", "{bounds.csv}", "--oracle", "--out", "{out.csv}"],
    ["mtd-plan", "--case", "case9", "--rho", "0.5", "--snr-db", "30",
     "--bounds", "{bounds.csv}", "--out", "{out.csv}"],
]


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=[a[0] for a in SUBCOMMANDS])
def test_subcommands_never_build_the_jacobian(argv, files, no_jacobian, capsys):
    assert main([_resolve(token, files) for token in argv]) == 0
    capsys.readouterr()


def test_dump_model_builds_the_jacobian(files, no_jacobian):
    # The guard is live: the one subcommand that writes H trips it.
    with pytest.raises(AssertionError, match="Jacobian"):
        main(["dump-model", "--case", "case9", "--out-dir", str(files)])
