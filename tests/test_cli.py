import os
import subprocess
import sys

import numpy as np
import pytest

import stealthdeg
from stealthdeg import (
    IncompletenessSpec,
    ObjectiveEvaluator,
    SingularityError,
    classify_delta,
    load_case,
    toeplitz_cov,
)
from stealthdeg.case_ingest import bundled_case_text, render_case
from stealthdeg.cli import (
    POINT_CAP,
    main,
    parse_float_list,
    parse_int_list,
    parse_range,
)
from stealthdeg.errors import ValidationError
from stealthdeg.experiment_harness import fmt17, sample_bounds

from oracles import delta_matrix

BOUNDS_CSV = "branch_index,phi_min,phi_max\n" + "".join(
    f"{i},-1,1\n" for i in range(1, 10)
)


@pytest.fixture()
def bounds_file(tmp_path):
    path = tmp_path / "bounds.csv"
    path.write_text(BOUNDS_CSV)
    return str(path)


class TestParsing:
    def test_range_inclusive(self):
        grid = parse_range("-3:1:0.02")
        assert len(grid) == 201
        assert grid[0] == -3.0
        assert grid[-1] == pytest.approx(1.0, abs=1e-9)

    def test_range_single_point(self):
        assert parse_range("0.5:0.5:1") == [0.5]

    def test_range_errors(self):
        for bad in ("1:2", "a:b:c", "2:1:0.5", "0:1:0"):
            with pytest.raises(ValidationError):
                parse_range(bad)

    def test_lists(self):
        assert parse_float_list("0.2,0.5,1") == [0.2, 0.5, 1.0]
        assert parse_int_list("2,5,9") == [2, 5, 9]
        with pytest.raises(ValidationError):
            parse_float_list("1,x")


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["no-such-command"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_case_is_two(self, tmp_path, capsys):
        code = main([
            "dump-model", "--case", str(tmp_path / "nope.m"),
            "--out-dir", str(tmp_path),
        ])
        assert code == 2
        assert "nope.m" in capsys.readouterr().err

    def test_missing_path_with_directory_is_two(self, tmp_path, monkeypatch, capsys):
        # case14 is bundled, but a path with a directory part never falls
        # back to a bundled case.
        monkeypatch.chdir(tmp_path)
        spec = tmp_path / "s.csv"
        spec.write_text("branch_index,phi\n1,0.5\n")
        code = main(["evaluate", "--case", "my/grids/case14.m", "--rho", "0.5",
                     "--snr-db", "30", "--spec", str(spec)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: case file not found: my/grids/case14.m\n"

    def test_non_integer_bus_id_is_two(self, tmp_path, capsys):
        case = tmp_path / "frac.m"
        case.write_text("mpc.baseMVA = 100;\nmpc.bus = [ 1.9 3; 2 1; ];\n"
                        "mpc.branch = [\n1 2 0 0.1 0 0 0 0 0 0 1;\n];\n")
        code = main(["classify", "--case", str(case), "--rho", "0.5", "--beta", "0.5"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: bus column 1 is not an integer\n"

    def test_bad_rho_is_two(self, tmp_path, capsys):
        code = main([
            "sweep-beta", "--case", "case9", "--rho", "1.5", "--snr-db", "30",
            "--beta", "0:1:0.5", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "rho" in capsys.readouterr().err

    def test_numerical_error_is_three(self, monkeypatch, capsys):
        import stealthdeg.cli as cli

        def boom(path):
            raise SingularityError("synthetic")

        monkeypatch.setattr(cli, "load_case", boom)
        assert cli.main(["dump-model", "--case", "case9"]) == 3
        assert "numerical error" in capsys.readouterr().err


class TestCommands:
    def test_dump_model(self, tmp_path, capsys):
        assert main(["dump-model", "--case", "case9",
                     "--out-dir", str(tmp_path)]) == 0
        a = np.loadtxt(tmp_path / "A.csv", delimiter=",")
        d = np.loadtxt(tmp_path / "D.csv", delimiter=",")
        h = np.loadtxt(tmp_path / "H.csv", delimiter=",")
        assert a.shape == (9, 8)
        assert d.shape == (9,)
        assert h.shape == (26, 8)
        assert np.allclose(h[8:17], d[:, None] * a)

    def test_classify_uniform(self, capsys):
        assert main(["classify", "--case", "case9", "--rho", "0.5",
                     "--beta", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "regime = LESS_STEALTHY_MORE_DESTRUCTIVE" in out
        assert "sufficient_psd_lhs" in out

    def test_classify_uniform_positive_holds_psd(self, capsys):
        assert main(["classify", "--case", "case9", "--rho", "0.5",
                     "--beta", "0.08"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[3].startswith("sufficient_psd_lhs = ")
        assert lines[3].endswith("(holds: True)")

    @pytest.mark.parametrize("source", ["0.5", "-0.8", "0", "spec"])
    def test_classify_decomposes_delta_once(self, source, case9_model, tmp_path,
                                            monkeypatch, capsys):
        model = case9_model
        if source == "spec":
            phi = np.linspace(-0.5, 0.5, model.l)
            path = tmp_path / "spec.csv"
            path.write_text("branch_index,phi\n" + "".join(
                f"{i + 1},{p:.17g}\n" for i, p in enumerate(phi)))
            spec, args = IncompletenessSpec.from_phi(phi), ["--spec", str(path)]
        else:
            spec = IncompletenessSpec.uniform(model.l, float(source))
            args = [f"--beta={source}"]
        eigvalsh, calls = np.linalg.eigvalsh, []

        def counting(mat):
            calls.append(mat)
            return eigvalsh(mat)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert main(["classify", "--case", "case9", "--rho", "0.5", *args]) == 0
        monkeypatch.undo()
        assert len(calls) == 1
        delta = delta_matrix(model, toeplitz_cov(model.n, 0.5), spec)
        label = capsys.readouterr().out.splitlines()[0]
        assert label == f"regime = {classify_delta(delta).value}"

    def test_classify_needs_exactly_one_input(self, bounds_file, capsys):
        assert main(["classify", "--case", "case9", "--rho", "0.5"]) == 2
        assert main(["classify", "--case", "case9", "--rho", "0.5",
                     "--beta", "0.1", "--spec", bounds_file]) == 2

    def test_evaluate_prints_metrics(self, tmp_path, capsys):
        spec = tmp_path / "spec.csv"
        spec.write_text("branch_index,phi\n1,0.5\n2,-0.25\n")
        assert main(["evaluate", "--case", "case9", "--rho", "0.5",
                     "--snr-db", "30", "--spec", str(spec)]) == 0
        out = capsys.readouterr().out
        for key in ("kl_nats", "mi_nats", "kl_opt_nats", "mi_opt_nats"):
            assert key in out

    def test_sweep_beta_row_count_and_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "b1.csv"
        out2 = tmp_path / "b2.csv"
        for out in (out1, out2):
            assert main(["sweep-beta", "--case", "case9", "--rho", "0.5",
                         "--snr-db", "30", "--beta=-3:1:0.02",
                         "--out", str(out)]) == 0
        lines = out1.read_text().splitlines()
        assert len(lines) == 202  # header + 201 grid rows
        assert out1.read_bytes() == out2.read_bytes()

    def test_montecarlo_alpha_determinism_and_default_seed(self, tmp_path):
        args = ["montecarlo-alpha", "--case", "case9", "--rho", "0.5",
                "--snr-db", "30", "--alphas", "0.5,1", "--trials", "3"]
        out1, out2, out3 = (tmp_path / n for n in ("m1.csv", "m2.csv", "m3.csv"))
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2), "--seed", "0"]) == 0
        assert main(args + ["--out", str(out3), "--seed", "1"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes() != out3.read_bytes()
        assert len(out1.read_text().splitlines()) == 7

    def test_sweep_k(self, tmp_path):
        out = tmp_path / "k.csv"
        assert main(["sweep-k", "--case", "case9", "--rho", "0.5",
                     "--snr-db", "30", "--ks", "2,5", "--alpha", "1",
                     "--trials", "4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("k,trial,alpha")
        assert len(lines) == 9

    def test_maximize_with_oracle(self, tmp_path, bounds_file, capsys):
        out = tmp_path / "sol.csv"
        assert main(["maximize", "--case", "case9", "--rho", "0.5",
                     "--snr-db", "30", "--bounds", bounds_file,
                     "--oracle", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "objective =" in printed
        assert "oracle_gap =" in printed
        lines = out.read_text().splitlines()
        assert lines[0] == "branch_index,phi_star,choice"
        assert len(lines) == 10
        for line in lines[1:]:
            idx, phi, choice = line.split(",")
            assert float(phi) in (-1.0, 1.0)
            assert choice in ("LOW", "HIGH")

    def test_mtd_plan_and_zeroed_warning(self, tmp_path, capsys):
        bounds = tmp_path / "pinned.csv"
        bounds.write_text("branch_index,phi_min,phi_max\n1,-1,-1\n2,0.25,0.25\n")
        out = tmp_path / "plan.csv"
        assert main(["mtd-plan", "--case", "case9", "--rho", "0.5",
                     "--snr-db", "30", "--bounds", str(bounds),
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        lines = out.read_text().splitlines()
        assert lines[0] == "branch_index,phi,admittance_target,zeroed"
        first = lines[1].split(",")
        assert first[0] == "1" and float(first[2]) == 0.0 and first[3] == "1"
        second = lines[2].split(",")
        # branch 2: b = b' / (1 + phi) with b' = 1/0.092 and phi = 0.25
        assert float(second[2]) == pytest.approx((1 / 0.092) / 1.25)
        assert second[3] == "0"


SCENARIO = ["--case", "case9", "--rho", "0.5", "--snr-db", "30"]


@pytest.mark.parametrize("argv,csv_text", [
    (["evaluate", *SCENARIO, "--spec", "{csv}"], "branch_index,phi\n1,nan\n"),
    (["maximize", *SCENARIO, "--bounds", "{csv}", "--out", "{out}"],
     "branch_index,phi_min,phi_max\n1,nan,0.5\n"),
    (["evaluate", *SCENARIO, "--spec", "{csv}"], "branch_index,phi\n1,abc\n"),
    (["evaluate", *SCENARIO, "--spec", "{csv}"],
     "branch_index,phi_min,phi_max\n1,-0.5\n"),
    (["evaluate", *SCENARIO, "--spec", "{csv}"], "branch_index,phi\n1.5,0.25\n"),
    (["classify", "--case", "case9", "--rho", "0.5", "--beta", "nan"], None),
    (["montecarlo-alpha", *SCENARIO, "--alphas", "nan", "--trials", "2",
      "--out", "{out}"], None),
    (["montecarlo-alpha", *SCENARIO, "--alphas", ",", "--trials", "2", "--out", "{out}"], None),
    (["montecarlo-alpha", *SCENARIO, "--alphas", "1", "--trials", "2",
      "--seed=-1", "--out", "{out}"], None),
    (["sweep-beta", "--case", "case9", "--rho", "0.5", "--snr-db", "nan",
      "--beta", "0:1:0.5", "--out", "{out}"], None),
    (["sweep-beta", *SCENARIO, "--beta=nan:1:0.5", "--out", "{out}"], None),
    # Rejected before the (trials, l) bound arrays are allocated, so it does
    # not rely on the allocation failing.
    (["montecarlo-alpha", *SCENARIO, "--alphas", "1", "--trials", "1000000000000",
      "--out", "{out}"], None),
    (["sweep-k", *SCENARIO, "--ks", "2", "--trials", "1000000000000", "--out", "{out}"], None),
], ids=["spec-phi-nan", "bounds-phi-min-nan", "spec-phi-abc", "spec-short-row",
        "spec-branch-index-fraction", "beta-nan", "alphas-nan", "alphas-comma",
        "seed-negative", "snr-db-nan", "range-nan",
        "montecarlo-alpha-trials-huge", "sweep-k-trials-huge"])
def test_bad_scalar_input_is_two(argv, csv_text, tmp_path, capsys):
    path = tmp_path / "in.csv"
    if csv_text is not None:
        path.write_text(csv_text)
    argv = [a.format(csv=path, out=tmp_path / "out.csv") for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_overflowing_ratio_is_three(tmp_path, capsys):
    spec = tmp_path / "spec.csv"
    spec.write_text("branch_index,phi\n1,1e200\n")
    with np.errstate(over="ignore"):
        assert main(["evaluate", *SCENARIO, "--spec", str(spec)]) == 3
    assert "numerical error" in capsys.readouterr().err


@pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["greedy", "oracle"])
def test_maximize_non_finite_score_is_three(oracle, tmp_path, capsys):
    # The 1e200 bound overflows its greedy score; every candidate's score is
    # checked, not only the chosen one's.
    bounds = tmp_path / "bounds.csv"
    bounds.write_text("branch_index,phi_min,phi_max\n1,-0.5,0.5\n2,0,1e200\n3,-0.5,0.5\n")
    argv = ["maximize", *SCENARIO, "--bounds", str(bounds), *oracle,
            "--out", str(tmp_path / "sol.csv")]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(argv) == 3
    assert "numerical error" in capsys.readouterr().err


def _bounds_csv(path, lo, hi):
    path.write_text("branch_index,phi_min,phi_max\n" + "".join(
        f"{i + 1},{lo[i]:.17g},{hi[i]:.17g}\n" for i in range(len(lo))))


def test_oracle_gap_is_zero_when_the_optimum_is_zero(tmp_path, capsys):
    # Every branch pinned at -1 cancels the attack: both searches score 0.
    bounds = tmp_path / "bounds.csv"
    _bounds_csv(bounds, [-1.0] * 9, [-1.0] * 9)
    assert main(["maximize", *SCENARIO, "--bounds", str(bounds), "--oracle",
                 "--out", str(tmp_path / "sol.csv")]) == 0
    assert "oracle_gap = 0\n" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["maximize", "mtd-plan"])
def test_oracle_keeps_refine(command, tmp_path, capsys):
    # Draw 0 of seed 0 at alpha = 1: refining moves the greedy vertex.
    bounds = tmp_path / "bounds.csv"
    _bounds_csv(bounds, *sample_bounds(0, 0, tuple(range(9)), 1.0, 9))
    printed = {}
    for flags in ([], ["--refine"], ["--oracle", "--refine"]):
        out = tmp_path / f"out{''.join(flags)}.csv"
        assert main([command, *SCENARIO, "--bounds", str(bounds), *flags,
                     "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        printed[tuple(flags)] = (lines[0], out.read_bytes())
    assert printed[("--oracle", "--refine")] == printed[("--refine",)]
    assert printed[()][0] != printed[("--refine",)][0]


def test_mtd_plan_prints_the_oracle_gap_of_maximize(bounds_file, tmp_path, capsys):
    printed = {}
    for argv in (["maximize", "--oracle"], ["mtd-plan", "--oracle"], ["mtd-plan"]):
        assert main([*argv, *SCENARIO, "--bounds", bounds_file,
                     "--out", str(tmp_path / "out.csv")]) == 0
        printed[tuple(argv)] = [line for line in capsys.readouterr().out.splitlines()
                                if line.startswith("oracle_gap")]
    assert len(printed[("maximize", "--oracle")]) == 1
    assert printed[("mtd-plan", "--oracle")] == printed[("maximize", "--oracle")]
    assert printed[("mtd-plan",)] == []


@pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["greedy", "oracle"])
@pytest.mark.parametrize("command", ["maximize", "mtd-plan"])
def test_maximize_builds_one_evaluator(command, oracle, bounds_file, tmp_path,
                                       monkeypatch, capsys):
    init, calls = ObjectiveEvaluator.__init__, []

    def counting(self, model, stats):
        calls.append(stats)
        init(self, model, stats)

    monkeypatch.setattr(ObjectiveEvaluator, "__init__", counting)
    assert main([command, *SCENARIO, "--bounds", bounds_file, *oracle,
                 "--out", str(tmp_path / "out.csv")]) == 0
    assert len(calls) == 1


_SEEDED = np.sort(np.random.default_rng(2).uniform(-1, 1, (9, 2)), axis=1)
_CHOICE_BOXES = {
    "all-pinned": [(i + 1, p, p) for i, p in enumerate(np.linspace(-0.4, 0.4, 9))],
    "seeded": [(i + 1, lo, hi) for i, (lo, hi) in enumerate(_SEEDED)],
    "mixed": [(1, -0.5, 0.5), (2, 0.3, 0.3), (4, -1.0, 0.75), (5, -0.25, -0.25),
              (7, -0.9, 1.2), (9, 0.0, 0.0)],
}


@pytest.mark.parametrize("rows", _CHOICE_BOXES.values(), ids=_CHOICE_BOXES.keys())
def test_maximize_writes_choices_and_objective_at_zero(rows, case9_model, case9_stats,
                                                       tmp_path, capsys):
    bounds, out = tmp_path / "bounds.csv", tmp_path / "vertex.csv"
    bounds.write_text("branch_index,phi_min,phi_max\n" + "".join(
        f"{i},{fmt17(lo)},{fmt17(hi)}\n" for i, lo, hi in rows))
    assert main(["maximize", *SCENARIO, "--bounds", str(bounds), "--out", str(out)]) == 0
    at_zero = 2.0 * ObjectiveEvaluator(case9_model, case9_stats).baseline()[0]
    assert f"objective_at_zero = {fmt17(at_zero)}" in capsys.readouterr().out.splitlines()
    lines = out.read_text().splitlines()
    assert lines[0] == "branch_index,phi_star,choice"
    assert len(lines) == len(rows) + 1
    for (i, lo, hi), line in zip(rows, lines[1:]):
        index, phi, choice = line.split(",")
        assert int(index) == i
        assert float(phi) in (lo, hi)
        if lo == hi:
            assert choice == "PINNED"
        else:
            assert choice == ("LOW" if float(phi) == lo else "HIGH")


@pytest.mark.parametrize("argv", [
    ["classify", "--case", "case9", "--beta", "0.5"],
    ["maximize", "--case", "case9", "--snr-db", "30", "--bounds", "{bounds}",
     "--out", "{out}"],
])
def test_bad_rho_is_one_validation_line(argv, bounds_file, tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = [a.format(bounds=bounds_file, out=out) for a in argv]
    assert main([*argv, "--rho", "1.5"]) == 2
    assert capsys.readouterr().err == "error: rho must lie in [0, 1), got 1.5\n"
    assert not out.exists()


def _case_text(buses, branches):
    """Case text with bus 1 the reference and (from, to, x, status) branches."""
    bus_rows = "".join(f"{b} {3 if b == 1 else 1};\n" for b in buses)
    branch_rows = "".join(f"{f} {t} 0 {x} 0 0 0 0 0 0 {s};\n" for f, t, x, s in branches)
    return (f"mpc.baseMVA = 100;\nmpc.bus = [\n{bus_rows}];\n"
            f"mpc.branch = [\n{branch_rows}];\n")


_ONE_LINE_ERRORS = {
    "out-of-service": (
        ["classify", "--case", "{case}", "--rho", "0.5", "--beta", "0.5"],
        _case_text([1, 2], [(1, 2, 0.1, 0)]), None,
        2, "error: no in-service branch"),
    "two-islands": (
        ["classify", "--case", "{case}", "--rho", "0.5", "--beta", "0.5"],
        _case_text([1, 2, 3, 4], [(1, 2, 0.1, 1), (3, 4, 0.1, 1)]), None,
        2, "error: in-service branch graph has 2 components"),
    "enumeration-cap": (
        ["maximize", "--case", "case30", "--rho", "0.5", "--snr-db", "30",
         "--bounds", "{csv}", "--oracle", "--out", "{out}"],
        None, "branch_index,phi_min,phi_max\n" + "".join(f"{i},-1,1\n" for i in range(1, 22)),
        2, "error: 21 free coordinates exceed the enumeration cap 20"),
    "unreachable-alpha": (
        ["montecarlo-alpha", *SCENARIO, "--alphas", "100", "--trials", "2", "--out", "{out}"],
        None, None,
        2, "error: alpha 100.0 exceeds the box maximum 6"),
    # Reactances of 1e300 give susceptances whose squares underflow, so the
    # signal power is exactly 0: a numerical error, not a validation one.
    "zero-signal-power": (
        ["evaluate", "--case", "{case}", "--rho", "0.5", "--snr-db", "30", "--spec", "{csv}"],
        _case_text([1, 2, 3], [(1, 2, 1e300, 1), (2, 3, 1e300, 1), (1, 3, 1e300, 1)]),
        "branch_index,phi\n1,0.5\n",
        3, "numerical error: signal covariance has nonpositive trace 0.0"),
}


@pytest.mark.parametrize("argv, case_text, csv_text, code, line",
                         _ONE_LINE_ERRORS.values(), ids=_ONE_LINE_ERRORS.keys())
def test_error_is_one_stderr_line(argv, case_text, csv_text, code, line, tmp_path, capsys):
    paths = {"case": tmp_path / "case.m", "csv": tmp_path / "in.csv",
             "out": tmp_path / "out.csv"}
    for key, text in (("case", case_text), ("csv", csv_text)):
        if text is not None:
            paths[key].write_text(text)
    assert main([a.format(**paths) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"
    assert not paths["out"].exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("command", ["dump-model", "evaluate"])
def test_non_finite_reactance_is_two(value, command, tmp_path, capsys):
    case = tmp_path / "case.m"
    case.write_text(bundled_case_text("case9").replace("\t0.0576\t", f"\t{value}\t", 1))
    spec = tmp_path / "spec.csv"
    spec.write_text("branch_index,phi\n1,0.5\n")
    extra = {"dump-model": ["--out-dir", str(tmp_path)],
             "evaluate": ["--rho", "0.5", "--snr-db", "30", "--spec", str(spec)]}
    assert main([command, "--case", str(case), *extra[command]]) == 2
    assert "non-finite number in branch row" in capsys.readouterr().err


def test_parser_reuse_matches_fresh_processes(tmp_path, bounds_file, capsys):
    spec = tmp_path / "spec.csv"
    spec.write_text("branch_index,phi\n1,0.5\n2,-0.25\n")
    out = tmp_path / "sol.csv"
    calls = [
        ["maximize", *SCENARIO, "--bounds", bounds_file, "--oracle", "--out", str(out)],
        ["maximize", *SCENARIO, "--bounds", bounds_file, "--out", str(out)],
        ["maximize", "--case", "case9", "--rho", "0.5", "--out", str(out)],
        ["evaluate", *SCENARIO, "--spec", str(spec)],
    ]
    in_process = []
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err, out.read_text()))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(stealthdeg.__file__)))
    fresh = []
    for argv in calls:
        run = subprocess.run([sys.executable, "-m", "stealthdeg.cli", *argv],
                             capture_output=True, text=True, env=env)
        fresh.append((run.returncode, run.stdout, run.stderr, out.read_text()))
    assert [c[0] for c in in_process] == [0, 0, 1, 0]
    assert "oracle_gap" not in in_process[1][1]
    assert in_process == fresh


@pytest.mark.parametrize("snr_db", ["3100", "-3100", "-3300"])
def test_extreme_snr_is_two_without_traceback(snr_db, tmp_path):
    # 10^(snr/10) overflows at 3100 dB, is subnormal at -3100 dB and
    # underflows to zero at -3300 dB.
    spec = tmp_path / "spec.csv"
    spec.write_text("branch_index,phi\n1,0.5\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(stealthdeg.__file__)))
    run = subprocess.run(
        [sys.executable, "-m", "stealthdeg.cli", "evaluate", "--case", "case9",
         "--rho", "0.5", f"--snr-db={snr_db}", "--spec", str(spec)],
        capture_output=True, text=True, env=env)
    assert run.returncode == 2
    assert run.stderr.startswith("error: ")
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("beta, code", [("1e160", 3), ("1e100", 0)])
def test_huge_uniform_ratio_without_traceback(beta, code, tmp_path):
    # (1 + beta)^2 overflows at 1e160; at 1e100 kl is about 4e200 and finite.
    out = tmp_path / "sweep.csv"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(stealthdeg.__file__)))
    run = subprocess.run(
        [sys.executable, "-m", "stealthdeg.cli", "sweep-beta", *SCENARIO,
         f"--beta={beta}:{beta}:1", "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert run.returncode == code
    assert "Traceback" not in run.stderr
    if code == 3:
        assert run.stderr.startswith("numerical error: ")
    else:
        row = out.read_text().splitlines()[1].split(",")
        assert np.isfinite([float(v) for v in row[:3]]).all()


def test_range_point_cap(tmp_path, capsys):
    # About 1e24 points: rejected from the count alone, nothing is built.
    with pytest.raises(ValidationError, match="more than"):
        parse_range("0:1e12:1e-12")
    assert len(parse_range(f"1:{POINT_CAP}:1")) == POINT_CAP
    with pytest.raises(ValidationError):
        parse_range(f"0:{POINT_CAP}:1")
    assert main(["sweep-beta", *SCENARIO, "--beta=0:1e12:1e-12",
                 "--out", str(tmp_path / "out.csv")]) == 2
    assert "more than" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command, extra", [
    ("montecarlo-alpha", ["--alphas", "1"]),
    ("sweep-k", ["--ks", "2"]),
])
def test_zero_trials_is_two(command, extra, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([command, *SCENARIO, *extra, "--trials", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: trials must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sweep-k", *SCENARIO, "--ks", "2", "--alpha", "nan", "--trials", "2"],
    ["montecarlo-alpha", *SCENARIO, "--alphas", "inf", "--trials", "2"],
], ids=["sweep-k-alpha-nan", "montecarlo-alpha-inf"])
def test_non_finite_budget_is_two(argv, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["montecarlo-alpha", "--alphas=,"],
    ["montecarlo-alpha", "--alphas= , "],
    ["sweep-k", "--ks="],
    ["sweep-k", "--ks= ,, "],
], ids=["alphas-comma", "alphas-blanks", "ks-empty", "ks-blanks"])
def test_empty_list_is_two_without_output(argv, tmp_path):
    out = tmp_path / "out.csv"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(stealthdeg.__file__)))
    run = subprocess.run(
        [sys.executable, "-m", "stealthdeg.cli", argv[0], *SCENARIO, argv[1],
         "--trials", "2", "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert run.returncode == 2
    assert run.stderr.startswith("error: empty ")
    assert "Traceback" not in run.stderr
    assert not out.exists()


@pytest.mark.parametrize("which", ["case", "spec"])
def test_non_utf8_file_is_two_without_traceback(which, tmp_path):
    binary = tmp_path / "bin.m"
    binary.write_bytes(b"\xff\xfe\x00x")
    spec = tmp_path / "spec.csv"
    spec.write_text("branch_index,phi\n1,0.5\n")
    case, spec = (binary, spec) if which == "case" else ("case9", binary)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(stealthdeg.__file__)))
    run = subprocess.run(
        [sys.executable, "-m", "stealthdeg.cli", "evaluate", "--case", str(case),
         "--rho", "0.5", "--snr-db", "30", "--spec", str(spec)],
        capture_output=True, text=True, env=env)
    assert run.returncode == 2
    assert run.stderr.startswith("error: ")
    assert "not UTF-8" in run.stderr
    assert len(run.stderr.splitlines()) == 1
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("which", ["case", "spec", "bounds"])
def test_utf8_bom_is_skipped(which, tmp_path, capsys):
    # A byte-order mark before the first assignment or the CSV header is
    # skipped: the run prints what it prints without one.  The rendered case
    # opens with mpc.baseMVA, which the mark would otherwise hide.
    paths = {name: tmp_path / name for name in ("case", "spec", "bounds")}
    paths["case"].write_text(render_case(load_case("case9")))
    paths["spec"].write_text("branch_index,phi\n1,0.5\n")
    paths["bounds"].write_text(BOUNDS_CSV)
    if which == "bounds":
        argv = ["maximize", "--bounds", str(paths["bounds"]), "--out", str(tmp_path / "out.csv")]
    else:
        argv = ["evaluate", "--spec", str(paths["spec"])]
    argv += ["--case", str(paths["case"]), "--rho", "0.5", "--snr-db", "30"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    paths[which].write_bytes(b"\xef\xbb\xbf" + paths[which].read_bytes())
    assert main(argv) == 0
    assert capsys.readouterr() == plain


@pytest.mark.parametrize("which", ["case", "spec"])
def test_bad_byte_after_bom_reports_file_offset(which, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xef\xbb\xbfab\xffc")
    case, spec = (bad, "unused.csv") if which == "case" else ("case9", bad)
    assert main(["evaluate", "--case", str(case), "--rho", "0.5", "--snr-db", "30",
                 "--spec", str(spec)]) == 2
    assert "not UTF-8 text (byte 5)" in capsys.readouterr().err


@pytest.mark.parametrize("ratio", [
    ["--beta", "1e300"], ["--beta", "1e154"], ["--beta", "3e153"], ["--spec", "{spec}"],
], ids=["beta-1e300", "beta-1e154", "beta-3e153", "spec"])
def test_classify_huge_ratio_is_three_without_warning(ratio, tmp_path, capsys):
    # (1e300)^2 overflows delta; at 3e153 delta is finite but its norm and
    # the sufficient-condition margins overflow.  The suite turns warnings
    # into errors, as -W error does.
    spec = tmp_path / "spec.csv"
    spec.write_text("branch_index,phi\n1,1e300\n2,3e153\n")
    argv = ["classify", "--case", "case9", "--rho", "0.5", *(a.format(spec=spec) for a in ratio)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ")
    assert len(err.splitlines()) == 1


def test_cap_is_not_an_option(bounds_file, tmp_path, capsys):
    # The oracle's only limit is ENUMERATION_CAP: --cap 41 on case30 would
    # start a 2^41-vertex enumeration.
    argv = ["maximize", *SCENARIO, "--bounds", bounds_file, "--oracle", "--cap", "41",
            "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("usage error: unrecognized arguments: --cap")


@pytest.mark.parametrize("source", ["beta", "spec"])
@pytest.mark.parametrize("beta", ["1e-12", "1e-10", "-1e-10", "-2.0000000001", "0", "-2", "0.5"])
def test_classify_labels_uniform_phi_as_sweep_beta(beta, source, tmp_path, capsys):
    # Both take the exact sign of 2 beta + beta^2, with no tolerance.
    out = tmp_path / "sweep.csv"
    assert main(["sweep-beta", *SCENARIO, f"--beta={beta}:{beta}:1", "--out", str(out)]) == 0
    swept = out.read_text().splitlines()[1].rsplit(",", 1)[1]
    spec = tmp_path / "spec.csv"
    spec.write_text("branch_index,phi\n" + "".join(f"{i},{beta}\n" for i in range(1, 10)))
    ratio = [f"--beta={beta}"] if source == "beta" else ["--spec", str(spec)]
    capsys.readouterr()
    assert main(["classify", "--case", "case9", "--rho", "0.5", *ratio]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"regime = {swept}"
    assert (swept == "BOUNDARY") == (float(beta) in (0.0, -2.0))


@pytest.mark.parametrize("command, extra", [
    ("dump-model", []),
    ("classify", ["--rho", "0.5", "--beta", "0.5"]),
    ("evaluate", [*SCENARIO[2:], "--spec", "{spec}"]),
    ("sweep-beta", [*SCENARIO[2:], "--beta", "0:1:0.5", "--out", "{out}"]),
    ("maximize", [*SCENARIO[2:], "--bounds", "{spec}", "--out", "{out}"]),
    ("mtd-plan", [*SCENARIO[2:], "--bounds", "{spec}", "--out", "{out}"]),
])
def test_seed_only_on_drawing_subcommands(command, extra, tmp_path, capsys):
    # Only montecarlo-alpha and sweep-k draw; elsewhere --seed is unknown.
    spec = tmp_path / "spec.csv"
    spec.write_text("branch_index,phi\n1,0.5\n")
    argv = [command, "--case", "case9",
            *(a.format(spec=spec, out=tmp_path / "out.csv") for a in extra)]
    if command == "dump-model":
        argv += ["--out-dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main([*argv, "--seed", "0"]) == 1
    assert capsys.readouterr().err.startswith("usage error: unrecognized arguments: --seed")
