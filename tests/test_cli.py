import os
import subprocess
import sys

import numpy as np
import pytest

import stealthdeg
from stealthdeg import NotPSDError
from stealthdeg.case_ingest import bundled_case_text
from stealthdeg.cli import (
    RANGE_POINT_CAP,
    main,
    parse_float_list,
    parse_int_list,
    parse_range,
)
from stealthdeg.errors import ValidationError
from stealthdeg.experiment_harness import sample_bounds

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
            raise NotPSDError("synthetic")

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
    (["classify", "--case", "case9", "--rho", "0.5", "--beta", "nan"], None),
    (["montecarlo-alpha", *SCENARIO, "--alphas", "nan", "--trials", "2",
      "--out", "{out}"], None),
    (["montecarlo-alpha", *SCENARIO, "--alphas", "1", "--trials", "2",
      "--seed=-1", "--out", "{out}"], None),
    (["sweep-beta", "--case", "case9", "--rho", "0.5", "--snr-db", "nan",
      "--beta", "0:1:0.5", "--out", "{out}"], None),
    (["sweep-beta", *SCENARIO, "--beta=nan:1:0.5", "--out", "{out}"], None),
], ids=["spec-phi-nan", "bounds-phi-min-nan", "spec-phi-abc", "spec-short-row",
        "beta-nan", "alphas-nan", "seed-negative", "snr-db-nan", "range-nan"])
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
    assert len(parse_range(f"1:{RANGE_POINT_CAP}:1")) == RANGE_POINT_CAP
    with pytest.raises(ValidationError):
        parse_range(f"0:{RANGE_POINT_CAP}:1")
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
