import numpy as np
import pytest

from lqmfg import conditions, fbsolver, mftype, riccati, simulator
from lqmfg.cli import bundled_config, main
from lqmfg.coeffs import load_config
from lqmfg.conditions import report_csv
from lqmfg.fbsolver import (FBSolution, ScanReport, fbsolution_csv,
                            refine_singular_horizon, scan_csv)
from lqmfg.mftype import MFTypeSolution, mftype_csv
from lqmfg.riccati import RiccatiPath, riccati_csv
from lqmfg.simulator import ProbeReport, RateReport, probe_csv, rate_csv

EX1 = str(bundled_config("counterexample_2d_1"))
BENCH = str(bundled_config("benchmark_scalar"))
CLASSICAL = str(bundled_config("classical_lq"))
APPENDIX = str(bundled_config("appendix_scalar"))


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_scan_reproduces_paper_values(tmp_path, capsys):
    code = main(["scan", "--config", EX1, "--tmax", "1.0", "--steps", "1000",
                 "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_rows(tmp_path / "scan.csv")
    assert header == ["t", "det_phi22", "det_phi21"]
    assert abs(float(rows[830][1]) - 0.1244555) < 1e-4
    assert abs(float(rows[860][1]) - (-0.1295142)) < 1e-4
    assert "bracket" in capsys.readouterr().out


def test_validate_rejects_indefinite_Q(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    text = (tmp_path / "base.cfg").write_text("")  # noqa: F841
    source = open(CLASSICAL).read().replace(
        "const = 1.5, 0.2; 0.2, 1.0", "const = -1.5, 0.2; 0.2, 1.0")
    bad.write_text(source)
    code = main(["validate", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert "Q at" in captured.out        # report names the offending section
    assert captured.err.startswith("ERROR: ")
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("old, new, message", [
    ("\nT = 1.0\n", "\nT = inf\n", "horizon T must be positive and finite"),
    ("delta = 0.5", "delta = inf", "delta must be positive and finite"),
    ("x0_mean = 1.0", "x0_mean = nan", "x0_mean contains non-finite"),
    ("[QT]\nconst = 0.5", "[QT]\nconst = inf", "QT contains non-finite"),
    ("[QbarT]\nconst = 0.0", "[QbarT]\nconst = nan",
     "QbarT contains non-finite"),
    ("[ST]\nconst = 1.0", "[ST]\nconst = nan", "ST contains non-finite"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_scalars_and_terminal_data_exit_1(tmp_path, capsys, old,
                                                     new, message):
    source = bundled_config("benchmark_scalar").read_text()
    assert old in source
    bad = tmp_path / "bad.cfg"
    bad.write_text(source.replace(old, new))
    for verb in ("validate", "check", "solve", "riccati", "scan", "mftype",
                 "compare", "simulate"):
        code = main([verb, "--config", str(bad),
                     "--out", str(tmp_path / verb)])
        assert code == 1, verb
        err = capsys.readouterr().err
        assert err.startswith("ERROR: ") and message in err, (verb, err)
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / verb).exists()


def test_validate_accepts_bundled_configs(tmp_path):
    for name in ("counterexample_2d_1", "counterexample_2d_2", "classical_lq",
                 "benchmark_scalar"):
        assert main(["validate", "--config", str(bundled_config(name)),
                     "--out", str(tmp_path)]) == 0


def test_missing_config_file_exits_1(tmp_path, capsys):
    code = main(["solve", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("ERROR: ")


def test_solve_classical_reports_agreement(tmp_path, capsys):
    code = main(["solve", "--config", CLASSICAL, "--steps", "500",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "fixed-point agreement" in out
    header, rows = read_rows(tmp_path / "solution.csv")
    assert header == ["t", "xi_1", "xi_2", "eta_1", "eta_2"]
    assert len(rows) == 501


def test_solve_at_singular_horizon_exits_2(tmp_path, capsys):
    spec = load_config(EX1)
    T0 = refine_singular_horizon(spec, (0.83, 0.86), tol=1e-12)
    text = open(EX1).read().replace("T = 0.5", f"T = {T0!r}")
    cfg = tmp_path / "toxic.cfg"
    cfg.write_text(text)
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR: ")
    assert "condition number" in err


def test_outputs_are_byte_identical_across_runs(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert main(["scan", "--config", EX1, "--tmax", "0.9",
                     "--steps", "300", "--out", str(out)]) == 0
        assert main(["riccati", "--config", BENCH, "--steps", "200",
                     "--out", str(out)]) == 0
        assert main(["simulate", "--config", BENCH, "--N", "4,8,16",
                     "--paths", "3", "--steps", "10", "--out", str(out)]) == 0
    assert (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()
    for name in ("riccati_direct.csv", "riccati_radon.csv",
                 "riccati_closed_form.csv", "rates.csv", "probe.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_check_writes_conditions_csv(tmp_path, capsys):
    code = main(["check", "--config", BENCH, "--steps", "150",
                 "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_rows(tmp_path / "conditions.csv")
    assert header == ["condition", "lhs", "threshold", "verdict"]
    verdicts = {row[0]: row[3] for row in rows}
    assert verdicts["mainthm"] == "satisfied"
    assert verdicts["riccati_solvable"] == "satisfied"
    assert verdicts["shifted_positive_weight"] == "satisfied"
    assert "contraction lhs" in capsys.readouterr().out


def test_mftype_verb(tmp_path, capsys):
    code = main(["mftype", "--config", CLASSICAL, "--steps", "300",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "mftype.csv").exists()


def test_compare_verb_requires_scalar(tmp_path, capsys):
    code = main(["compare", "--config", CLASSICAL, "--out", str(tmp_path)])
    assert code == 1
    assert "scalar" in capsys.readouterr().err


def test_compare_verb_scalar_output(tmp_path, capsys):
    code = main(["compare", "--config", BENCH, "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "compare.txt").read_text()
    assert "psi1_T=" in text


def test_appendix_verb_emits_both_verdicts(tmp_path, capsys):
    code = main(["appendix", "--config", APPENDIX, "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_rows(tmp_path / "appendix.csv")
    verdicts = {row[0]: (float(row[1]), row[3]) for row in rows}
    assert verdicts["adjoint_gamma"][1] == "satisfied"
    assert verdicts["feedback_simplified"][1] == "violated"
    assert verdicts["feedback_simplified"][0] >= 1.0
    out = capsys.readouterr().out
    assert "gamma <= 1" in out


def test_simulate_verb_small(tmp_path, capsys):
    code = main(["simulate", "--config", BENCH, "--N", "4,8,16",
                 "--paths", "3", "--steps", "10", "--seed", "5",
                 "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_rows(tmp_path / "rates.csv")
    assert header == ["N", "gap_mean", "gap_stderr", "cost_gap_mean",
                      "cost_gap_stderr"]
    assert [row[0] for row in rows] == ["4", "8", "16"]
    header, rows = read_rows(tmp_path / "probe.csv")
    assert rows[-1][0] == "best_response"


@pytest.mark.parametrize("flags, x0_cov, message", [
    (["--N", "4,8"], None, "at least 3 distinct"),
    (["--N", "1,4,8"], None, "at least 2"),
    (["--N", "4,x,8"], None, "comma-separated integers"),
    (["--paths", "0"], None, "replication"),
    (["--steps", "0"], None, "--steps"),
    ([], "0.25, 0.1", "x0_cov must be 1x1"),
    ([], "-0.25", "not positive semidefinite"),
])
def test_simulate_rejects_bad_input_before_simulating(tmp_path, capsys,
                                                      monkeypatch, flags,
                                                      x0_cov, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("simulated despite bad input")

    monkeypatch.setattr(simulator, "equilibrium_law", unreachable)
    config = BENCH
    if x0_cov is not None:
        config = tmp_path / "bad.cfg"
        config.write_text(open(BENCH).read().replace(
            "x0_cov = 0.25", f"x0_cov = {x0_cov}"))
    code = main(["simulate", "--config", str(config), "--paths", "2",
                 "--out", str(tmp_path), *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR: ") and message in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "rates.csv").exists()


@pytest.mark.parametrize("verb, config, flags, message", [
    ("check", "benchmark_scalar", ["--steps", "0"], "--steps"),
    ("solve", "benchmark_scalar", ["--steps", "0"], "--steps"),
    ("riccati", "benchmark_scalar", ["--steps", "-5"], "--steps"),
    ("scan", "benchmark_scalar", ["--steps", "0"], "--steps"),
    ("mftype", "benchmark_scalar", ["--steps", "-5"], "--steps"),
    ("compare", "benchmark_scalar", ["--steps", "0"], "--steps"),
    ("appendix", "appendix_scalar", ["--steps", "-5"], "--steps"),
    ("scan", "benchmark_scalar", ["--tmax", "-1", "--steps", "4"], "--tmax"),
    ("scan", "benchmark_scalar", ["--tmax", "0"], "--tmax"),
])
def test_bad_steps_and_horizon_exit_1_before_solving(tmp_path, capsys,
                                                     monkeypatch, verb,
                                                     config, flags, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("solved despite bad input")

    for module, name in [(fbsolver, "existence_scan"),
                         (fbsolver, "solve_equilibrium_shooting"),
                         (riccati, "solve_nonsymmetric_direct"),
                         (conditions, "compute_L"),
                         (mftype, "solve_mftype_mean"),
                         (mftype, "compare_mfg_mftype"),
                         (conditions, "appendix_report")]:
        monkeypatch.setattr(module, name, unreachable)
    code = main([verb, "--config", str(bundled_config(config)),
                 "--out", str(tmp_path), *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR: ") and message in err
    assert len(err.strip().splitlines()) == 1
    assert not list(tmp_path.iterdir())


def test_csv_writers_reproduce_reference_text():
    nan = float("nan")
    grid = np.array([0.0, 0.5])
    pair = np.array([[1.0 / 3.0, -2.0], [nan, 1e-300]])
    texts = [
        fbsolution_csv(FBSolution(grid=grid, xi=pair, eta=pair[::-1],
                                  eta0=pair[0], boundary_residual=0.0,
                                  ode_residual=nan)),
        scan_csv(ScanReport(grid=grid, det22=np.array([1.0, -0.25]),
                            det21=np.array([nan, 2e-17]),
                            sign_change_brackets=[])),
        riccati_csv(RiccatiPath(grid=grid,
                                gamma=np.arange(8.0).reshape(2, 2, 2) / 7.0)),
        riccati_csv(RiccatiPath(grid=grid, gamma=np.array([[[0.1]], [[nan]]]),
                                aux=np.array([[-0.0], [3.0]]))),
        mftype_csv(MFTypeSolution(grid=grid, ybar=pair[:, :1],
                                  pbar=pair[:, 1:], boundary_residual=0.0)),
        report_csv({"mainthm": (0.1 + 0.2, 1.0, "satisfied"),
                    "riccati_solvable": (None, 1, "not-concluded")}),
        rate_csv(RateReport(N_values=(10, 1250), gap_mean=np.array([0.5, nan]),
                            gap_stderr=np.array([1e-3, 0.0]),
                            cost_gap_mean=np.array([2.0, 1.0 / 3.0]),
                            cost_gap_stderr=np.array([0.0, 1e20]),
                            gap_slope=-1.0, gap_slope_stderr=0.1,
                            cost_gap_slope=-0.5, cost_gap_slope_stderr=0.1)),
        probe_csv(ProbeReport(labels=("0.5", "best_response"),
                              cost_diff=np.array([0.25, nan]),
                              stderr=np.array([1e-5, 0.0]))),
    ]
    assert texts == [
        "t,xi_1,xi_2,eta_1,eta_2\n"
        "0.0,0.3333333333333333,-2.0,nan,1e-300\n"
        "0.5,nan,1e-300,0.3333333333333333,-2.0\n",
        "t,det_phi22,det_phi21\n0.0,1.0,nan\n0.5,-0.25,2e-17\n",
        "t,gamma_11,gamma_12,gamma_21,gamma_22\n"
        "0.0,0.0,0.14285714285714285,0.2857142857142857,0.42857142857142855\n"
        "0.5,0.5714285714285714,0.7142857142857143,0.8571428571428571,1.0\n",
        "t,gamma_11,zeta_1\n0.0,0.1,-0.0\n0.5,nan,3.0\n",
        "t,ybar_1,pbar_1\n0.0,0.3333333333333333,-2.0\n0.5,nan,1e-300\n",
        "condition,lhs,threshold,verdict\n"
        "mainthm,0.30000000000000004,1.0,satisfied\n"
        "riccati_solvable,nan,1.0,not-concluded\n",
        "N,gap_mean,gap_stderr,cost_gap_mean,cost_gap_stderr\n"
        "10,0.5,0.001,2.0,0.0\n1250,nan,0.0,0.3333333333333333,1e+20\n",
        "theta,cost_diff,stderr\n0.5,0.25,1e-05\nbest_response,nan,0.0\n",
    ]
