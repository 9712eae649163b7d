import warnings

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
    out = capsys.readouterr().out
    assert "1 sign-change bracket(s)" in out
    assert "0 more within its rounding floor" in out


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


# a classical scalar problem (Abar = Qbar = QbarT = 0) on which shooting at
# T = 20 with 8000 steps misses its terminal condition by about 3.7e3
LOST_ACCURACY = """
[problem]
n = 1
m = 1
T = 20.0
x0_mean = -0.2401738727523628
[A]
const = 0.025684855058411154
[Abar]
const = 0.0
[B]
const = 1.6106745607467148
[sigma]
const = 0.2
[Q]
const = 1.4594698154980255
[Qbar]
const = 0.0
[R]
const = 0.7305467032119126
[S]
const = 0.0
[QT]
const = 3.645387139582785
[QbarT]
const = 0.0
[ST]
const = 1.0
"""


def test_solve_with_lost_shooting_accuracy_exits_2(tmp_path, capsys):
    cfg = tmp_path / "long.cfg"
    cfg.write_text(LOST_ACCURACY)
    code = main(["solve", "--config", str(cfg), "--steps", "8000",
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR: ") and "lost accuracy" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "solution.csv").exists()


def test_mftype_with_lost_shooting_accuracy_exits_2(tmp_path, capsys):
    # the mean system of a classical problem is its equilibrium system,
    # so at T = 20 its shooting loses accuracy as `solve`'s does
    cfg = tmp_path / "long.cfg"
    cfg.write_text(LOST_ACCURACY)
    code = main(["mftype", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR: ") and "lost accuracy" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "mftype.csv").exists()


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


# `check` stdout on the bundled configs at the default 400 steps
CHECK_REPORTS = {
    "benchmark_scalar": (
        "L = 57.712\n"
        "|||phi||| = 1.40552\n"
        "|||Abar||| = 0.3\n"
        "|||Seff||| = 0.25\n"
        "contraction lhs = 0.777068\n"
        "mainthm: satisfied\n"
        "small_time_L: violated\n"
        "riccati_solvable: satisfied [requires T < 2.02483]\n"
        "shifted_positive_weight: satisfied\n"),
    "classical_lq": (
        "L = 206.111\n"
        "|||phi||| = 1.62364\n"
        "|||Abar||| = 0\n"
        "|||Seff||| = 0\n"
        "contraction lhs = 0\n"
        "mainthm: satisfied\n"
        "small_time_L: violated\n"
        "riccati_solvable: satisfied "
        "[Abar = 0 branch: requires |||Seff||| < 1]\n"
        "shifted_positive_weight: satisfied\n"),
    "counterexample_2d_1": (
        "L = 43746.2\n"
        "|||phi||| = 1.59169\n"
        "|||Abar||| = 8.57064\n"
        "|||Seff||| = 0\n"
        "contraction lhs = 9.64623\n"
        "mainthm: violated\n"
        "small_time_L: violated\n"
        "riccati_solvable: not-concluded [requires T < 0.00537347]\n"
        "shifted_positive_weight: violated\n"),
    "counterexample_2d_2": (
        "L = 1.11295e+09\n"
        "|||phi||| = 2.52556\n"
        "|||Abar||| = 12.5435\n"
        "|||Seff||| = 0\n"
        "contraction lhs = 31.6793\n"
        "mainthm: violated\n"
        "small_time_L: violated\n"
        "riccati_solvable: not-concluded [requires T < 0.000996436]\n"
        "shifted_positive_weight: violated\n"),
}


@pytest.mark.parametrize("config", sorted(CHECK_REPORTS))
def test_check_report_on_bundled_configs(tmp_path, capsys, config):
    code = main(["check", "--config", str(bundled_config(config)),
                 "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out == CHECK_REPORTS[config]


def test_check_piecewise_form_of_a_constant_config(tmp_path, capsys):
    # A written as two equal pieces: the norms are those of the constant
    # form on [0, T], and T = T0 meets the cap, so riccati_solvable is
    # satisfied with no borderline flag, as in the constant report
    config = tmp_path / "piecewise.cfg"
    config.write_text(open(BENCH).read().replace(
        "[A]\nconst = 0.2", "[A]\nat 0 = 0.2\nat 0.5 = 0.2"))
    code = main(["check", "--config", str(config), "--out", str(tmp_path)])
    assert code == 0
    want = CHECK_REPORTS["benchmark_scalar"].replace(
        "satisfied [requires T < 2.02483]",
        "satisfied [requires T < 2.02483 and T <= T0=1]")
    assert capsys.readouterr().out == want


# mainthm and riccati_solvable share the Q-weighted norm; the shifted
# check uses the weight Q + Seff, which is Q itself when Seff = 0, so it
# norms phi a second time only when Seff != 0 (benchmark_scalar)
PHI_NORM_EVALUATIONS = {"benchmark_scalar": 2, "classical_lq": 1,
                        "counterexample_2d_1": 1, "counterexample_2d_2": 1}


@pytest.mark.parametrize("config", sorted(PHI_NORM_EVALUATIONS))
def test_check_evaluates_phi_norm_once_per_weight(tmp_path, monkeypatch,
                                                  config):
    calls = []
    inner = conditions._phi_weighted_norm

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(conditions, "_phi_weighted_norm", counting)
    assert main(["check", "--config", str(bundled_config(config)),
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == PHI_NORM_EVALUATIONS[config]


@pytest.mark.parametrize("config, old, new, shifted", [
    # Seff = 0 and Q singular: the shifted weight is rejected
    ("classical_lq", "const = 1.5, 0.2; 0.2, 1.0", "const = 1.0, 0; 0, 0",
     "undefined [shift weight is not positive definite (min eigenvalue "
     "0.000e+00)]"),
    # Q positive definite below the inverse root's floor: the shifted
    # check is the mainthm evaluation, undefined for the same reason
    ("counterexample_2d_1", "const = 3.6, -0.6; -0.6, 0.2",
     "const = 3.6, -0.6; -0.6, 0.1",
     "undefined [running weight must be positive definite: matrix is not "
     "positive definite (min eigenvalue 1.388e-17)]"),
])
def test_check_shifted_weight_undefined_when_Seff_is_zero(
        tmp_path, capsys, config, old, new, shifted):
    cfg = tmp_path / "singular_q.cfg"
    source = bundled_config(config).read_text()
    assert old in source
    cfg.write_text(source.replace(old, new))
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"shifted_positive_weight: {shifted}"
    _, rows = read_rows(tmp_path / "conditions.csv")
    assert rows[2][:2] == ["shifted_positive_weight", "nan"]


# a classical scalar problem whose fundamental solution Phi(t, 0) = e^{-80t}
# the grid cannot invert: it overflows at 400 steps and underflows at 1000
FAST_DECAY = LOST_ACCURACY.replace(
    "const = 0.025684855058411154", "const = -80.0").replace(
    "const = 1.4594698154980255", "const = 1.0").replace(
    "const = 0.7305467032119126", "const = 1.0").replace(
    "const = 3.645387139582785", "const = 0.5")


@pytest.mark.parametrize("steps", [None, "1000"])
@pytest.mark.parametrize("abar, verdicts, lhs", [
    ("0.0", ["satisfied", "satisfied", "satisfied"], "0.0"),
    ("0.1", ["undefined", "undefined", "undefined"], "nan"),
])
def test_check_when_phi_norm_is_undefined(tmp_path, capsys, steps, abar,
                                          verdicts, lhs):
    cfg = tmp_path / "decay.cfg"
    cfg.write_text(FAST_DECAY.replace("[Abar]\nconst = 0.0",
                                      f"[Abar]\nconst = {abar}"))
    args = ["check", "--config", str(cfg), "--out", str(tmp_path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args + (["--steps", steps] if steps else [])) == 0
    # L = inf and the undefined norm are outcomes, not numpy warnings
    assert [str(w.message) for w in caught
            if issubclass(w.category, RuntimeWarning)] == []
    out = capsys.readouterr().out
    assert not any(line.startswith("|||phi||| =") for line in out.split("\n"))
    _, rows = read_rows(tmp_path / "conditions.csv")
    found = {row[0]: row[1:] for row in rows}
    assert found["mainthm"] == [lhs, "1.0", verdicts[0]]
    assert found["shifted_positive_weight"] == [lhs, "1.0", verdicts[1]]
    assert found["riccati_solvable"][2] == verdicts[2]
    if abar != "0.0":
        assert "mainthm: undefined [|||phi||| is undefined on this grid" in out


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


def test_appendix_malformed_line_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(open(APPENDIX).read().replace("eta = 1.0", "eta 1.0"))
    code = main(["appendix", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR: line ") and "key = value" in err
    assert len(err.strip().splitlines()) == 1
    assert not list(tmp_path.glob("appendix.*"))


@pytest.mark.parametrize("key, value", [
    ("a", "nan"), ("b", "inf"), ("r", "inf"), ("alpha", "-inf"),
    ("gamma", "inf"), ("eta", "nan"), ("T", "1e400"),
])
def test_appendix_non_finite_value_exits_1(tmp_path, capsys, key, value):
    source = open(APPENDIX).read()
    line = next(row for row in source.splitlines()
                if row.startswith(f"{key} = "))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(source.replace(f"\n{line}\n", f"\n{key} = {value}\n"))
    code = main(["appendix", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR: ") and f"{key} must be finite" in err
    assert len(err.strip().splitlines()) == 1
    assert not list(tmp_path.glob("appendix.*"))


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


def test_simulate_with_breakpoint_off_the_euler_grid(tmp_path, capsys):
    # A switches at 0.333, which no point of the default 100-step grid hits
    config = tmp_path / "offgrid.cfg"
    config.write_text(open(BENCH).read().replace(
        "[A]\nconst = 0.2", "[A]\nat 0 = 0.2\nat 0.333 = -0.1"))
    code = main(["simulate", "--config", str(config), "--N", "4,8,16",
                 "--paths", "3", "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    header, rows = read_rows(tmp_path / "rates.csv")
    assert len(rows) == 3
    header, rows = read_rows(tmp_path / "probe.csv")
    assert rows[-1][0] == "best_response"
    assert all(np.isfinite(float(row[1])) for row in rows)


@pytest.mark.parametrize("verb", ["check", "solve", "riccati", "mftype"])
def test_breakpoint_no_grid_hits_exits_1(tmp_path, capsys, verb):
    # no uniform grid of 2000 to 32000 steps has a point within 1e-9 of it
    config = tmp_path / "unhittable.cfg"
    config.write_text(open(BENCH).read().replace(
        "[A]\nconst = 0.2", "[A]\nat 0 = 0.2\nat 0.1234567 = -0.1"))
    code = main([verb, "--config", str(config), "--out", str(tmp_path / verb)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR: no uniform grid") and "0.1234567" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("flags, x0_cov, message", [
    (["--N", "4,8"], None, "at least 3 distinct"),
    (["--N", "1,4,8"], None, "at least 2"),
    (["--N", "4,x,8"], None, "comma-separated integers"),
    (["--paths", "0"], None, "replication"),
    (["--steps", "0"], None, "--steps"),
    ([], "0.25, 0.1", "x0_cov must be 1x1"),
    ([], "-0.25", "not positive semidefinite"),
    (["--seed", "-5"], None, "seed must be non-negative"),
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
    ("solve", "benchmark_scalar", ["--tol", "-1"], "--tol"),
    ("solve", "benchmark_scalar", ["--tol", "nan"], "--tol"),
    ("solve", "benchmark_scalar", ["--tol", "0"], "--tol"),
    ("solve", "benchmark_scalar", ["--tol", "inf"], "--tol"),
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


def test_path_csv_writers_format_every_value_as_its_repr():
    # each path writer's rows against repr(float(x)) of each sample, with
    # signed zero, a subnormal-range value, nan and both infinities
    rng = np.random.default_rng(3)
    special = np.array([-0.0, 1e-300, np.nan, np.inf, -np.inf, 1.0 / 3.0])
    K, n = 7, 2
    grid = np.linspace(0.0, 0.6, K)

    def path(*shape):
        values = rng.normal(size=(K,) + shape)
        values.reshape(K, -1)[:, 0] = np.resize(special, K)
        return values

    xi, eta, gamma, aux = path(n), path(n), path(n, n), path(n)
    det22, det21 = path(), path()

    def reference(header, *columns):
        rows = zip(*(np.reshape(c, (K, -1)) for c in columns))
        return "\n".join([header] + [",".join(repr(float(v)) for part in row
                                              for v in part)
                                     for row in rows]) + "\n"

    gamma_head = "t,gamma_11,gamma_12,gamma_21,gamma_22"
    assert fbsolution_csv(FBSolution(
        grid=grid, xi=xi, eta=eta, eta0=eta[0], boundary_residual=0.0,
        ode_residual=0.0)) == reference("t,xi_1,xi_2,eta_1,eta_2",
                                        grid, xi, eta)
    assert scan_csv(ScanReport(grid=grid, det22=det22, det21=det21,
                               sign_change_brackets=[])) == reference(
        "t,det_phi22,det_phi21", grid, det22, det21)
    assert riccati_csv(RiccatiPath(grid=grid, gamma=gamma)) == reference(
        gamma_head, grid, gamma)
    assert riccati_csv(RiccatiPath(grid=grid, gamma=gamma, aux=aux)) == (
        reference(gamma_head + ",zeta_1,zeta_2", grid, gamma, aux))
    assert mftype_csv(MFTypeSolution(
        grid=grid, ybar=xi, pbar=eta, boundary_residual=0.0)) == reference(
        "t,ybar_1,ybar_2,pbar_1,pbar_2", grid, xi, eta)


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
