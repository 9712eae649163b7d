from dataclasses import replace

import numpy as np
import pytest

from conftest import scalar_spec
from lqmfg.coeffs import (ConfigError, ProblemSpec, Schedule, build_grid,
                          config_sections, parse_config, sample,
                          system_blocks, uniform_grid, validate)
from lqmfg.fbsolver import _aux_inner_system, equilibrium_system
from lqmfg.mftype import mftype_system


def test_validate_trivial_constant_spec_is_valid():
    spec = scalar_spec(q=1.0, qbar=1.0, r=1.0, delta=0.5)
    report = validate(spec)
    assert report.ok, report.violations


def test_validate_flags_R_below_delta():
    spec = scalar_spec(r=0.0, delta=0.1)
    report = validate(spec)
    assert not report.ok
    assert any("R >= delta*I fails" in v for v in report.violations)


def test_validate_flags_indefinite_Q():
    spec = scalar_spec(q=-0.5)
    report = validate(spec)
    assert any(v.startswith("Q at") for v in report.violations)


def test_validate_reports_each_failing_schedule_once():
    # Q fails on the whole horizon and R < delta: one line each, Q first
    report = validate(scalar_spec(q=-1.0, r=0.1, delta=0.5))
    assert [v.split(":")[0] for v in report.violations] == ["Q at t=0",
                                                            "R at t=0"]
    # a Q that fails only on its second piece is reported at that start
    switched = replace(scalar_spec(), Q=Schedule.piecewise(
        [(0.0, [[1.0]]), (0.4, [[-2.0]])]))
    report = validate(switched)
    assert [v.split(":")[0] for v in report.violations] == ["Q at t=0.4"]


def test_validate_counterexample_config(spec_ex1):
    assert validate(spec_ex1).ok


def test_validate_is_idempotent():
    spec = scalar_spec(r=0.0, q=-1.0, delta=0.1)
    first = validate(spec)
    second = validate(spec)
    assert first.violations == second.violations


def test_validate_reports_dimension_mismatch():
    spec = scalar_spec()
    bad = type(spec)(n=2, m=1, T=1.0, A=spec.A, Abar=spec.Abar, B=spec.B,
                     sigma=spec.sigma, Q=spec.Q, Qbar=spec.Qbar, R=spec.R,
                     S=spec.S, QT=np.zeros((2, 2)), QbarT=np.zeros((2, 2)),
                     ST=np.zeros((2, 2)), x0_mean=np.zeros(2))
    report = validate(bad)
    assert any("A has shape" in v for v in report.violations)


@pytest.mark.parametrize("field, kwargs, message", [
    ("T", dict(T=float("inf")), "horizon T must be positive and finite"),
    ("delta", dict(delta=float("inf")), "delta must be positive and finite"),
    ("x0_mean", dict(x0=float("nan")), "x0_mean contains non-finite"),
    ("QT", dict(qT=float("inf")), "QT contains non-finite"),
    ("QbarT", dict(qbarT=float("nan")), "QbarT contains non-finite"),
    ("ST", dict(sT=float("nan")), "ST contains non-finite"),
])
def test_validate_flags_non_finite_scalars_and_terminal_data(field, kwargs,
                                                             message):
    report = validate(scalar_spec(**kwargs))
    assert [v for v in report.violations if message in v], report.violations


def test_spec_is_constant_only_when_every_schedule_is():
    spec = scalar_spec()
    assert spec.is_constant
    switched = ProblemSpec(
        n=1, m=1, T=1.0, A=spec.A, Abar=spec.Abar, B=spec.B,
        sigma=Schedule.piecewise([(0.0, [[0.1]]), (0.5, [[0.2]])]),
        Q=spec.Q, Qbar=spec.Qbar, R=spec.R, S=spec.S, QT=spec.QT,
        QbarT=spec.QbarT, ST=spec.ST, x0_mean=spec.x0_mean)
    assert not switched.is_constant


def test_effective_S_with_S_identity_is_zero():
    spec = scalar_spec(qbar=3.0, s=1.0, sT=1.0, qbarT=2.0, qT=0.5)
    blocks = system_blocks(spec)
    assert np.all(sample(blocks.Seff, uniform_grid(1.0, 10)) == 0.0)
    assert np.all(blocks.GT == spec.QT)


def test_effective_S_with_zero_Qbar_is_zero():
    spec = scalar_spec(qbar=0.0, s=0.7)
    blocks = system_blocks(spec)
    assert np.all(sample(blocks.Seff, uniform_grid(1.0, 10)) == 0.0)


def test_effective_S_scalar_value():
    spec = scalar_spec(qbar=2.0, s=0.5)
    blocks = system_blocks(spec)
    assert np.allclose(sample(blocks.Seff, uniform_grid(1.0, 4)), 1.0)


def test_effective_S_matches_pointwise_product():
    rng = np.random.default_rng(11)
    n = 3
    Qbar = rng.normal(size=(n, n))
    Qbar = Qbar @ Qbar.T
    S = rng.normal(size=(n, n))
    spec = scalar_spec()
    spec = type(spec)(n=n, m=1, T=1.0,
                      A=Schedule.constant(np.zeros((n, n))),
                      Abar=Schedule.constant(np.zeros((n, n))),
                      B=Schedule.constant(np.ones((n, 1))),
                      sigma=Schedule.constant(np.eye(n)),
                      Q=Schedule.constant(np.eye(n)),
                      Qbar=Schedule.constant(Qbar),
                      R=Schedule.constant(np.eye(1)),
                      S=Schedule.constant(S),
                      QT=np.eye(n), QbarT=np.zeros((n, n)), ST=np.eye(n),
                      x0_mean=np.zeros(n))
    grid = uniform_grid(1.0, 7)
    blocks = system_blocks(spec)
    samples = sample(blocks.Seff, grid)
    for k, t in enumerate(grid):
        expected = spec.Qbar.at(t) @ (np.eye(n) - spec.S.at(t))
        assert np.array_equal(samples[k], expected)
    assert np.array_equal(blocks.GT,
                          spec.QT + spec.QbarT @ (np.eye(n) - spec.ST))


def _random_piecewise_spec(rng):
    """n = 2, m = 1 spec whose A, R and Qbar switch at different times."""
    n = 2

    def psd(k, floor):
        W = rng.normal(size=(k, k))
        return W @ W.T / k + floor * np.eye(k)

    const = Schedule.constant
    return ProblemSpec(
        n=n, m=1, T=1.0,
        A=Schedule.piecewise([(0.0, rng.normal(size=(n, n))),
                              (0.3, rng.normal(size=(n, n)))]),
        Abar=const(rng.normal(scale=0.5, size=(n, n))),
        B=const(rng.normal(size=(n, 1))),
        sigma=const(np.eye(n)),
        Q=const(psd(n, 0.1)),
        Qbar=Schedule.piecewise([(0.0, psd(n, 0.0)), (0.45, psd(n, 0.0)),
                                 (0.8, psd(n, 0.0))]),
        R=Schedule.piecewise([(0.0, psd(1, 0.5)), (0.6, psd(1, 0.5))]),
        S=const(rng.normal(scale=0.5, size=(n, n))),
        QT=psd(n, 0.0), QbarT=psd(n, 0.0),
        ST=rng.normal(scale=0.5, size=(n, n)), x0_mean=rng.normal(size=n))


def test_systems_match_blocks_assembled_by_hand_on_piecewise_spec():
    spec = _random_piecewise_spec(np.random.default_rng(7))
    n = spec.n
    eye = np.eye(n)
    M_eq, GT = equilibrium_system(spec)
    M_aux, Abar_aux, Seff_aux = _aux_inner_system(spec)
    M_mf, _ = mftype_system(spec)
    starts = [0.0, 0.3, 0.45, 0.6, 0.8]
    assert [t for t, _ in M_eq.values] == starts
    ends = starts[1:] + [spec.T]
    times = starts + [(a + b) / 2 for a, b in zip(starts, ends)]
    for t in times:
        A, Abar, B = spec.A.at(t), spec.Abar.at(t), spec.B.at(t)
        Q, Qbar, S = spec.Q.at(t), spec.Qbar.at(t), spec.S.at(t)
        BRB = B @ np.linalg.inv(spec.R.at(t)) @ B.T
        Seff = Qbar @ (eye - S)
        W = Q + (eye - S).T @ Qbar @ (eye - S)
        assert np.array_equal(
            M_eq.at(t), np.block([[A + Abar, -BRB], [-(Q + Seff), -A.T]]))
        assert np.array_equal(M_aux.at(t),
                              np.block([[A, -BRB], [-Q, -A.T]]))
        assert np.array_equal(Abar_aux.at(t), Abar)
        assert np.array_equal(Seff_aux.at(t), Seff)
        assert np.array_equal(
            M_mf.at(t),
            np.block([[A + Abar, -BRB], [-W, -(A + Abar).T]]))
    assert np.array_equal(GT, spec.QT + spec.QbarT @ (eye - spec.ST))


def test_sample_constant_schedule():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    samples = sample(Schedule.constant(M), uniform_grid(1.0, 5))
    assert samples.shape == (6, 2, 2)
    assert all(np.array_equal(s, M) for s in samples)


def test_sample_piecewise_right_continuity():
    M1 = np.array([[1.0]])
    M2 = np.array([[2.0]])
    sched = Schedule.piecewise([(0.0, M1), (0.5, M2)])
    grid = uniform_grid(1.0, 100)
    samples = sample(sched, grid)
    assert grid[50] == 0.5 and samples[50][0, 0] == 2.0
    assert samples[49][0, 0] == 1.0
    assert sched.at(0.5)[0, 0] == 2.0
    assert sched.at(0.49)[0, 0] == 1.0


def test_sample_constant_consistent_across_resolutions():
    M = np.array([[2.5]])
    sched = Schedule.constant(M)
    coarse_grid = uniform_grid(1.0, 4)
    fine_grid = uniform_grid(1.0, 8)
    coarse = sample(sched, coarse_grid)
    fine = sample(sched, fine_grid)
    for k, t in enumerate(coarse_grid):
        assert np.array_equal(coarse[k], fine[2 * k])
        assert fine_grid[2 * k] == t


def test_build_grid_contains_breakpoints():
    spec = scalar_spec()
    spec = type(spec)(n=1, m=1, T=1.0,
                      A=Schedule.piecewise([(0.0, [[0.0]]), (0.25, [[1.0]])]),
                      Abar=spec.Abar, B=spec.B, sigma=spec.sigma, Q=spec.Q,
                      Qbar=spec.Qbar, R=spec.R, S=spec.S, QT=spec.QT,
                      QbarT=spec.QbarT, ST=spec.ST, x0_mean=spec.x0_mean)
    grid = build_grid(spec, 10)
    assert np.any(np.abs(grid - 0.25) < 1e-12)


def test_schedule_rejects_mixed_shapes():
    with pytest.raises(ValueError, match="mixed shapes"):
        Schedule.piecewise([(0.0, np.eye(2)), (0.5, np.eye(3))])


def test_spec_symmetrizes_weights_with_warning():
    asym = np.array([[1.0, 0.3], [0.0, 1.0]])
    with pytest.warns(UserWarning, match="asymmetric"):
        spec = type(scalar_spec())(
            n=2, m=2, T=1.0,
            A=Schedule.constant(np.zeros((2, 2))),
            Abar=Schedule.constant(np.zeros((2, 2))),
            B=Schedule.constant(np.eye(2)),
            sigma=Schedule.constant(np.eye(2)),
            Q=Schedule.constant(asym),
            Qbar=Schedule.constant(np.zeros((2, 2))),
            R=Schedule.constant(np.eye(2)),
            S=Schedule.constant(np.eye(2)),
            QT=np.zeros((2, 2)), QbarT=np.zeros((2, 2)), ST=np.eye(2),
            x0_mean=np.zeros(2))
    assert np.allclose(spec.Q.at(0.0), (asym + asym.T) / 2)


CONFIG_OK = """
[problem]
n = 1
m = 1
T = 2.0
x0_mean = 0.5
[A]
const = 0.1
[Abar]
const = 0.0
[B]
const = 1.0
[sigma]
const = 0.2
[Q]
at 0.0 = 1.0
at 1.0 = 2.0   # second piece
[Qbar]
const = 0.0
[R]
const = 1.0
[S]
const = 0.0
[QT]
const = 0.0
[QbarT]
const = 0.0
[ST]
const = 0.0
"""


def test_parse_config_roundtrip():
    spec = parse_config(CONFIG_OK)
    assert spec.n == 1 and spec.T == 2.0 and spec.delta == 1e-6
    assert spec.Q.at(0.5)[0, 0] == 1.0
    assert spec.Q.at(1.0)[0, 0] == 2.0
    assert validate(spec).ok


def test_parse_config_missing_section():
    broken = CONFIG_OK.replace("[ST]\nconst = 0.0", "")
    with pytest.raises(ConfigError, match=r"missing section \[ST\]"):
        parse_config(broken)


def test_parse_config_bad_entry_has_line_number():
    broken = CONFIG_OK.replace("const = 0.2", "const = 0.2x")
    with pytest.raises(ConfigError, match="line"):
        parse_config(broken)


def test_parse_config_unknown_section():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[bogus]\nconst = 1\n")


def test_parse_config_terminal_rejects_piecewise():
    broken = CONFIG_OK.replace("[QT]\nconst = 0.0", "[QT]\nat 0.0 = 0.0")
    with pytest.raises(ConfigError, match="terminal"):
        parse_config(broken)


def test_config_sections_entries_and_errors():
    text = ("# header\n[extra]\nk = 1 # note\n\n"
            "[problem]\nx0_cov = 2\n[extra]\nj=3\n")
    assert config_sections(text) == {
        "extra": [(3, "k", "1"), (8, "j", "3")],
        "problem": [(6, "x0_cov", "2")]}
    for bad, line, message in [("k = 1\n", 1, "before any"),
                               ("[extra]\nk = 1\nk 2\n", 3, "key = value")]:
        with pytest.raises(ConfigError, match=message) as exc:
            config_sections(bad)
        assert exc.value.line == line
    with pytest.raises(ConfigError, match="unknown section") as exc:
        config_sections(text, known=("problem",))
    assert exc.value.line == 2
