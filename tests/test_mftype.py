import numpy as np

from conftest import random_classical_spec, scalar_spec
from lqmfg.coeffs import ProblemSpec, Schedule, build_grid
from lqmfg.fbsolver import solve_equilibrium_shooting
from lqmfg.mftype import (compare_mfg_mftype, comparison_text, mftype_csv,
                          mftype_system, solve_mftype_mean)


def with_x0(spec: ProblemSpec, x0) -> ProblemSpec:
    return ProblemSpec(n=spec.n, m=spec.m, T=spec.T, A=spec.A, Abar=spec.Abar,
                       B=spec.B, sigma=spec.sigma, Q=spec.Q, Qbar=spec.Qbar,
                       R=spec.R, S=spec.S, QT=spec.QT, QbarT=spec.QbarT,
                       ST=spec.ST, x0_mean=np.asarray(x0, float),
                       delta=spec.delta)


def test_zero_initial_mean_gives_zero_paths(spec_benchmark):
    spec = with_x0(spec_benchmark, [0.0])
    sol = solve_mftype_mean(spec, build_grid(spec, 200))
    assert np.all(sol.ybar == 0.0)
    assert np.all(sol.pbar == 0.0)


def test_weight_reduces_to_Q_when_S_identity():
    spec = scalar_spec(a=0.1, abar=0.2, q=1.3, qbar=5.0, s=1.0, sT=1.0,
                       qbarT=2.0, qT=0.7)
    Msched, GT = mftype_system(spec)
    M = Msched.at(0.0)
    assert abs(M[1, 0] + 1.3) < 1e-12   # -(Q + 0)
    assert abs(GT[0, 0] - 0.7) < 1e-12  # QT + 0


def test_matches_mfg_mean_when_mean_field_cost_only():
    # Abar = 0 and S = I: both mean systems reduce to the same classical
    # LQ two-point problem even with Qbar nonzero
    spec = scalar_spec(a=0.3, abar=0.0, q=1.0, qbar=0.8, s=1.0, sT=1.0,
                       qbarT=0.0, qT=0.5, x0=1.0)
    grid = build_grid(spec, 500)
    mfg = solve_equilibrium_shooting(spec, grid)
    mft = solve_mftype_mean(spec, grid)
    assert np.max(np.abs(mfg.xi - mft.ybar)) < 1e-6


def test_boundary_residual_and_initial_condition(spec_classical):
    sol = solve_mftype_mean(spec_classical, build_grid(spec_classical, 300))
    assert np.allclose(sol.ybar[0], spec_classical.x0_mean)
    assert sol.boundary_residual < 1e-10


def test_never_fails_on_random_valid_specs():
    rng = np.random.default_rng(31)
    for _ in range(6):
        spec = random_classical_spec(rng)
        # give the mean-field weights nonzero values; well-posedness of the
        # mean-field-type system only needs PSD weights
        W = rng.normal(size=(spec.n, spec.n))
        spec = ProblemSpec(
            n=spec.n, m=spec.m, T=spec.T, A=spec.A,
            Abar=Schedule.constant(rng.normal(scale=0.4,
                                              size=(spec.n, spec.n))),
            B=spec.B, sigma=spec.sigma, Q=spec.Q,
            Qbar=Schedule.constant(W @ W.T / spec.n),
            R=spec.R, S=Schedule.constant(rng.normal(size=(spec.n, spec.n))),
            QT=spec.QT, QbarT=np.zeros((spec.n, spec.n)),
            ST=rng.normal(size=(spec.n, spec.n)),
            x0_mean=spec.x0_mean, delta=spec.delta)
        sol = solve_mftype_mean(spec, build_grid(spec, 300))
        assert sol.boundary_residual < 1e-8


def test_psi1_is_exponential_in_the_specialization():
    # Q = 0 makes the first backward equation autonomous:
    # psi1(t) = psi1(0) e^{-At}
    res = compare_mfg_mftype(a=1.5, abar=0.7, b=1.0, T=1.0, x0_mean=1.0)
    expected = res.psi1[0] * np.exp(-1.5 * res.grid)
    assert np.max(np.abs(res.psi1 - expected)) < 1e-7


def test_compare_no_mean_field_coupling_coincides():
    res = compare_mfg_mftype(a=0.8, abar=0.0, b=1.0, T=1.0, x0_mean=1.0)
    assert not res.differ
    assert res.differ_closed_form is False
    assert abs(res.psi1_T - res.psi2_T) < 1e-12


def test_compare_documented_case_differs():
    res = compare_mfg_mftype(a=2.0, abar=1.0, b=1.0, T=1.0, x0_mean=1.0)
    assert res.differ
    assert res.differ_closed_form is True
    assert abs(res.lhs - (1 - np.exp(-5.0)) / 5.0) < 1e-12
    assert abs(res.rhs - np.e * (1 - np.exp(-6.0)) / 6.0) < 1e-12


def test_compare_zero_initial_mean_coincides():
    res = compare_mfg_mftype(a=2.0, abar=1.0, b=1.0, T=1.0, x0_mean=0.0)
    assert np.all(res.psi1 == 0.0)
    assert np.all(res.psi2 == 0.0)
    assert not res.differ


def test_compare_degenerate_denominator_skips_closed_form():
    res = compare_mfg_mftype(a=0.5, abar=-1.0, b=1.0, T=1.0, x0_mean=1.0)
    assert res.differ_closed_form is None
    assert np.isnan(res.lhs)
    assert isinstance(res.differ, bool)


def test_compare_shooting_agrees_with_closed_form_verdict_on_sweep():
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(20):
        a = float(rng.uniform(-1.5, 2.5))
        abar = float(rng.uniform(-1.5, 1.5))
        if abs(2 * a + abar) < 0.1 or abs(2 * a + 2 * abar) < 0.1:
            continue
        res = compare_mfg_mftype(a=a, abar=abar, b=1.0, T=1.0, x0_mean=1.0)
        if res.differ_closed_form is None:
            continue
        assert res.differ == res.differ_closed_form, (a, abar)
        checked += 1
    assert checked >= 10


def test_output_renderers(spec_classical):
    sol = solve_mftype_mean(spec_classical, build_grid(spec_classical, 10))
    text = mftype_csv(sol)
    assert text.splitlines()[0] == "t,ybar_1,ybar_2,pbar_1,pbar_2"
    res = compare_mfg_mftype(a=2.0, abar=1.0, b=1.0, T=1.0)
    assert "differ" in comparison_text(res)
