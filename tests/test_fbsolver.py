import numpy as np
import pytest

from conftest import scalar_spec
from lqmfg.coeffs import ProblemSpec, build_grid, uniform_grid
from lqmfg.fbsolver import (NoConvergence, SingularShootingMatrix,
                            equilibrium_control_law, equilibrium_system,
                            existence_scan, fbsolution_csv,
                            fixed_point_iterate, q_weighted_norm,
                            refine_singular_horizon,
                            solve_equilibrium_shooting)
from lqmfg.odecore import matrix_exponential, rk4_integrate
from lqmfg.riccati import solve_symmetric

T0_BRACKET = (0.83, 0.86)


def _piecewise_2d_spec() -> ProblemSpec:
    """2-d spec whose A, Q and Qbar switch at t = 0.25 and t = 0.6."""
    from lqmfg.coeffs import Schedule

    c = Schedule.constant
    return ProblemSpec(
        n=2, m=2, T=1.0,
        A=Schedule.piecewise([(0.0, [[0.2, 0.5], [-0.3, 0.1]]),
                              (0.25, [[-0.4, 0.2], [0.6, 0.3]]),
                              (0.6, [[0.1, -0.5], [0.2, -0.2]])]),
        Abar=c([[0.1, 0.0], [0.05, -0.1]]), B=c(np.eye(2)),
        sigma=c(0.2 * np.eye(2)),
        Q=Schedule.piecewise([(0.0, np.eye(2)), (0.6, [[2.0, 0.3], [0.3, 1.0]])]),
        Qbar=Schedule.piecewise([(0.0, 0.1 * np.eye(2)),
                                 (0.25, [[0.2, 0.05], [0.05, 0.1]])]),
        R=c(np.eye(2)), S=c(0.5 * np.eye(2)), QT=0.5 * np.eye(2),
        QbarT=np.zeros((2, 2)), ST=np.eye(2), x0_mean=np.array([1.0, -0.5]),
        delta=0.25)


def with_horizon(spec: ProblemSpec, T: float) -> ProblemSpec:
    return ProblemSpec(n=spec.n, m=spec.m, T=T, A=spec.A, Abar=spec.Abar,
                       B=spec.B, sigma=spec.sigma, Q=spec.Q, Qbar=spec.Qbar,
                       R=spec.R, S=spec.S, QT=spec.QT, QbarT=spec.QbarT,
                       ST=spec.ST, x0_mean=spec.x0_mean, delta=spec.delta)


def with_x0(spec: ProblemSpec, x0) -> ProblemSpec:
    return ProblemSpec(n=spec.n, m=spec.m, T=spec.T, A=spec.A, Abar=spec.Abar,
                       B=spec.B, sigma=spec.sigma, Q=spec.Q, Qbar=spec.Qbar,
                       R=spec.R, S=spec.S, QT=spec.QT, QbarT=spec.QbarT,
                       ST=spec.ST, x0_mean=np.asarray(x0, float),
                       delta=spec.delta)


def test_zero_initial_mean_gives_zero_solution(spec_benchmark):
    spec = with_x0(spec_benchmark, [0.0])
    sol = solve_equilibrium_shooting(spec, steps=200)
    assert np.all(sol.xi == 0.0)
    assert np.all(sol.eta == 0.0)


def test_example1_solvable_at_half_horizon(spec_ex1):
    # the scan oracle shows no det Phi22 zero before 0.83, so T = 0.5 is fine
    scan = existence_scan(spec_ex1, 0.83, 830)
    assert not scan.sign_change_brackets
    sol = solve_equilibrium_shooting(spec_ex1)
    assert sol.boundary_residual < 1e-8
    assert np.allclose(sol.xi[0], spec_ex1.x0_mean)


def test_classical_reduction_matches_riccati_feedback(spec_classical):
    # with Abar = 0 and Seff = 0 the equilibrium mean is the classical LQ
    # trajectory: integrate dxi/dt = (A - B R^-1 B* Xi_t) xi independently
    from scipy.interpolate import CubicSpline

    grid = build_grid(spec_classical, 1000)
    sol = solve_equilibrium_shooting(spec_classical, grid)
    ric = solve_symmetric(spec_classical, grid)
    Xi_fn = CubicSpline(grid, ric.gamma, axis=0)

    def closed_loop(t, y):
        A = spec_classical.A.at(t)
        B = spec_classical.B.at(t)
        Rinv = np.linalg.inv(spec_classical.R.at(t))
        return (A - B @ Rinv @ B.T @ Xi_fn(t)) @ y

    oracle = rk4_integrate(closed_loop, spec_classical.x0_mean, grid)
    assert np.max(np.abs(sol.xi - oracle)) < 1e-6


def test_scan_reproduces_paper_determinants(spec_ex1, spec_ex2):
    scan = existence_scan(spec_ex1, 1.0, 1000)
    assert abs(scan.det22[830] - 0.1244555) < 1e-4
    assert abs(scan.det22[860] - (-0.1295142)) < 1e-4
    assert scan.det22[0] == 1.0
    assert any(lo >= 0.83 and hi <= 0.86
               for lo, hi in scan.sign_change_brackets)
    scan2 = existence_scan(spec_ex2, 1.0, 1000)
    assert abs(scan2.det22[-1] - (-0.3582768)) < 1e-4


def test_scan_locates_second_example_horizon(spec_ex2):
    # det Phi22 passes through zero shortly before t = 1 for this model;
    # the bracket and the refined root must agree
    scan = existence_scan(spec_ex2, 1.0, 1000)
    assert len(scan.sign_change_brackets) == 1
    lo, hi = scan.sign_change_brackets[0]
    assert 0.9 < lo < hi < 1.0
    T0 = refine_singular_horizon(spec_ex2, (lo, hi), tol=1e-9)
    assert lo <= T0 <= hi
    # a bracket may start at t = 0, where Phi_0 = I
    assert abs(refine_singular_horizon(spec_ex2, (0.0, hi), tol=1e-9)
               - T0) < 1e-8


def test_scan_zero_coefficients_identity():
    spec = scalar_spec(a=0.0, b=0.0, q=0.0, r=1.0, delta=0.5)
    scan = existence_scan(spec, 1.0, 100)
    assert np.all(scan.det22 == 1.0)
    assert not scan.sign_change_brackets


def test_scan_constant_matches_matrix_exponential(spec_ex1, spec_benchmark):
    for spec in (spec_ex1, spec_benchmark):
        scan = existence_scan(spec, 1.0, 1000)
        M = equilibrium_system(spec)[0].at(0.0)
        n = spec.n
        Phi = np.stack([matrix_exponential(M * t) for t in scan.grid])
        assert np.max(np.abs(scan.det22 - np.linalg.det(Phi[:, n:, n:]))) < 1e-9
        assert np.max(np.abs(scan.det21 - np.linalg.det(Phi[:, n:, :n]))) < 1e-9


def test_scan_time_varying_falls_back_to_integration():
    from lqmfg.coeffs import Schedule

    base = scalar_spec(a=0.3, abar=0.1, q=1.0, qT=0.0, T=1.0)
    piecewise = ProblemSpec(
        n=1, m=1, T=1.0,
        A=Schedule.piecewise([(0.0, [[0.3]]), (0.5, [[-0.2]])]),
        Abar=base.Abar, B=base.B, sigma=base.sigma, Q=base.Q, Qbar=base.Qbar,
        R=base.R, S=base.S, QT=base.QT, QbarT=base.QbarT, ST=base.ST,
        x0_mean=base.x0_mean, delta=base.delta)
    scan = existence_scan(piecewise, 1.0, 400)
    assert scan.det22[0] == 1.0
    # strictly before the switch the constant-coefficient formula applies;
    # the step ending at the breakpoint already sees the new piece at its
    # last stage (right-continuous evaluation), so exclude t = 0.5 itself
    constant = existence_scan(base, 0.5, 200)
    assert np.max(np.abs(scan.det22[:200] - constant.det22[:200])) < 1e-8


@pytest.mark.parametrize("t_max", [0.0, -1.0, float("nan")])
def test_scan_rejects_nonpositive_horizon(spec_benchmark, t_max):
    with pytest.raises(ValueError, match="horizon"):
        existence_scan(spec_benchmark, t_max, 4)


def test_shooting_raises_at_singular_horizon(spec_ex1):
    # the 1e12 condition threshold needs T0 resolved well below 1e-6:
    # det Phi22 has slope about -8.5 there, so cond grows like 1/|T - T0|
    T0 = refine_singular_horizon(spec_ex1, T0_BRACKET, tol=1e-12)
    assert 0.83 < T0 < 0.86
    with pytest.raises(SingularShootingMatrix):
        solve_equilibrium_shooting(with_horizon(spec_ex1, T0), steps=500)


def test_fixed_point_converges_immediately_without_sources(spec_classical):
    sol = fixed_point_iterate(spec_classical, steps=500)
    assert sol.iterations == 1
    shoot = solve_equilibrium_shooting(spec_classical, steps=500)
    assert np.max(np.abs(sol.xi - shoot.xi)) < 1e-9


def test_fixed_point_agrees_with_shooting(spec_benchmark):
    grid = build_grid(spec_benchmark, 800)
    fp = fixed_point_iterate(spec_benchmark, grid)
    shoot = solve_equilibrium_shooting(spec_benchmark, grid)
    assert np.max(np.abs(fp.xi - shoot.xi)) < 1e-6
    assert fp.boundary_residual < 1e-8


def test_fixed_point_fails_at_singular_horizon(spec_ex1):
    T0 = refine_singular_horizon(spec_ex1, T0_BRACKET, tol=1e-12)
    with pytest.raises(NoConvergence):
        fixed_point_iterate(with_horizon(spec_ex1, T0), steps=400, max_iter=30)


def test_solution_scales_linearly_in_initial_mean(spec_benchmark):
    sol1 = solve_equilibrium_shooting(spec_benchmark, steps=400)
    sol2 = solve_equilibrium_shooting(with_x0(spec_benchmark, [2.0]), steps=400)
    assert np.allclose(sol2.xi, 2.0 * sol1.xi, rtol=0, atol=1e-12)
    assert np.allclose(sol2.eta, 2.0 * sol1.eta, rtol=0, atol=1e-12)


def test_ode_residual_scales_fourth_order(spec_benchmark):
    res_coarse = solve_equilibrium_shooting(spec_benchmark, steps=250).ode_residual
    res_fine = solve_equilibrium_shooting(spec_benchmark, steps=500).ode_residual
    assert res_fine <= res_coarse / 8.0
    # piecewise: stencils touching a breakpoint are skipped, so the
    # residual converges instead of measuring the coefficient jump
    spec = _piecewise_2d_spec()
    coarse = solve_equilibrium_shooting(spec, steps=200).ode_residual
    fine = solve_equilibrium_shooting(spec, steps=400).ode_residual
    assert 0.0 < fine <= coarse / 8.0
    assert fine < 1e-8


def test_boundary_identity_on_success(spec_benchmark):
    sol = solve_equilibrium_shooting(spec_benchmark, steps=400)
    GT = spec_benchmark.QT + spec_benchmark.terminal_effective_S
    assert np.linalg.norm(sol.eta[-1] - GT @ sol.xi[-1]) < 1e-10


def test_control_law_offset_vanishes_without_sources(spec_classical):
    grid = build_grid(spec_classical, 500)
    sol = solve_equilibrium_shooting(spec_classical, grid)
    ric = solve_symmetric(spec_classical, grid)
    law = equilibrium_control_law(spec_classical, sol, ric)
    assert np.max(np.abs(law.k)) < 1e-8


def test_control_law_terminal_offset_identity():
    # with S = I: k_T = -QbarT xi_T (since eta_T = QT xi_T and
    # Xi_T = QT + QbarT)
    spec = scalar_spec(a=0.1, abar=0.2, qbar=0.5, s=1.0, sT=1.0, qbarT=0.7,
                       qT=0.4, sigma=0.0, delta=0.5)
    grid = build_grid(spec, 500)
    sol = solve_equilibrium_shooting(spec, grid)
    ric = solve_symmetric(spec, grid)
    law = equilibrium_control_law(spec, sol, ric)
    expected = -spec.QbarT @ sol.xi[-1]
    assert np.max(np.abs(law.k[-1] - expected)) < 1e-8


def test_control_law_offset_matches_zeta_ode(spec_benchmark):
    grid = build_grid(spec_benchmark, 1000)
    sol = solve_equilibrium_shooting(spec_benchmark, grid)
    ric = solve_symmetric(spec_benchmark, grid, z=sol.xi)
    law = equilibrium_control_law(spec_benchmark, sol, ric)
    assert np.max(np.abs(law.k - ric.aux)) < 1e-7


def test_control_law_grid_mismatch_rejected(spec_benchmark):
    sol = solve_equilibrium_shooting(spec_benchmark, steps=200)
    ric = solve_symmetric(spec_benchmark, build_grid(spec_benchmark, 400))
    with pytest.raises(ValueError, match="grids"):
        equilibrium_control_law(spec_benchmark, sol, ric)


def test_q_weighted_norm_matches_hand_value():
    # constant v = 1, Q = 2, QT = 3, T = 1: ||v||_Q^2 = 3 + 2 = 5
    spec = scalar_spec(q=2.0, qT=3.0)
    grid = uniform_grid(1.0, 100)
    v = np.ones((101, 1))
    assert abs(q_weighted_norm(spec, grid, v) - np.sqrt(5.0)) < 1e-12


def test_fbsolution_csv_header_and_rows(spec_benchmark):
    sol = solve_equilibrium_shooting(spec_benchmark, steps=10)
    text = fbsolution_csv(sol)
    lines = text.strip().split("\n")
    assert lines[0] == "t,xi_1,eta_1"
    assert len(lines) == 12
    assert float(lines[1].split(",")[1]) == spec_benchmark.x0_mean[0]


def test_equilibrium_system_blocks(spec_ex1):
    Msched, GT = equilibrium_system(spec_ex1)
    M = Msched.at(0.0)
    # Abar = -A makes the top-left block vanish; S = I kills Seff
    assert np.allclose(M[:2, :2], 0.0)
    assert np.allclose(M[2:, :2], -spec_ex1.Q.at(0.0))
    assert np.allclose(M[2:, 2:], -spec_ex1.A.at(0.0).T)
    assert np.allclose(GT, 0.0)
    Rinv = np.array([[2.0, 3.1], [3.1, 4.9]])
    assert np.max(np.abs(M[:2, 2:] + Rinv)) < 1e-9
