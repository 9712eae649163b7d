import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import rk4_integrate, scalar_spec
from lqmfg.coeffs import (ProblemSpec, Schedule, build_grid, sample,
                          uniform_grid)
from lqmfg.fbsolver import (NoConvergence, SingularShootingMatrix, _TwoPoint,
                            equilibrium_control_law, equilibrium_system,
                            existence_scan, fbsolution_csv,
                            fixed_point_iterate, q_weighted_norm,
                            refine_singular_horizon,
                            solve_equilibrium_shooting)
from lqmfg.odecore import _rk4_linear
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
    sol = solve_equilibrium_shooting(spec, build_grid(spec, 200))
    assert np.all(sol.xi == 0.0)
    assert np.all(sol.eta == 0.0)


def test_example1_solvable_at_half_horizon(spec_ex1):
    # the scan oracle shows no det Phi22 zero before 0.83, so T = 0.5 is fine
    scan = existence_scan(spec_ex1, 0.83, 830)
    assert not scan.sign_change_brackets
    sol = solve_equilibrium_shooting(spec_ex1, build_grid(spec_ex1, 2000))
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


@pytest.mark.parametrize("steps", [100, 400, 1000, 4000])
def test_scan_counts_only_resolved_sign_changes(spec_ex1, steps):
    # on [0, 10] det Phi22 of counterexample_2d_1 vanishes twice, at
    # 0.84522 and 2.79378 (a 60-digit product of the same step maps);
    # beyond t ~ 7 it lies below its rounding floor and its grid signs
    # are noise, which the scan reports apart
    scan = existence_scan(spec_ex1, 10.0, steps)
    assert len(scan.sign_change_brackets) == 2
    for (lo, hi), root in zip(scan.sign_change_brackets, (0.84522, 2.79378)):
        assert lo < root < hi
    assert all(lo > 5.0 for lo, _ in scan.unresolved_brackets)


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
        Phi = np.stack([expm(M * t) for t in scan.grid])
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
    # up to and including the switch at t = 0.5 the constant-coefficient
    # scan applies: every step reads the one piece in force inside it
    constant = existence_scan(base, 0.5, 200)
    assert np.max(np.abs(scan.det22[:201] - constant.det22)) < 1e-8


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
        spec = with_horizon(spec_ex1, T0)
        solve_equilibrium_shooting(spec, build_grid(spec, 500))


def test_fixed_point_converges_immediately_without_sources(spec_classical):
    grid = build_grid(spec_classical, 500)
    sol = fixed_point_iterate(spec_classical, grid)
    assert sol.iterations == 1
    shoot = solve_equilibrium_shooting(spec_classical, grid)
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
        spec = with_horizon(spec_ex1, T0)
        fixed_point_iterate(spec, build_grid(spec, 400), max_iter=30)


def test_fixed_point_stops_once_divergence_settles(spec_ex2):
    # the map z -> xi is affine, so the difference ratios settle at the
    # spectral radius of its linear part, 1.069 on the second example
    with pytest.raises(NoConvergence) as info:
        fixed_point_iterate(spec_ex2, build_grid(spec_ex2, 2000))
    assert info.value.diverged
    assert info.value.iterations <= 12
    assert abs(info.value.ratio - 1.069) < 2e-3


def test_solution_scales_linearly_in_initial_mean(spec_benchmark):
    grid = build_grid(spec_benchmark, 400)
    sol1 = solve_equilibrium_shooting(spec_benchmark, grid)
    sol2 = solve_equilibrium_shooting(with_x0(spec_benchmark, [2.0]), grid)
    assert np.allclose(sol2.xi, 2.0 * sol1.xi, rtol=0, atol=1e-12)
    assert np.allclose(sol2.eta, 2.0 * sol1.eta, rtol=0, atol=1e-12)


def test_ode_residual_scales_fourth_order(spec_benchmark):
    res_coarse = solve_equilibrium_shooting(
        spec_benchmark, build_grid(spec_benchmark, 250)).ode_residual
    res_fine = solve_equilibrium_shooting(
        spec_benchmark, build_grid(spec_benchmark, 500)).ode_residual
    assert res_fine <= res_coarse / 8.0
    # piecewise: stencils with a breakpoint strictly inside are skipped,
    # so the residual converges instead of measuring the coefficient jump;
    # the fixed point, whose z is interpolated piece by piece, converges
    # alike
    spec = _piecewise_2d_spec()
    for solve in (solve_equilibrium_shooting,
                  lambda spec, grid: fixed_point_iterate(spec, grid,
                                                         tol=1e-13)):
        coarse = solve(spec, build_grid(spec, 200)).ode_residual
        fine = solve(spec, build_grid(spec, 400)).ode_residual
        assert 0.0 < fine <= coarse / 8.0
        assert fine < 1e-8


def test_boundary_identity_on_success(spec_benchmark):
    sol = solve_equilibrium_shooting(spec_benchmark,
                                     build_grid(spec_benchmark, 400))
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
    sol = solve_equilibrium_shooting(spec_benchmark,
                                     build_grid(spec_benchmark, 200))
    ric = solve_symmetric(spec_benchmark, build_grid(spec_benchmark, 400))
    with pytest.raises(ValueError, match="grids"):
        equilibrium_control_law(spec_benchmark, sol, ric)


def test_q_weighted_norm_matches_hand_value():
    # constant v = 1, Q = 2, QT = 3, T = 1: ||v||_Q^2 = 3 + 2 = 5
    spec = scalar_spec(q=2.0, qT=3.0)
    grid = uniform_grid(1.0, 100)
    v = np.ones((101, 1))
    Qvals = sample(spec.Q, grid)
    assert abs(q_weighted_norm(Qvals, spec.QT, grid, v) - np.sqrt(5.0)) < 1e-12


def test_fbsolution_csv_header_and_rows(spec_benchmark):
    sol = solve_equilibrium_shooting(spec_benchmark,
                                     build_grid(spec_benchmark, 10))
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


def test_shooting_raises_when_it_misses_the_terminal_condition():
    # classical scalar problem at T = 20: the shooting operator is well
    # conditioned, yet the propagated columns lose the terminal condition
    # (residual about 3.7e3), so the path must not be returned
    coeffs = dict(a=0.025684855058411154, b=1.6106745607467148,
                  q=1.4594698154980255, r=0.7305467032119126,
                  qT=3.645387139582785, x0=-0.2401738727523628)
    spec = scalar_spec(T=20.0, **coeffs)
    with pytest.raises(SingularShootingMatrix, match="lost accuracy"):
        solve_equilibrium_shooting(spec, uniform_grid(20.0, 8000))
    # on a shorter horizon the same problem shoots accurately
    spec = scalar_spec(T=5.0, **coeffs)
    sol = solve_equilibrium_shooting(spec, build_grid(spec, 2000))
    assert sol.boundary_residual < 1e-8


def test_fixed_point_builds_its_step_maps_once(monkeypatch, spec_benchmark):
    # every iterate solves the same two-point problem, so the step maps
    # and the powers of their runs are formed once, whatever the iteration
    # count
    from lqmfg import fbsolver, odecore

    counts = {}
    for name in ("_step_maps", "_run_powers"):
        def counting(*args, _name=name, _inner=getattr(odecore, name)):
            counts[_name] = counts.get(_name, 0) + 1
            return _inner(*args)

        for module in (fbsolver, odecore):
            monkeypatch.setattr(module, name, counting)
    grid = build_grid(spec_benchmark, 400)
    iterations = []
    for tol in (1e-4, 1e-13):
        counts.clear()
        iterations.append(fixed_point_iterate(spec_benchmark, grid,
                                              tol=tol).iterations)
        assert counts == {"_step_maps": 1, "_run_powers": 1}
    assert 5 <= iterations[0] < iterations[1]


def test_two_point_holds_linear_memory_in_the_steps():
    # the run powers, the carried columns and the step pieces: O(K d^2)
    # floats, not a copy of every doubling level (K log2 K matrices)
    K, n = 2000, 2
    rng = np.random.default_rng(4)
    grid = uniform_grid(1.0, K)
    M = Schedule.piecewise([(t, 0.5 * rng.normal(size=(2 * n, 2 * n)))
                            for t in (0.0, 0.25, 0.6)])
    solver = _TwoPoint(M, np.ones(n), np.eye(n), grid)

    def held(value):
        if isinstance(value, np.ndarray):
            return value.nbytes
        if isinstance(value, (list, tuple)):
            return sum(map(held, value))
        return 0

    floats = sum(map(held, vars(solver).values())) / 8
    assert floats <= 4 * (K + 1) * (2 * n) ** 2


@st.composite
def two_point_problems(draw):
    """A piecewise 2n x 2n system (n in 1..3) switching at grid points,
    a terminal weight GT, x0, stage sources and a terminal offset cT."""
    n = draw(st.sampled_from([1, 2, 3]))
    K = draw(st.integers(1, 40))
    grid = uniform_grid(draw(st.sampled_from([0.3, 1.0, 1.7])), K)
    starts = {0.0, *(float(grid[k]) for k in draw(
        st.lists(st.integers(1, K), max_size=3)) if k < K)}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = Schedule.piecewise([(t, rng.normal(size=(2 * n, 2 * n)))
                            for t in sorted(starts)])
    return (M, rng.normal(size=n), rng.normal(size=(n, n)), grid,
            rng.normal(size=(K, 3, 2 * n)), rng.normal(size=n))


@settings(max_examples=60, deadline=None, database=None)
@given(two_point_problems())
def test_two_point_solve_matches_rk4_from_its_p0(problem):
    M, x0, GT, grid, source, cT = problem
    try:
        x, p = _TwoPoint(M, x0, GT, grid).solve(source, cT)
    except SingularShootingMatrix:
        assume(False)
    path = _rk4_linear(M, np.concatenate([x0, p[0]]), grid, source)
    scale = max(float(np.max(np.abs(path))), 1.0)
    assert np.max(np.abs(np.hstack([x, p]) - path)) <= 1e-12 * scale
    n = x0.size
    miss = path[-1, n:] - GT @ path[-1, :n] - cT
    assert np.max(np.abs(miss)) <= 1e-12 * scale * (1.0 + np.abs(GT).sum())


def _psd(rng, k, scale=1.0, floor=0.0):
    W = rng.normal(size=(k, k))
    return scale * (W @ W.T) / k + floor * np.eye(k)


def _contraction_spec(rng, breaks: int) -> ProblemSpec:
    """The benchmark generator's contraction-regime recipes, weak
    mean-field coupling: scalar and constant for breaks = 0, else 2-d
    with A, Q and Qbar each switching `breaks` times.  The switch times
    are distinct multiples of 4 steps of the 200-step grid, so no piece
    of the merged schedule is shorter than 4 steps."""
    c = Schedule.constant
    T = float(rng.uniform(0.4, 1.2))
    if breaks == 0:
        s = lambda v: c(np.array([[float(v)]]))
        return ProblemSpec(
            n=1, m=1, T=T, A=s(rng.uniform(-1.0, 1.0)),
            Abar=s(rng.uniform(-0.3, 0.3)), B=s(rng.uniform(0.5, 1.5)),
            sigma=s(0.3), Q=s(rng.uniform(0.5, 2.0)),
            Qbar=s(rng.uniform(0.0, 0.3)), R=s(rng.uniform(0.5, 2.0)),
            S=s(rng.uniform(0.0, 1.0)),
            QT=np.array([[rng.uniform(0.0, 1.0)]]), QbarT=np.zeros((1, 1)),
            ST=np.ones((1, 1)), x0_mean=np.array([rng.uniform(-2.0, 2.0)]),
            delta=0.25)
    n = 2
    steps = 4 * rng.choice(np.arange(1, 50), size=3 * breaks, replace=False)
    times = T * steps.reshape(3, breaks) / 200

    def piecewise(at, draw):
        return Schedule.piecewise([(t, draw()) for t in [0.0, *sorted(at)]])

    return ProblemSpec(
        n=n, m=n, T=T,
        A=piecewise(times[0], lambda: rng.normal(scale=0.5, size=(n, n))),
        Abar=c(rng.normal(scale=0.1, size=(n, n))),
        B=c(np.eye(n) + rng.normal(scale=0.2, size=(n, n))),
        sigma=c(0.2 * np.eye(n)),
        Q=piecewise(times[1], lambda: _psd(rng, n, floor=0.5)),
        Qbar=piecewise(times[2], lambda: _psd(rng, n, scale=0.1)),
        R=c(_psd(rng, n, scale=0.5, floor=0.5)),
        S=c(float(rng.uniform(0.0, 1.0)) * np.eye(n)),
        QT=_psd(rng, n, scale=0.5), QbarT=np.zeros((n, n)), ST=np.eye(n),
        x0_mean=rng.normal(size=n), delta=0.25)


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_fixed_point_agrees_with_shooting_on_contraction_specs(seed, breaks):
    spec = _contraction_spec(np.random.default_rng(seed), breaks)
    grid = build_grid(spec, 200)
    assert grid.size == 201
    shoot = solve_equilibrium_shooting(spec, grid)
    fp = fixed_point_iterate(spec, grid)
    scale = max(float(np.max(np.abs(shoot.xi))), 1.0)
    assert np.max(np.abs(fp.xi - shoot.xi)) <= 1e-9 * scale


def test_shooting_whose_step_maps_overflow_is_singular():
    # Phi(t, 0) grows like e^{400 t} and overflows before T = 2: the
    # boundary operator is not finite, so shooting reports it singular
    spec = scalar_spec(a=400.0, T=2.0, qT=0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SingularShootingMatrix, match="number inf"):
            solve_equilibrium_shooting(spec, uniform_grid(2.0, 2000))
