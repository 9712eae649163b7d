from dataclasses import fields

import numpy as np
import pytest
from scipy.integrate import trapezoid

from conftest import (fundamental_solution, random_contractive_scalar_spec,
                      rk4_integrate, rk4_integrate_backward, scalar_spec,
                      stage_reader)
from lqmfg.coeffs import (ProblemSpec, Schedule, build_grid, sample,
                          uniform_grid)
from lqmfg.conditions import (AppendixParams, _strict_less_one, _tail_trapezoid,
                              appendix_adjoint_route,
                              appendix_feedback_condition, appendix_feedback_riccati,
                              appendix_report, check_riccati_solvable,
                              check_shifted, compute_L, compute_mainthm_norms,
                              riccati_solvable_verdict)
from lqmfg.fbsolver import fixed_point_iterate, solve_equilibrium_shooting
from lqmfg.riccati import solve_nonsymmetric_radon


def test_L_zero_for_zero_coefficients():
    spec = scalar_spec(a=0.0, b=0.0, q=0.0, qT=0.0, r=1.0)
    assert compute_L(spec) == 0.0


def test_L_zero_when_weights_vanish():
    spec = scalar_spec(a=2.0, abar=-1.0, b=3.0, q=0.0, qbar=0.0, qT=0.0)
    assert compute_L(spec) == 0.0


def test_L_large_for_example1(spec_ex1):
    from lqmfg.coeffs import ProblemSpec

    spec = ProblemSpec(n=2, m=2, T=0.83, A=spec_ex1.A, Abar=spec_ex1.Abar,
                       B=spec_ex1.B, sigma=spec_ex1.sigma, Q=spec_ex1.Q,
                       Qbar=spec_ex1.Qbar, R=spec_ex1.R, S=spec_ex1.S,
                       QT=spec_ex1.QT, QbarT=spec_ex1.QbarT, ST=spec_ex1.ST,
                       x0_mean=spec_ex1.x0_mean, delta=spec_ex1.delta)
    assert compute_L(spec) > 1.0


def test_mainthm_trivially_satisfied_without_mean_field_terms():
    spec = scalar_spec(a=0.4, abar=0.0, qbar=2.0, s=1.0, sT=1.0, q=1.0)
    report = compute_mainthm_norms(spec, build_grid(spec, 100))
    assert report.abar_norm == 0.0
    assert report.s_norm == 0.0
    assert report.mainthm_lhs == 0.0
    assert report.verdicts["mainthm"].status == "satisfied"


def test_mainthm_violated_when_s_norm_reaches_one():
    # Q = 1, Qbar = 4, S = 0: |||Seff||| = 4 >= 1 regardless of T and phi
    spec = scalar_spec(a=0.0, abar=0.0, q=1.0, qbar=4.0, s=0.0, qT=1.0)
    report = compute_mainthm_norms(spec, build_grid(spec, 100))
    assert report.s_norm >= 1.0
    assert report.verdicts["mainthm"].status == "violated"


def test_mainthm_hand_computed_scalar_norms():
    # A=0, Q=1, QT=1, Abar=c, S=I: phi == 1 so |||phi||| = sqrt(1+T),
    # |||Abar||| = |c|, lhs = sqrt(T) sqrt(1+T) |c|
    c, T = 0.4, 1.5
    spec = scalar_spec(a=0.0, abar=c, q=1.0, qT=1.0, s=1.0, sT=1.0, T=T)
    report = compute_mainthm_norms(spec, build_grid(spec, 300))
    assert abs(report.phi_norm - np.sqrt(1.0 + T)) < 1e-9
    assert abs(report.abar_norm - c) < 1e-12
    assert abs(report.mainthm_lhs - np.sqrt(T) * np.sqrt(1 + T) * c) < 1e-8


def test_mainthm_undefined_for_singular_Q_with_mean_field():
    spec = scalar_spec(a=0.0, abar=0.5, q=0.0, qT=1.0)
    report = compute_mainthm_norms(spec, build_grid(spec, 50))
    assert report.verdicts["mainthm"].status == "undefined"
    assert "positive definite" in report.verdicts["mainthm"].reason


def test_mainthm_undefined_for_singular_QT_with_terminal_deviation():
    spec = scalar_spec(a=0.0, abar=0.1, q=1.0, qT=0.0, qbarT=1.0, sT=0.0)
    report = compute_mainthm_norms(spec, build_grid(spec, 50))
    assert report.verdicts["mainthm"].status == "undefined"


@pytest.mark.parametrize("steps", [400, 1000])
def test_phi_norm_beyond_the_grid_leaves_only_verdicts_that_need_it(steps):
    # A = -80 on [0, 20]: at 400 steps the RK4 factor per step is 5, so
    # Phi(t, 0) overflows; at 1000 steps it is 0.27 and Phi underflows to
    # a singular matrix.  Either way |||phi||| cannot be evaluated.
    classical = scalar_spec(a=-80.0, T=20.0, q=1.0, r=1.0, qT=0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        report = compute_mainthm_norms(classical, uniform_grid(20.0, steps))
        # without mean-field terms the lhs is |||Seff||| = 0, phi unused
        assert report.phi_norm is None
        assert report.mainthm_lhs == 0.0
        assert report.verdicts["mainthm"].status == "satisfied"
        assert riccati_solvable_verdict(report, 20.0, None).status == (
            "satisfied")

        coupled = scalar_spec(a=-80.0, abar=0.1, T=20.0, q=1.0, r=1.0,
                              qT=0.5)
        report = compute_mainthm_norms(coupled, uniform_grid(20.0, steps))
    verdict = report.verdicts["mainthm"]
    assert verdict.status == "undefined"
    assert verdict.reason.startswith("|||phi||| is undefined on this grid")
    assert report.mainthm_lhs is None
    solvable = riccati_solvable_verdict(report, 20.0, None)
    assert (solvable.status, solvable.reason) == ("undefined", verdict.reason)


def test_mainthm_report_invariant(spec_benchmark):
    r = compute_mainthm_norms(spec_benchmark, build_grid(spec_benchmark, 200))
    recomputed = (np.sqrt(spec_benchmark.T) * r.phi_norm * r.abar_norm
                  * (1.0 + r.s_norm) + r.s_norm)
    assert abs(r.mainthm_lhs - recomputed) < 1e-12


def test_mainthm_lhs_monotone_in_horizon():
    values = []
    for T in (0.25, 0.5, 1.0, 1.5):
        spec = scalar_spec(a=0.3, abar=0.4, q=1.0, qbar=0.5, s=0.5, sT=1.0,
                           qT=0.5, T=T)
        report = compute_mainthm_norms(spec, build_grid(spec, 200))
        values.append(report.mainthm_lhs)
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_mainthm_independent_of_control_coefficient(spec_benchmark):
    base = compute_mainthm_norms(
        spec_benchmark, build_grid(spec_benchmark, 150)).mainthm_lhs
    scaled = scalar_spec(a=0.2, abar=0.3, b=7.0, sigma=0.4, q=1.0, qbar=0.5,
                         r=1.0, s=0.5, qT=0.5, sT=1.0, T=1.0, delta=0.5)
    lhs = compute_mainthm_norms(scaled, build_grid(scaled, 150)).mainthm_lhs
    assert abs(lhs - base) < 1e-12


def test_strict_less_one_borderline_flag():
    v = _strict_less_one(1.0 - 5e-10)
    assert v.status == "satisfied" and v.borderline
    v = _strict_less_one(1.0 + 5e-10)
    assert v.status == "violated" and v.borderline
    assert not _strict_less_one(0.5).borderline


def _phi_norm_oracle(spec, grid):
    """|||phi||| with phi(s, t) taken from a fundamental solution anchored
    at each t, spectral norms by SVD and the trapezoid rule in s."""
    def sqrt_psd(M):
        lam, V = np.linalg.eigh(M)
        return V @ np.diag(np.sqrt(lam)) @ V.T

    def norm2(M):
        return np.linalg.norm(M, 2) ** 2

    sqrtQ = [sqrt_psd(spec.Q.at(s)) for s in grid]
    sqrtQT = sqrt_psd(spec.QT)
    best = 0.0
    for k, t in enumerate(grid):
        phi = fundamental_solution(spec.A, t, grid)   # phi(s, t)
        running = [norm2(phi[j].T @ sqrtQ[j]) for j in range(k, grid.size)]
        best = max(best, norm2(phi[-1].T @ sqrtQT)
                   + trapezoid(running, grid[k:]))
    return float(np.sqrt(best))


@pytest.mark.parametrize("seed", range(6))
def test_phi_norm_matches_anchored_fundamental_solutions(seed):
    # piecewise 2-d specs, 1-3 breakpoints of A and Q on the grid
    rng = np.random.default_rng(seed)
    T, steps, n = float(rng.uniform(0.4, 1.2)), 60, 2
    starts = [0.0, *np.sort(rng.choice(np.arange(1, steps), seed % 3 + 1,
                                       replace=False)) * T / steps]

    def piecewise(draw):
        return Schedule.piecewise([(t, draw()) for t in starts])

    def pd():
        W = rng.normal(size=(n, n))
        return W @ W.T / n + 0.5 * np.eye(n)

    eye, zero = Schedule.constant(np.eye(n)), np.zeros((n, n))
    spec = ProblemSpec(
        n=n, m=n, T=T, A=piecewise(lambda: rng.normal(scale=0.8, size=(n, n))),
        Abar=Schedule.constant(0.1 * np.eye(n)), B=eye, sigma=eye,
        Q=piecewise(pd), Qbar=Schedule.constant(zero), R=eye, S=eye, QT=pd(),
        QbarT=zero,
        ST=np.eye(n), x0_mean=np.ones(n), delta=0.25)
    grid = build_grid(spec, steps)
    assert grid.size == steps + 1
    got = compute_mainthm_norms(spec, grid).phi_norm
    want = _phi_norm_oracle(spec, grid)
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("rows, points", [(1, 1), (5, 9), (9, 9), (64, 64),
                                          (64, 200)])
def test_tail_trapezoid_matches_per_row_trapezoid(rows, points):
    # rows == points: the block ends at the last grid point, whose
    # integral is empty
    rng = np.random.default_rng(rows * points)
    x = np.sort(rng.uniform(0.0, 2.0, size=points))
    y = rng.uniform(0.0, 3.0, size=(rows, points)) ** 4
    got = _tail_trapezoid(y, x)
    want = np.array([np.trapezoid(y[j, j:], x[j:]) for j in range(rows)])
    assert got.shape == (rows,)
    assert np.all(np.abs(got - want) <= 1e-14 * want)
    assert got[-1] == 0.0 if rows == points else got[-1] > 0.0


def test_shifted_positive_definite_weight_gives_zero_lhs():
    # Abar = 0 and Qcal = Q + Seff positive definite: lhs = 0
    spec = scalar_spec(a=0.2, abar=0.0, q=0.3, qbar=1.0, s=0.0, qT=0.4,
                       qbarT=0.5, sT=0.0)
    Qcal = Schedule.constant([[0.3 + 1.0]])
    QcalT = spec.QT + spec.terminal_effective_S
    report = check_shifted(spec, Qcal, build_grid(spec, 100), QcalT)
    assert report.mainthm_lhs == 0.0
    assert report.verdicts["shifted"].status == "satisfied"


def test_shifted_with_Q_reduces_to_mainthm(spec_benchmark):
    grid = build_grid(spec_benchmark, 150)
    plain = compute_mainthm_norms(spec_benchmark, grid)
    shifted = check_shifted(spec_benchmark, spec_benchmark.Q, grid,
                            QcalT=spec_benchmark.QT)
    assert abs(plain.mainthm_lhs - shifted.mainthm_lhs) < 1e-12
    assert abs(plain.phi_norm - shifted.phi_norm) < 1e-12
    assert abs(plain.s_norm - shifted.s_norm) < 1e-12


def test_shifted_rejects_singular_weight(spec_benchmark):
    with pytest.raises(ValueError, match="positive definite"):
        check_shifted(spec_benchmark, Schedule.constant([[0.0]]),
                      build_grid(spec_benchmark, 50), np.zeros((1, 1)))


def test_riccati_solvable_abar_zero_branch():
    solvable = scalar_spec(a=0.1, abar=0.0, q=1.0, qbar=0.5, s=0.0, qT=0.5)
    report = check_riccati_solvable(solvable, T0=1.0, steps=100)
    assert report.s_norm == 0.5
    assert report.verdicts["riccati_solvable"].status == "satisfied"

    marginal = scalar_spec(a=0.1, abar=0.0, q=1.0, qbar=1.0, s=0.0, qT=0.5)
    report = check_riccati_solvable(marginal, T0=1.0, steps=100)
    assert report.verdicts["riccati_solvable"].status == "not-concluded"


def test_riccati_solvable_constant_coefficient_form(spec_benchmark):
    # with constant coefficients the T0 cap drops: T=1 < bound ~ 2.02
    report = check_riccati_solvable(spec_benchmark, steps=150)
    assert report.verdicts["riccati_solvable"].status == "satisfied"
    # the general form with T0 = T takes the same norms, and the cap
    # T <= T0 holds with equality: the same verdict, not borderline
    capped = check_riccati_solvable(spec_benchmark, T0=spec_benchmark.T,
                                    steps=150)
    assert capped.verdicts["riccati_solvable"].status == "satisfied"
    assert not capped.verdicts["riccati_solvable"].borderline
    radon = solve_nonsymmetric_radon(spec_benchmark,
                                     uniform_grid(spec_benchmark.T, 400))
    assert np.all(np.isfinite(radon.gamma))


def test_riccati_solvable_T0_free_form_needs_constant_coefficients():
    from lqmfg.coeffs import ProblemSpec, Schedule

    base = scalar_spec(a=0.1, abar=0.2, q=1.0, qT=0.5)
    varying = ProblemSpec(
        n=1, m=1, T=1.0,
        A=Schedule.piecewise([(0.0, [[0.1]]), (0.5, [[0.2]])]),
        Abar=base.Abar, B=base.B, sigma=base.sigma, Q=base.Q, Qbar=base.Qbar,
        R=base.R, S=base.S, QT=base.QT, QbarT=base.QbarT, ST=base.ST,
        x0_mean=base.x0_mean, delta=base.delta)
    with pytest.raises(ValueError, match="constant coefficients"):
        check_riccati_solvable(varying)


def test_riccati_solvable_bound_branch_crosschecked_with_radon():
    # small c and T: T < ((1-s)/(phi abar (1+s)))^2 ^ T0, so the
    # solvability criterion applies; Radon must then succeed
    spec = scalar_spec(a=0.0, abar=0.2, q=1.0, qT=1.0, s=1.0, sT=1.0, T=0.5)
    report = check_riccati_solvable(spec, T0=1.0, steps=200)
    assert report.verdicts["riccati_solvable"].status == "satisfied"
    radon = solve_nonsymmetric_radon(spec, uniform_grid(0.5, 400))
    assert np.all(np.isfinite(radon.gamma))


def test_condition_soundness_on_random_scalar_sweep():
    # whenever the contraction condition reports satisfied, shooting and
    # the fixed point iteration must both succeed
    rng = np.random.default_rng(1234)
    for _ in range(8):
        spec = random_contractive_scalar_spec(rng)
        grid = build_grid(spec, 400)
        sol = solve_equilibrium_shooting(spec, grid)
        assert sol.boundary_residual < 1e-8
        fp = fixed_point_iterate(spec, grid, tol=1e-10, max_iter=80)
        assert np.max(np.abs(fp.xi - sol.xi)) < 1e-6


def test_feedback_riccati_terminal_and_tanh():
    p = AppendixParams(a=0.0, b=1.0, r=1.0, alpha=0.0, gamma=0.0, eta=0.0,
                       T=1.0)
    ric = appendix_feedback_riccati(p, uniform_grid(1.0, 2000))
    assert ric.pi[-1] == 0.0
    assert abs(ric.pi[0] - np.tanh(1.0)) < 1e-8
    assert np.all(p.b * ric.pi < 1.0)
    # b Pi_t + 1 = 2 / (1 + e^{-2b(T-t)})
    expected = 2.0 / (1.0 + np.exp(-2.0 * (1.0 - ric.grid))) - 1.0
    assert np.max(np.abs(ric.pi - expected)) < 1e-8


def test_feedback_phi_table_properties():
    p = AppendixParams(a=0.1, b=1.0, r=1.0, alpha=0.0, gamma=0.5, eta=0.0,
                       T=1.0)
    ric = appendix_feedback_riccati(p, uniform_grid(1.0, 100))
    assert ric.F[0] == 0.0

    def phi(i, j):  # Phi(t_i, t_j)
        return np.exp(ric.F[j] - ric.F[i])

    assert all(phi(i, i) == 1.0 for i in range(ric.grid.size))
    # two-point composition: Phi(t, s) = Phi(t, r) Phi(r, s)
    assert abs(phi(80, 20) - phi(80, 50) * phi(50, 20)) < 1e-12
    # no (K+1) x (K+1) table is kept
    for f in fields(ric):
        shape = np.shape(getattr(ric, f.name))
        assert sum(d >= ric.grid.size for d in shape) < 2, f.name


def test_feedback_condition_zero_sources():
    p = AppendixParams(a=0.3, b=1.0, r=1.0, alpha=0.0, gamma=0.0, eta=0.0,
                       T=1.0)
    out = appendix_feedback_condition(p, uniform_grid(p.T, 500))
    assert out["lhs"] == 0.0 and out["satisfied"]


def test_feedback_condition_close_to_relaxed_form_for_small_b():
    # the relaxation replaces Phi by e^{-b .}, which never increases the
    # value; for small b the two nearly coincide
    b, T = 0.1, 1.0
    p = AppendixParams(a=0.0, b=b, r=1.0, alpha=0.0, gamma=1.0, eta=0.0, T=T)
    out = appendix_feedback_condition(p, uniform_grid(p.T, 2000))
    tg = np.linspace(0.0, T, 2001)
    closed = np.max(1.0 - np.exp(-b * tg) - 0.5 * np.exp(-b * (T - tg))
                    + 0.5 * np.exp(-b * (T + tg)))
    assert out["lhs"] >= closed - 1e-12
    assert out["lhs"] <= closed + 2e-3


def test_appendix_conditions_disagree_on_documented_example():
    p = AppendixParams(a=0.0, b=1.0, r=1.0, alpha=0.0, gamma=-5.0, eta=1.0,
                       T=10.0)
    rep = appendix_report(p, uniform_grid(p.T, 3000))
    assert rep["adjoint_gamma_condition"]            # gamma <= 1 holds
    assert rep["feedback_simplified"] >= 1.0           # |gamma|(1-e^-bT) ~ 5
    assert not rep["feedback_simplified_satisfied"]
    assert not rep["feedback_satisfied"]
    assert abs(rep["feedback_simplified"]
               - 5.0 * (1.0 - np.exp(-10.0))) < 1e-12


def test_adjoint_route_terminal_conditions_and_tanh():
    p = AppendixParams(a=0.0, b=1.0, r=1.0, alpha=0.0, gamma=0.0, eta=0.0,
                       T=1.0)
    rep = appendix_adjoint_route(p, uniform_grid(1.0, 2000))
    assert rep.P[-1] == 0.0 and rep.rho[-1] == 0.0
    assert np.max(np.abs(rep.P - np.tanh(1.0 - rep.grid))) < 1e-7
    assert rep.closed_form_ok
    assert rep.roots[0] > 0.0 > rep.roots[1]
    assert rep.gamma_condition


def test_adjoint_gamma_one_gives_zero_path():
    p = AppendixParams(a=0.0, b=1.0, r=1.0, alpha=0.0, gamma=1.0, eta=0.0,
                       T=1.0)
    rep = appendix_adjoint_route(p, uniform_grid(1.0, 500))
    assert np.all(rep.P == 0.0)
    assert rep.closed_form_ok is None  # closed form needs gamma < 1


def test_adjoint_route_mean_system_residual_small():
    p = AppendixParams(a=0.2, b=0.8, r=1.2, alpha=0.3, gamma=0.5, eta=1.0,
                       T=1.0)
    rep = appendix_adjoint_route(p, uniform_grid(1.0, 2000))
    assert rep.pbar_residual < 1e-7
    assert abs(rep.zbar[0]) == 0.0


def _appendix_oracle(p, grid):
    """(Pi, P, rho, zbar) by field-call RK4 on the nonlinear Riccati and
    offset equations: Pi, P and rho backward, then zbar forward reading
    P and rho at each step's stages.  An independent route to what
    `odecore._sweep` gives both appendix routes."""
    from lqmfg.odecore import stage_source, step_pieces

    k2 = p.b ** 2 / p.r

    def field(t, y):
        pi, P, rho = y
        return np.array([k2 * pi * pi - 2.0 * p.a * pi - 1.0,
                         -(2.0 * p.a + p.alpha) * P + k2 * P * P - 1.0
                         + p.gamma,
                         -(p.a - k2 * P) * rho + p.gamma * p.eta])

    pi, P, rho = rk4_integrate_backward(field, np.zeros(3), grid).T
    eye = Schedule.constant(np.eye(2))
    mid, cuts = step_pieces(eye, grid)
    offsets = stage_reader(stage_source(sample(eye, mid),
                                        np.stack([P, rho], 1), cuts))

    def mean_field(t, z):
        P_t, rho_t = offsets()
        return (p.a + p.alpha) * z - k2 * (P_t * z + rho_t)

    zbar = rk4_integrate(mean_field, np.array(0.0), grid)
    return pi, P, rho, zbar


def test_appendix_routes_match_field_oracle():
    rng = np.random.default_rng(77)
    for _ in range(6):
        p = AppendixParams(a=rng.uniform(-0.5, 0.5), b=rng.uniform(0.3, 1.5),
                           r=rng.uniform(0.5, 2.0),
                           alpha=rng.uniform(-0.5, 0.5),
                           gamma=rng.uniform(-3.0, 1.0),
                           eta=rng.uniform(-1.0, 1.0), T=rng.uniform(0.5, 4.0))
        grid = uniform_grid(p.T, 1000)
        pi, P, rho, zbar = _appendix_oracle(p, grid)
        ric = appendix_feedback_riccati(p, grid)
        rep = appendix_adjoint_route(p, grid)
        assert np.max(np.abs(ric.pi - pi)) < 1e-8
        assert np.max(np.abs(rep.P - P)) < 1e-8
        assert np.max(np.abs(rep.rho - rho)) < 1e-8
        assert np.max(np.abs(rep.zbar - zbar)) < 1e-8


@pytest.mark.parametrize("steps", [2000, 3000])
def test_adjoint_route_accuracy_on_documented_example(steps):
    p = AppendixParams(a=0.0, b=1.0, r=1.0, alpha=0.0, gamma=-5.0, eta=1.0,
                       T=10.0)
    rep = appendix_adjoint_route(p, uniform_grid(p.T, steps))
    assert rep.pbar_residual < 1e-8
    assert rep.closed_form_error < 5e-10
