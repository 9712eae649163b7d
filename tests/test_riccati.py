import numpy as np
import pytest

from conftest import random_classical_spec, scalar_spec
from lqmfg.coeffs import ProblemSpec, build_grid, uniform_grid
from lqmfg.fbsolver import refine_singular_horizon, solve_equilibrium_shooting
from lqmfg.riccati import (BoundaryOperatorSingular, DistinctRootsViolated,
                           riccati_csv, solve_1d_closed_form,
                           solve_nonsymmetric_direct, solve_nonsymmetric_radon,
                           solve_symmetric)


def test_symmetric_zero_data_gives_zero():
    spec = scalar_spec(a=0.5, b=1.0, q=0.0, qbar=0.0, qT=0.0, qbarT=0.0)
    ric = solve_symmetric(spec, uniform_grid(1.0, 200))
    assert np.all(ric.gamma == 0.0)


def test_symmetric_tanh_closed_form():
    # A=0, B=1, R=1, Q+Qbar=1, terminal 0: Xi_t = tanh(T-t)
    spec = scalar_spec(a=0.0, b=1.0, q=1.0, qT=0.0)
    grid = uniform_grid(1.0, 2000)
    ric = solve_symmetric(spec, grid)
    assert np.max(np.abs(ric.gamma[:, 0, 0] - np.tanh(1.0 - grid))) < 1e-8


def test_symmetric_path_is_symmetric_psd():
    rng = np.random.default_rng(21)
    for _ in range(5):
        spec = random_classical_spec(rng)
        ric = solve_symmetric(spec, build_grid(spec, 300))
        sym_gap = np.max(np.abs(ric.gamma - ric.gamma.transpose(0, 2, 1)))
        assert sym_gap < 1e-9
        eigs = np.linalg.eigvalsh(ric.gamma)
        assert eigs.min() > -1e-9


def test_nonsymmetric_routes_coincide_with_symmetric_when_classical():
    rng = np.random.default_rng(22)
    for _ in range(5):
        spec = random_classical_spec(rng)
        grid = build_grid(spec, 400)
        xi = solve_symmetric(spec, grid)
        direct = solve_nonsymmetric_direct(spec, grid)
        radon = solve_nonsymmetric_radon(spec, grid)
        assert direct.blow_up is None
        assert np.max(np.abs(direct.gamma - xi.gamma)) < 1e-6
        assert np.max(np.abs(radon.gamma - xi.gamma)) < 1e-6


def test_radon_agrees_with_direct_on_benchmark(spec_benchmark):
    grid = build_grid(spec_benchmark, 800)
    radon = solve_nonsymmetric_radon(spec_benchmark, grid)
    direct = solve_nonsymmetric_direct(spec_benchmark, grid)
    assert np.max(np.abs(radon.gamma - direct.gamma)) < 1e-6


def test_radon_terminal_condition_exact(spec_benchmark):
    grid = build_grid(spec_benchmark, 100)
    radon = solve_nonsymmetric_radon(spec_benchmark, grid)
    GT = spec_benchmark.QT + spec_benchmark.terminal_effective_S
    assert np.max(np.abs(radon.gamma[-1] - GT)) < 1e-12


def test_radon_singular_at_critical_horizon(spec_ex1):
    T0 = refine_singular_horizon(spec_ex1, (0.83, 0.86), tol=1e-12)
    spec_T0 = ProblemSpec(n=2, m=2, T=T0, A=spec_ex1.A, Abar=spec_ex1.Abar,
                          B=spec_ex1.B, sigma=spec_ex1.sigma, Q=spec_ex1.Q,
                          Qbar=spec_ex1.Qbar, R=spec_ex1.R, S=spec_ex1.S,
                          QT=spec_ex1.QT, QbarT=spec_ex1.QbarT, ST=spec_ex1.ST,
                          x0_mean=spec_ex1.x0_mean, delta=spec_ex1.delta)
    with pytest.raises(BoundaryOperatorSingular) as exc:
        solve_nonsymmetric_radon(spec_T0, uniform_grid(T0, 400))
    assert exc.value.t == 0.0


def test_radon_scalar_tanh():
    # A=0, Abar=0, B=1, R=1, Q+Seff=1, terminal 0, T=1: Gamma_0 = tanh(1)
    spec = scalar_spec(a=0.0, abar=0.0, b=1.0, q=1.0, qT=0.0)
    radon = solve_nonsymmetric_radon(spec, uniform_grid(1.0, 1000))
    assert abs(radon.gamma[0, 0, 0] - np.tanh(1.0)) < 1e-6


def test_direct_blow_up_flagged():
    # Q + Seff = -4 gives dGamma/dt = Gamma^2 + 4 backward: finite-time
    # escape at T - t = pi/4
    spec = scalar_spec(a=0.0, abar=0.0, b=1.0, q=0.0, qbar=-4.0, s=0.0,
                       qT=0.0, T=1.0)
    grid = uniform_grid(1.0, 2000)
    ric = solve_nonsymmetric_direct(spec, grid)
    assert ric.blow_up is not None
    t_blow = grid[ric.blow_up]
    assert abs(t_blow - (1.0 - np.pi / 4.0)) < 0.01
    assert np.array_equal(ric.gamma[-1], np.zeros((1, 1)))
    short = scalar_spec(a=0.0, abar=0.0, b=1.0, q=0.0, qbar=-4.0, s=0.0,
                        qT=0.0, T=0.5)
    ok = solve_nonsymmetric_direct(short, uniform_grid(0.5, 1000))
    assert ok.blow_up is None


def test_closed_form_affine_branch():
    # B = 0 and 2A + Abar = 0: Gamma_t = (Q+Seff)(T-t) + terminal
    grid = uniform_grid(2.0, 50)
    ric = solve_1d_closed_form(a=0.5, abar=-1.0, b=0.0, r=1.0, q_plus_s=1.5,
                               qT_plus_sT=0.25, T=2.0, grid=grid)
    expected = 1.5 * (2.0 - grid) + 0.25
    assert np.max(np.abs(ric.gamma[:, 0, 0] - expected)) < 1e-12


def test_closed_form_terminal_condition():
    for kwargs in (dict(a=0.3, abar=0.1, b=0.0, r=1.0),
                   dict(a=0.3, abar=0.1, b=1.2, r=0.7),
                   dict(a=0.0, abar=0.0, b=0.0, r=1.0)):
        ric = solve_1d_closed_form(q_plus_s=0.8, qT_plus_sT=0.6, T=1.0,
                                   grid=uniform_grid(1.0, 10), **kwargs)
        assert abs(ric.gamma[-1, 0, 0] - 0.6) < 1e-14


def test_closed_form_tanh_matches_direct():
    spec = scalar_spec(a=0.0, abar=0.0, b=1.0, q=1.0, qT=0.0)
    grid = uniform_grid(1.0, 2000)
    closed = solve_1d_closed_form(0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0, grid=grid)
    assert np.max(np.abs(closed.gamma[:, 0, 0] - np.tanh(1.0 - grid))) < 1e-12
    direct = solve_nonsymmetric_direct(spec, grid)
    assert np.max(np.abs(closed.gamma - direct.gamma)) < 1e-8


def test_closed_form_large_horizon_stable():
    # the naive formula overflows around T ~ 350; the rearranged one must not
    ric = solve_1d_closed_form(a=0.0, abar=0.0, b=1.0, r=1.0, q_plus_s=1.0,
                               qT_plus_sT=0.0, T=500.0,
                               grid=uniform_grid(500.0, 100))
    assert np.all(np.isfinite(ric.gamma))
    assert abs(ric.gamma[0, 0, 0] - 1.0) < 1e-12  # tanh(500) = 1 numerically


def test_closed_form_degenerate_roots_rejected():
    with pytest.raises(DistinctRootsViolated):
        solve_1d_closed_form(a=0.0, abar=0.0, b=1.0, r=1.0, q_plus_s=0.0,
                             qT_plus_sT=0.5, T=1.0, grid=uniform_grid(1.0, 10))


def test_closed_form_negative_weight_rejected():
    # q_plus_s = -2 with 2a+abar = 3 keeps the roots real but both positive
    with pytest.raises(ValueError, match="q_plus_s >= 0"):
        solve_1d_closed_form(a=1.0, abar=1.0, b=1.0, r=1.0, q_plus_s=-2.0,
                             qT_plus_sT=0.0, T=1.0, grid=uniform_grid(1.0, 10))


def _random_branch_case(rng):
    branch = rng.integers(0, 3)
    qs = float(rng.uniform(0.0, 2.0))
    gT = float(rng.uniform(0.0, 1.5))
    T = float(rng.uniform(0.3, 2.0))
    if branch == 0:    # B = 0, 2a+abar != 0
        a = float(rng.uniform(-1.0, 1.0)) or 0.3
        abar = float(rng.uniform(-1.0, 1.0))
        if abs(2 * a + abar) < 0.05:
            abar += 0.5
        return dict(a=a, abar=abar, b=0.0, r=1.0, q_plus_s=qs,
                    qT_plus_sT=gT, T=T)
    if branch == 1:    # B = 0, 2a+abar = 0
        a = float(rng.uniform(-1.0, 1.0))
        return dict(a=a, abar=-2.0 * a, b=0.0, r=1.0, q_plus_s=qs,
                    qT_plus_sT=gT, T=T)
    a = float(rng.uniform(-1.0, 1.0))
    abar = float(rng.uniform(-1.0, 1.0))
    qs = float(rng.uniform(0.1, 2.0))  # keep the roots distinct
    return dict(a=a, abar=abar, b=float(rng.uniform(0.3, 1.5)),
                r=float(rng.uniform(0.5, 2.0)), q_plus_s=qs, qT_plus_sT=gT,
                T=T)


def test_closed_forms_match_backward_rk4_sweep():
    from lqmfg.odecore import rk4_integrate_backward

    rng = np.random.default_rng(99)
    for _ in range(30):
        case = _random_branch_case(rng)
        grid = uniform_grid(case["T"], 2000)
        closed = solve_1d_closed_form(grid=grid, **case)

        two_a = 2.0 * case["a"] + case["abar"]
        k2 = case["b"] ** 2 / case["r"]

        def field(t, g):
            return -two_a * g + k2 * g * g - case["q_plus_s"]

        oracle = rk4_integrate_backward(field, np.array(case["qT_plus_sT"]),
                                        grid)
        assert np.max(np.abs(closed.gamma[:, 0, 0] - oracle)) < 1e-8, case


def test_equilibrium_consistency_eta_equals_gamma_xi(spec_benchmark):
    grid = build_grid(spec_benchmark, 800)
    sol = solve_equilibrium_shooting(spec_benchmark, grid)
    gam = solve_nonsymmetric_radon(spec_benchmark, grid)
    for k in range(0, grid.size, 50):
        lhs = np.linalg.norm(sol.eta[k] - gam.gamma[k] @ sol.xi[k])
        assert lhs <= 1e-6 * (1.0 + np.linalg.norm(sol.xi[k]))


def test_zeta_consistency_with_fb_solution(spec_benchmark):
    grid = build_grid(spec_benchmark, 800)
    sol = solve_equilibrium_shooting(spec_benchmark, grid)
    gam = solve_nonsymmetric_radon(spec_benchmark, grid)
    pair = solve_symmetric(spec_benchmark, grid, z=sol.xi)
    lhs = np.einsum("kij,kj->ki", gam.gamma, sol.xi)
    rhs = np.einsum("kij,kj->ki", pair.gamma, sol.xi) + pair.aux
    assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_riccati_csv_shape(spec_benchmark):
    grid = build_grid(spec_benchmark, 10)
    ric = solve_symmetric(spec_benchmark, grid, z=np.ones((11, 1)))
    text = riccati_csv(ric)
    lines = text.strip().split("\n")
    assert lines[0] == "t,gamma_11,zeta_1"
    assert len(lines) == 12


def _pair_oracle(spec, grid, z=None):
    """(Xi, zeta) by backward RK4 on the nonlinear Riccati field and the
    zeta equation zeta' = -A* zeta + Xi G zeta + (Qbar S - Xi Abar) z, with
    z read at the RK4 stage points: an independent route to the pair that
    `solve_symmetric` takes from the Hamiltonian step maps."""
    from lqmfg.coeffs import system_blocks
    from lqmfg.odecore import (StageSampled, rk4_integrate_backward,
                               stage_values)

    n = spec.n
    BRB = system_blocks(spec).BRB
    z_fn = (StageSampled(grid, stage_values(grid, z)) if z is not None
            else lambda t: np.zeros(n))

    def field(t, y):
        Xi, zeta = y[:, :n], y[:, n]
        A, G = spec.A.at(t), BRB.at(t)
        out = np.empty_like(y)
        out[:, :n] = (-Xi @ A - A.T @ Xi + Xi @ G @ Xi
                      - spec.Q.at(t) - spec.Qbar.at(t))
        out[:, n] = (-A.T @ zeta + Xi @ G @ zeta
                     + (spec.Qbar.at(t) @ spec.S.at(t)
                        - Xi @ spec.Abar.at(t)) @ z_fn(t))
        return out

    yT = np.zeros((n, n + 1))
    yT[:, :n] = spec.QT + spec.QbarT
    if z is not None:
        yT[:, n] = -spec.QbarT @ spec.ST @ z[-1]
    path = rk4_integrate_backward(field, yT, grid)
    return path[:, :, :n], path[:, :, n]


def _random_coupled_spec(rng, n, T=1.0, breaks=()):
    """Random spec with mean-field coupling (Abar, Qbar, S, QbarT, ST all
    nonzero); A, Q and Qbar switch at the given breakpoints."""
    from lqmfg.coeffs import Schedule

    def psd(scale=1.0, floor=0.0):
        W = rng.normal(size=(n, n))
        return scale * (W @ W.T) / n + floor * np.eye(n)

    def sched(draw):
        return Schedule.piecewise([(t, draw()) for t in (0.0, *breaks)])

    const = Schedule.constant
    return ProblemSpec(
        n=n, m=n, T=T,
        A=sched(lambda: rng.normal(scale=0.5, size=(n, n))),
        Abar=const(rng.normal(scale=0.3, size=(n, n))),
        B=const(np.eye(n) + rng.normal(scale=0.2, size=(n, n))),
        sigma=const(0.2 * np.eye(n)),
        Q=sched(lambda: psd(floor=0.2)), Qbar=sched(lambda: psd(scale=0.3)),
        R=const(psd(scale=0.5, floor=0.5)),
        S=const(rng.normal(scale=0.5, size=(n, n))),
        QT=psd(scale=0.5), QbarT=psd(scale=0.3),
        ST=rng.normal(scale=0.5, size=(n, n)),
        x0_mean=rng.normal(size=n), delta=0.25)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symmetric_pair_matches_nonlinear_oracle_constant(n):
    rng = np.random.default_rng(500 + n)
    for _ in range(3):
        spec = _random_coupled_spec(rng, n)
        grid = uniform_grid(spec.T, 400)
        z = np.stack([np.cos((i + 1) * grid) + 0.3 * grid for i in range(n)],
                     axis=1)
        Xi_ref, zeta_ref = _pair_oracle(spec, grid, z)
        pair = solve_symmetric(spec, grid, z=z)
        assert np.max(np.abs(pair.gamma - Xi_ref)) < 1e-8
        assert np.max(np.abs(pair.aux - zeta_ref)) < 1e-8
        alone = solve_symmetric(spec, grid)
        assert alone.aux is None
        assert np.array_equal(alone.gamma, pair.gamma)


def test_symmetric_pair_matches_nonlinear_oracle_piecewise():
    rng = np.random.default_rng(510)
    for breaks in [(0.25,), (0.3, 0.6), (0.125, 0.5, 0.75)]:
        spec = _random_coupled_spec(rng, 2, breaks=breaks)
        grid = build_grid(spec, 400)
        z = np.stack([np.sin(grid), 1.0 - grid], axis=1)
        Xi_ref, _ = _pair_oracle(spec, grid, z)
        pair = solve_symmetric(spec, grid, z=z)
        assert np.max(np.abs(pair.gamma - Xi_ref)) < 1e-6


def test_symmetric_long_horizon_classical():
    # at T = 20 the sweep stays finite, symmetric and PSD, and equals the
    # nonlinear oracle
    spec = random_classical_spec(np.random.default_rng(3))
    assert spec.n >= 3
    spec = ProblemSpec(n=spec.n, m=spec.m, T=20.0, A=spec.A, Abar=spec.Abar,
                       B=spec.B, sigma=spec.sigma, Q=spec.Q, Qbar=spec.Qbar,
                       R=spec.R, S=spec.S, QT=spec.QT, QbarT=spec.QbarT,
                       ST=spec.ST, x0_mean=spec.x0_mean, delta=spec.delta)
    grid = uniform_grid(20.0, 8000)
    Xi = solve_symmetric(spec, grid).gamma
    assert np.all(np.isfinite(Xi))
    assert np.array_equal(Xi, Xi.transpose(0, 2, 1))
    assert np.linalg.eigvalsh(Xi).min() > -1e-9
    Xi_ref, _ = _pair_oracle(spec, grid)
    assert np.max(np.abs(Xi - Xi_ref)) < 1e-8 * (1.0 + np.max(np.abs(Xi)))
