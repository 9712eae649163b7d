from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (classical_spec, contraction_spec,
                      random_classical_spec, rk4_by_piece,
                      rk4_integrate_backward, scalar_spec, stage_reader)
from lqmfg.cli import bundled_config
from lqmfg.coeffs import (ProblemSpec, Schedule, build_grid, load_config,
                          system_blocks, uniform_grid)
from lqmfg.fbsolver import (equilibrium_system, fixed_point_iterate,
                            refine_singular_horizon,
                            solve_equilibrium_shooting)
from lqmfg.odecore import IntegrationOverflow
from lqmfg.riccati import (BLOW_UP_LIMIT, BoundaryOperatorSingular,
                           DistinctRootsViolated, riccati_csv,
                           solve_1d_closed_form,
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


@pytest.mark.parametrize("i", range(12))
def test_radon_long_horizon_classical(i):
    # T = 20, 2000 steps: on specs 2, 3 and 11 the inverted block is
    # singular to working precision at t = 0 (condition 1e14 to 4e17);
    # elsewhere Radon is the classical Xi to within 1e-9 relative
    spec = replace(classical_spec(np.random.default_rng(100 + i), i % 4 + 1),
                   T=20.0)
    grid = uniform_grid(20.0, 2000)
    if i in (2, 3, 11):
        with pytest.raises(BoundaryOperatorSingular) as exc:
            solve_nonsymmetric_radon(spec, grid)
        assert exc.value.t == 0.0
        return
    gamma = solve_nonsymmetric_radon(spec, grid).gamma
    xi = solve_symmetric(spec, grid).gamma
    scale = max(float(np.max(np.abs(xi))), 1.0)
    assert np.max(np.abs(gamma - xi)) <= 1e-8 * scale


def test_radon_overflow_is_not_a_singular_operator(spec_benchmark):
    # A = 400 on [0, 2]: Phi(T, t) leaves the floats below t = 0.227, so
    # Radon reports an integration overflow (not a singular boundary
    # operator, whose exit code would read as non-existence)
    spec = replace(spec_benchmark, A=Schedule.constant([[400.0]]), T=2.0)
    with np.errstate(all="ignore"), pytest.raises(IntegrationOverflow) as exc:
        solve_nonsymmetric_radon(spec, uniform_grid(2.0, 2000))
    assert exc.value.index == 226
    assert exc.value.direction == "backward"
    path = exc.value.path
    assert np.all(np.isnan(path[:226])) and not np.isfinite(path[226]).all()
    assert np.all(np.isfinite(path[227:]))


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


@pytest.mark.parametrize("wild", [1, 0])
def test_direct_blow_up_in_one_entry_only(wild):
    # diagonal 2-d spec: Gamma_wild solves the escaping scalar equation of
    # test_direct_blow_up_flagged, the other diagonal entry tanh(T - t),
    # so a blow-up check that misses an entry fails one of the two orders
    tame = 1 - wild
    c = Schedule.constant
    I, Z = np.eye(2), np.zeros((2, 2))
    Q, Qbar = np.zeros((2, 2)), np.zeros((2, 2))
    Q[tame, tame], Qbar[wild, wild] = 1.0, -4.0
    spec = ProblemSpec(n=2, m=2, T=1.0, A=c(Z), Abar=c(Z), B=c(I),
                       sigma=c(Z), Q=c(Q), Qbar=c(Qbar), R=c(I), S=c(Z),
                       QT=Z, QbarT=Z, ST=Z, x0_mean=np.ones(2), delta=1e-6)
    grid = uniform_grid(1.0, 2000)
    ric = solve_nonsymmetric_direct(spec, grid)
    assert ric.blow_up == 428  # t = 0.214, T - t just beyond pi/4
    k = ric.blow_up
    assert np.all(np.isnan(ric.gamma[:k]))
    assert not abs(ric.gamma[k, wild, wild]) <= BLOW_UP_LIMIT
    assert np.max(np.abs(ric.gamma[k:, tame, tame]
                         - np.tanh(1.0 - grid[k:]))) < 1e-14
    assert np.all(ric.gamma[k:, 0, 1] == 0.0)
    assert np.all(ric.gamma[k:, 1, 0] == 0.0)


def _direct_oracle(spec, grid):
    """(Gamma, blow-up index) by field-call RK4 on the textbook field
    -G (A+Abar) - A* G + G BRB G - (Q + Seff), restarted at every
    breakpoint: the reference for the direct route's own loop."""
    blocks = system_blocks(spec)

    def field_at(c):
        A, AA = spec.A.at(c), spec.A.at(c) + spec.Abar.at(c)
        BRB, QS = blocks.BRB.at(c), blocks.QS.at(c)
        return lambda t, G: -G @ AA - A.T @ G + G @ BRB @ G - QS

    try:
        return rk4_by_piece(field_at, blocks.GT, grid,
                            equilibrium_system(spec)[0].breakpoints,
                            backward=True, max_abs=BLOW_UP_LIMIT), None
    except IntegrationOverflow as exc:
        return exc.path, exc.index


def _direct_cases():
    """The bundled configs at 2000 steps, classical specs for n = 1..4, 2-d
    piecewise specs with 1-3 breakpoints, and an n = 3 spec with Abar != 0
    and a nonsymmetric S, so that A + Abar != A*."""
    rng = np.random.default_rng(28)
    for name in ("benchmark_scalar", "classical_lq", "counterexample_2d_1",
                 "counterexample_2d_2"):
        yield name, load_config(bundled_config(name)), 2000
    for n in (1, 2, 3, 4):
        yield f"classical_n{n}", classical_spec(rng, n), 800
    for breaks in (1, 2, 3):
        yield f"piecewise_b{breaks}", contraction_spec(rng, 1.0, breaks), 800
    yield "coupled_n3", _random_coupled_spec(rng, 3), 800


def test_direct_route_matches_the_field_call_oracle():
    blown = set()
    for name, spec, steps in _direct_cases():
        grid = build_grid(spec, steps)
        ref, blow_up = _direct_oracle(spec, grid)
        direct = solve_nonsymmetric_direct(spec, grid)
        assert direct.blow_up == blow_up, name
        if blow_up is not None:
            blown.add(name)
        finite = np.isfinite(ref).all(axis=(1, 2))
        assert np.array_equal(np.isnan(direct.gamma), np.isnan(ref)), name
        size = np.linalg.norm(ref[finite], axis=(1, 2))
        gap = np.linalg.norm(direct.gamma[finite] - ref[finite], axis=(1, 2))
        assert np.all(gap <= 1e-7 * size), name
        assert np.all(gap[size <= 1e3] <= 1e-10 * size[size <= 1e3]), name
    assert blown == {"counterexample_2d_2"}


def test_closed_form_affine_branch():
    # B = 0 and 2A + Abar = 0: Gamma_t = (Q+Seff)(T-t) + terminal
    grid = uniform_grid(2.0, 50)
    ric = solve_1d_closed_form(a=0.5, abar=-1.0, b=0.0, r=1.0, q_plus_s=1.5,
                               qT_plus_sT=0.25, grid=grid)
    expected = 1.5 * (2.0 - grid) + 0.25
    assert np.max(np.abs(ric.gamma[:, 0, 0] - expected)) < 1e-12


def test_closed_form_terminal_condition():
    for kwargs in (dict(a=0.3, abar=0.1, b=0.0, r=1.0),
                   dict(a=0.3, abar=0.1, b=1.2, r=0.7),
                   dict(a=0.0, abar=0.0, b=0.0, r=1.0)):
        ric = solve_1d_closed_form(q_plus_s=0.8, qT_plus_sT=0.6,
                                   grid=uniform_grid(1.0, 10), **kwargs)
        assert abs(ric.gamma[-1, 0, 0] - 0.6) < 1e-14


def test_closed_form_tanh_matches_direct():
    spec = scalar_spec(a=0.0, abar=0.0, b=1.0, q=1.0, qT=0.0)
    grid = uniform_grid(1.0, 2000)
    closed = solve_1d_closed_form(0.0, 0.0, 1.0, 1.0, 1.0, 0.0, grid)
    assert np.max(np.abs(closed.gamma[:, 0, 0] - np.tanh(1.0 - grid))) < 1e-12
    direct = solve_nonsymmetric_direct(spec, grid)
    assert np.max(np.abs(closed.gamma - direct.gamma)) < 1e-8


def test_closed_form_large_horizon_stable():
    # the naive formula overflows around T ~ 350; the rearranged one must not
    ric = solve_1d_closed_form(a=0.0, abar=0.0, b=1.0, r=1.0, q_plus_s=1.0,
                               qT_plus_sT=0.0, grid=uniform_grid(500.0, 100))
    assert np.all(np.isfinite(ric.gamma))
    assert abs(ric.gamma[0, 0, 0] - 1.0) < 1e-12  # tanh(500) = 1 numerically


def test_closed_form_degenerate_roots_rejected():
    with pytest.raises(DistinctRootsViolated):
        solve_1d_closed_form(a=0.0, abar=0.0, b=1.0, r=1.0, q_plus_s=0.0,
                             qT_plus_sT=0.5, grid=uniform_grid(1.0, 10))


def test_closed_form_negative_weight_rejected():
    # q_plus_s = -2 with 2a+abar = 3 keeps the roots real but both positive
    with pytest.raises(ValueError, match="q_plus_s >= 0"):
        solve_1d_closed_form(a=1.0, abar=1.0, b=1.0, r=1.0, q_plus_s=-2.0,
                             qT_plus_sT=0.0, grid=uniform_grid(1.0, 10))


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
    rng = np.random.default_rng(99)
    for _ in range(30):
        case = _random_branch_case(rng)
        grid = uniform_grid(case.pop("T"), 2000)
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
    zeta equation zeta' = -A* zeta + Xi G zeta + (Qbar S - Xi Abar) z,
    restarted at every breakpoint with z read at each step's stages: an
    independent route to the pair that `solve_symmetric` takes from the
    Hamiltonian step maps."""
    from lqmfg.coeffs import system_blocks
    from lqmfg.fbsolver import equilibrium_system
    from lqmfg.odecore import stage_source, step_pieces

    n = spec.n
    BRB = system_blocks(spec).BRB
    M = equilibrium_system(spec)[0]
    mid, cuts = step_pieces(M, grid)
    z_at = (lambda: np.zeros(n)) if z is None else stage_reader(
        stage_source(np.broadcast_to(np.eye(n), (mid.size, n, n)), z, cuts),
        backward=True)

    def field_at(c):
        A, G, Abar = spec.A.at(c), BRB.at(c), spec.Abar.at(c)
        QQ, QS = spec.Q.at(c) + spec.Qbar.at(c), spec.Qbar.at(c) @ spec.S.at(c)

        def field(t, y):
            Xi, zeta = y[:, :n], y[:, n]
            out = np.empty_like(y)
            out[:, :n] = -Xi @ A - A.T @ Xi + Xi @ G @ Xi - QQ
            out[:, n] = (-A.T @ zeta + Xi @ G @ zeta
                         + (QS - Xi @ Abar) @ z_at())
            return out

        return field

    yT = np.zeros((n, n + 1))
    yT[:, :n] = spec.QT + spec.QbarT
    if z is not None:
        yT[:, n] = -spec.QbarT @ spec.ST @ z[-1]
    path = rk4_by_piece(field_at, yT, grid, M.breakpoints, backward=True)
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
        Xi_ref, zeta_ref = _pair_oracle(spec, grid, z)
        pair = solve_symmetric(spec, grid, z=z)
        assert np.max(np.abs(pair.gamma - Xi_ref)) < 1e-8
        assert np.max(np.abs(pair.aux - zeta_ref)) < 1e-8


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


LATTICE = 8  # breakpoints sit on build_grid(spec, LATTICE) points


def _coupled(spec, c):
    """spec with its mean-field terms Abar, Qbar and QbarT scaled by c."""
    return replace(spec, Abar=spec.Abar.map(lambda M: c * M),
                   Qbar=spec.Qbar.map(lambda M: c * M), QbarT=c * spec.QbarT)


@st.composite
def piecewise_coupled_specs(draw):
    """n in {1, 2, 3}, A, Q and Qbar switching at 1-3 breakpoints on the
    points of an 8-step grid, mean-field coupling weak enough for the
    fixed-point iteration to contract."""
    n = draw(st.sampled_from([1, 2, 3]))
    T = draw(st.sampled_from([0.5, 0.8, 1.2]))
    idx = draw(st.lists(st.integers(1, LATTICE - 1), min_size=1, max_size=3,
                        unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    breaks = tuple(T * i / LATTICE for i in sorted(idx))
    return _coupled(_random_coupled_spec(rng, n, T, breaks), 0.15)


@settings(max_examples=25, deadline=None, database=None)
@given(piecewise_coupled_specs())
def test_piecewise_cross_route_identities(spec):
    # shooting = fixed point, eta = Gamma xi, Radon = direct, and Gamma = Xi
    # without the mean-field terms; every piece spans 16 steps or more
    grid = build_grid(spec, 16 * LATTICE)
    shoot = solve_equilibrium_shooting(spec, grid)
    fp = fixed_point_iterate(spec, grid, tol=1e-12)
    assert np.max(np.abs(fp.xi - shoot.xi)) < 1e-8
    assert np.max(np.abs(fp.eta - shoot.eta)) < 1e-8
    radon = solve_nonsymmetric_radon(spec, grid)
    scale = 1.0 + np.max(np.abs(radon.gamma))
    gamma_xi = np.einsum("kij,kj->ki", radon.gamma, shoot.xi)
    assert np.max(np.abs(shoot.eta - gamma_xi)) < 1e-12 * scale
    direct = solve_nonsymmetric_direct(spec, grid)
    assert np.max(np.abs(radon.gamma - direct.gamma)) < 1e-6 * scale
    classical = _coupled(spec, 0.0)
    Xi = solve_symmetric(classical, grid).gamma
    Gamma = solve_nonsymmetric_radon(classical, grid).gamma
    assert np.max(np.abs(Gamma - Xi)) < 1e-9 * scale


@settings(max_examples=15, deadline=None, database=None)
@given(piecewise_coupled_specs())
def test_piecewise_shooting_is_fourth_order(spec):
    ref = solve_equilibrium_shooting(spec, build_grid(spec, 32 * LATTICE)).xi
    errors = [np.max(np.abs(solve_equilibrium_shooting(
        spec, build_grid(spec, K)).xi - ref[::32 * LATTICE // K]))
              for K in (2 * LATTICE, 4 * LATTICE)]
    assert errors[0] / errors[1] >= 12.0


def test_sourced_routes_solve_off_grid_breakpoints():
    # uniform grids that miss A's breakpoint 0.333, as the simulator builds
    # them: shooting and Xi stay fourth order, while zeta and the fixed
    # point, whose step across the breakpoint keeps the midpoint piece in
    # its source term, converge at first order
    spec = replace(_coupled(_random_coupled_spec(np.random.default_rng(8), 2,
                                                 breaks=(0.5,)), 0.15),
                   A=Schedule.piecewise([(0.0, [[0.2, 0.1], [-0.1, 0.3]]),
                                         (0.333, [[-0.3, 0.2], [0.0, 0.1]])]))

    def ends(K):
        grid = uniform_grid(1.0, K)
        xi = solve_equilibrium_shooting(spec, grid).xi
        pair = solve_symmetric(spec, grid, z=xi)
        fp = fixed_point_iterate(spec, grid, tol=1e-12)
        return xi[-1], pair.gamma[0], pair.aux[0], fp.xi[-1]

    ref = ends(6000)  # holds 0.333 on grid point 1998
    errors = np.array([[np.max(np.abs(a - b)) for a, b in zip(ends(K), ref)]
                       for K in (100, 200, 400)])
    assert np.all(errors[:2, :2] < 1e-8)
    assert np.all(errors[0, :2] / errors[1, :2] >= 12.0)
    h = 1.0 / np.array([100, 200, 400])
    assert np.all(errors[:, 2:] < 1e-3 * h[:, None])
