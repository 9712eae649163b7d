"""Predictions of the paper's theorems, checked across the solvers on
generated specs rather than on examples.

The specs come from conftest's copies of the benchmark generator's recipes
(weak mean-field coupling, scalar or 2-d piecewise, and the classical-LQ
reduction), with the horizon a parameter.  Each property is a plain
function of a seed, so a larger draw budget can run it outside the suite;
the hypothesis budgets here keep the suite fast.
"""

from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import classical_spec, contraction_spec, psd
from lqmfg.coeffs import build_grid
from lqmfg.conditions import (check_riccati_solvable, compute_L,
                              compute_mainthm_norms)
from lqmfg.fbsolver import (existence_scan, fixed_point_iterate,
                            solve_equilibrium_shooting)
from lqmfg.mftype import solve_mftype_mean
from lqmfg.riccati import (solve_nonsymmetric_direct,
                           solve_nonsymmetric_radon, solve_symmetric)
from lqmfg.simulator import SimConfig, equilibrium_law, simulate_nplayer

SEEDS = st.integers(0, 2**32 - 1)
HORIZONS = st.sampled_from([1.0, 3.0, 6.0])
BREAKS = st.integers(0, 3)  # 0: scalar and constant, else 2-d piecewise


def contraction_converges(seed: int, T: float, breaks: int) -> bool:
    """P2: where mainthm is satisfied the fixed point converges (Banach)
    and its settled ratio does not exceed the contraction lhs.  Returns
    whether mainthm was satisfied."""
    spec = contraction_spec(np.random.default_rng(seed), T, breaks)
    grid = build_grid(spec, 200)
    report = compute_mainthm_norms(spec, grid)
    if report.verdicts["mainthm"].status != "satisfied":
        return False
    fp = fixed_point_iterate(spec, grid)
    assert fp.contraction_ratio <= report.mainthm_lhs
    return True


def riccati_solvable_means_no_blow_up(seed: int, T: float,
                                      breaks: int) -> bool:
    """P3: where riccati_solvable is satisfied the direct route does not
    blow up on [0, T].  A piecewise spec's norms are taken on [0, 2T], its
    last piece extended, since the criterion asks for T < T0.  Returns
    whether it was satisfied."""
    spec = contraction_spec(np.random.default_rng(seed), T, breaks)
    T0 = None if spec.is_constant else 2.0 * spec.T
    verdict = check_riccati_solvable(spec, T0, steps=200).verdicts[
        "riccati_solvable"]
    if verdict.status != "satisfied":
        return False
    direct = solve_nonsymmetric_direct(spec, build_grid(spec, 200))
    assert direct.blow_up is None
    assert np.all(np.isfinite(direct.gamma))
    return True


def classical_reduction(seed: int, n: int):
    """P4: with Abar = 0 and Qbar = QbarT = 0, Gamma = Xi, the mainthm lhs
    is 0 and the mftype mean path is the equilibrium's.  Radon propagates
    the same linear system as Xi; the direct route is RK4 on the nonlinear
    equation, so it agrees only to its step error, held to twice its own
    Richardson estimate (16/15) max |D_200 - D_400| on the 200-step grid."""
    spec = classical_spec(np.random.default_rng(seed), n)
    grid = build_grid(spec, 200)
    xi_path = solve_symmetric(spec, grid).gamma
    scale = max(float(np.max(np.abs(xi_path))), 1.0)
    radon = solve_nonsymmetric_radon(spec, grid).gamma
    assert np.max(np.abs(radon - xi_path)) <= 1e-10 * scale
    direct = solve_nonsymmetric_direct(spec, grid).gamma
    fine = solve_nonsymmetric_direct(spec, build_grid(spec, 400)).gamma
    est = 16.0 / 15.0 * np.max(np.abs(direct - fine[::2]))
    assert np.max(np.abs(direct - xi_path)) <= 2.0 * est + 1e-10 * scale
    assert compute_mainthm_norms(spec, grid).mainthm_lhs == 0.0
    ybar = solve_mftype_mean(spec, grid).ybar
    xi = solve_equilibrium_shooting(spec, grid).xi
    assert np.array_equal(ybar, xi)


def scalar_scan_has_no_bracket(seed: int):
    """P5: for n = 1 the equilibrium exists at every horizon, so the det
    Phi22 scan up to T = 40 finds no sign change."""
    spec = contraction_spec(np.random.default_rng(seed), 1.0, 0)
    assert existence_scan(spec, 40.0, 4000).sign_change_brackets == []


def transform(spec, P):
    """The same game in the coordinates x' = P x: A, Abar, S and ST go to
    P (.) P^-1, B and sigma to P (.), the weights Q, Qbar, QT and QbarT to
    P^-T (.) P^-1, and x0 to P x0."""
    Pinv = np.linalg.inv(P)

    def similar(M):
        return P @ M @ Pinv

    def weight(M):
        return Pinv.T @ M @ Pinv

    return replace(spec, A=spec.A.map(similar), Abar=spec.Abar.map(similar),
                   B=spec.B.map(lambda M: P @ M),
                   sigma=spec.sigma.map(lambda M: P @ M),
                   S=spec.S.map(similar), Q=spec.Q.map(weight),
                   Qbar=spec.Qbar.map(weight), QT=weight(spec.QT),
                   QbarT=weight(spec.QbarT), ST=similar(spec.ST),
                   x0_mean=P @ spec.x0_mean)


def terminal_coupled_spec(rng, breaks: int):
    """A 2-d piecewise contraction spec on [0, 1] whose terminal mean-field
    weight is live: QbarT != 0 and ST nonsymmetric."""
    spec = contraction_spec(rng, 1.0, breaks)
    return replace(spec, QbarT=psd(rng, 2, scale=0.3),
                   ST=rng.normal(scale=0.5, size=(2, 2)))


def _close(a, b, tol=1e-9):
    """a = b to tol relative to the larger of 1 and max |b|."""
    return np.max(np.abs(a - b)) <= tol * max(1.0, float(np.max(np.abs(b))))


def coordinate_change_covariance(seed: int, breaks: int):
    """P6: under x' = P x for a general invertible P, x and the mftype mean
    map to P x, eta to P^-T eta, and Gamma (direct and Radon) and Xi to
    P^-T (.) P^-1; det Phi22 and the N-player costs (deterministic x0, the
    same draws) do not change."""
    rng = np.random.default_rng(seed)
    spec = terminal_coupled_spec(rng, breaks)
    P = np.eye(2) + 0.5 * rng.normal(size=(2, 2))
    while np.linalg.cond(P) > 20.0:
        P = np.eye(2) + 0.5 * rng.normal(size=(2, 2))
    Pinv = np.linalg.inv(P)
    moved = transform(spec, P)
    grid = build_grid(spec, 200)
    for route in (solve_nonsymmetric_direct, solve_nonsymmetric_radon,
                  solve_symmetric):
        assert _close(Pinv.T @ route(spec, grid).gamma @ Pinv,
                      route(moved, grid).gamma), route.__name__
    shoot, shoot_moved = (solve_equilibrium_shooting(s, grid)
                          for s in (spec, moved))
    assert _close(shoot.xi @ P.T, shoot_moved.xi)
    assert _close(shoot.eta @ Pinv, shoot_moved.eta)
    assert _close(solve_mftype_mean(spec, grid).ybar @ P.T,
                  solve_mftype_mean(moved, grid).ybar)
    assert _close(existence_scan(spec, 1.0, 200).det22,
                  existence_scan(moved, 1.0, 200).det22)
    runs = [simulate_nplayer(s, equilibrium_law(s, grid)[0], SimConfig(
        N_values=(3,), paths=1, seed=seed, dt=0.02, x0_mean=s.x0_mean,
        x0_cov=np.zeros((2, 2))), N=3) for s in (spec, moved)]
    assert _close(runs[0].states @ P.T, runs[1].states)
    assert _close(runs[0].costs, runs[1].costs)


def orthogonal_change_keeps_the_norms(seed: int, breaks: int):
    """P7: an orthogonal P keeps every spectral norm, so L and the
    mainthm lhs do not change.  (Under a general P the lhs does: a
    `mainthm: violated` verdict holds only in the given coordinates.)"""
    rng = np.random.default_rng(seed)
    spec = terminal_coupled_spec(rng, breaks)
    P = np.linalg.qr(rng.normal(size=(2, 2)))[0]
    moved = transform(spec, P)
    grid = build_grid(spec, 200)
    assert _close(compute_L(spec), compute_L(moved), 1e-12)
    lhs, lhs_moved = (compute_mainthm_norms(s, grid).mainthm_lhs
                      for s in (spec, moved))
    assert _close(lhs, lhs_moved, 1e-10)


def doubled(spec):
    """The same game twice over, uncoupled: every matrix M of the spec
    becomes diag(M, M) and x0 its tile."""
    def diag2(M):
        return np.kron(np.eye(2), M)

    return replace(spec, n=2 * spec.n, m=2 * spec.m,
                   **{name: sched.map(diag2)
                      for name, sched in spec.schedules().items()},
                   QT=diag2(spec.QT), QbarT=diag2(spec.QbarT),
                   ST=diag2(spec.ST), x0_mean=np.tile(spec.x0_mean, 2))


def block_doubling_commutes(seed: int, n: int, T: float, breaks: int):
    """P8: the direct route commutes with block-diagonal doubling.  On a
    classical spec of size n and a contraction spec, the doubled Gamma has
    the original in both diagonal blocks (1e-13 relative), exact zeros off
    them and the same blow-up index, so the float paths (n = 1, 2) and the
    matmul loop (n = 4) agree on the same equation."""
    rng = np.random.default_rng(seed)
    for spec in (classical_spec(rng, n), contraction_spec(rng, T, breaks)):
        grid = build_grid(spec, 200)
        path, big = (solve_nonsymmetric_direct(s, grid)
                     for s in (spec, doubled(spec)))
        assert big.blow_up == path.blow_up
        first = 0 if path.blow_up is None else path.blow_up + 1
        gamma, big = path.gamma[first:], big.gamma[first:]
        k = spec.n
        assert _close(big[:, :k, :k], gamma, 1e-13)
        assert _close(big[:, k:, k:], gamma, 1e-13)
        assert np.all(big[:, :k, k:] == 0.0)
        assert np.all(big[:, k:, :k] == 0.0)


@settings(max_examples=12, deadline=None, database=None)
@given(SEEDS, HORIZONS, BREAKS)
def test_mainthm_satisfied_means_the_fixed_point_contracts(seed, T, breaks):
    assume(contraction_converges(seed, T, breaks))


@settings(max_examples=12, deadline=None, database=None)
@given(SEEDS, HORIZONS, BREAKS)
def test_riccati_solvable_means_the_direct_route_does_not_blow_up(seed, T,
                                                                 breaks):
    assume(riccati_solvable_means_no_blow_up(seed, T, breaks))


@settings(max_examples=8, deadline=None, database=None)
@given(SEEDS, st.integers(1, 4))
def test_classical_reduction_collapses_the_mean_field_routes(seed, n):
    classical_reduction(seed, n)


@settings(max_examples=8, deadline=None, database=None)
@given(SEEDS)
def test_scalar_scan_finds_no_bracket_up_to_forty(seed):
    scalar_scan_has_no_bracket(seed)


@settings(max_examples=6, deadline=None, database=None)
@given(SEEDS, st.integers(1, 3))
def test_a_change_of_coordinates_maps_every_route_covariantly(seed, breaks):
    coordinate_change_covariance(seed, breaks)


@settings(max_examples=6, deadline=None, database=None)
@given(SEEDS, st.integers(1, 3))
def test_an_orthogonal_change_keeps_L_and_the_mainthm_lhs(seed, breaks):
    orthogonal_change_keeps_the_norms(seed, breaks)


@settings(max_examples=12, deadline=None, database=None)
@given(SEEDS, st.integers(1, 2), HORIZONS, BREAKS)
def test_the_direct_route_commutes_with_block_diagonal_doubling(seed, n, T,
                                                                breaks):
    block_doubling_commutes(seed, n, T, breaks)
