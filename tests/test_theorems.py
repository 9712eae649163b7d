"""Predictions of the paper's theorems, checked across the solvers on
generated specs rather than on examples.

The specs come from test-local copies of the benchmark generator's recipes
(weak mean-field coupling, scalar or 2-d piecewise, and the classical-LQ
reduction), with the horizon a parameter.  Each property is a plain
function of a seed, so a larger draw budget can run it outside the suite;
the hypothesis budgets here keep the suite fast.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lqmfg.coeffs import ProblemSpec, Schedule, build_grid
from lqmfg.conditions import check_riccati_solvable, compute_mainthm_norms
from lqmfg.fbsolver import (existence_scan, fixed_point_iterate,
                            solve_equilibrium_shooting)
from lqmfg.mftype import solve_mftype_mean
from lqmfg.riccati import (solve_nonsymmetric_direct,
                           solve_nonsymmetric_radon, solve_symmetric)

SEEDS = st.integers(0, 2**32 - 1)
HORIZONS = st.sampled_from([1.0, 3.0, 6.0])
BREAKS = st.integers(0, 3)  # 0: scalar and constant, else 2-d piecewise


def _psd(rng, k, scale=1.0, floor=0.0):
    W = rng.normal(size=(k, k))
    return scale * (W @ W.T) / k + floor * np.eye(k)


def contraction_spec(rng, T: float, breaks: int) -> ProblemSpec:
    """Weak mean-field coupling on [0, T]: scalar and constant for
    breaks = 0, else 2-d with A, Q and Qbar each switching `breaks` times
    at points of the 200-step grid."""
    c = Schedule.constant
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

    def piecewise(draw):
        at = rng.choice(np.arange(25, 175), size=breaks, replace=False)
        return Schedule.piecewise([(t, draw()) for t in
                                   [0.0, *(T * np.sort(at) / 200)]])

    return ProblemSpec(
        n=n, m=n, T=T,
        A=piecewise(lambda: rng.normal(scale=0.5, size=(n, n))),
        Abar=c(rng.normal(scale=0.1, size=(n, n))),
        B=c(np.eye(n) + rng.normal(scale=0.2, size=(n, n))),
        sigma=c(0.2 * np.eye(n)),
        Q=piecewise(lambda: _psd(rng, n, floor=0.5)),
        Qbar=piecewise(lambda: _psd(rng, n, scale=0.1)),
        R=c(_psd(rng, n, scale=0.5, floor=0.5)),
        S=c(float(rng.uniform(0.0, 1.0)) * np.eye(n)),
        QT=_psd(rng, n, scale=0.5), QbarT=np.zeros((n, n)), ST=np.eye(n),
        x0_mean=rng.normal(size=n), delta=0.25)


def classical_spec(rng, n: int) -> ProblemSpec:
    """The classical-LQ reduction: Abar = 0, Qbar = QbarT = 0."""
    m = int(rng.integers(1, n + 1))
    c = Schedule.constant
    zeros = np.zeros((n, n))
    return ProblemSpec(
        n=n, m=m, T=float(rng.uniform(0.4, 1.2)),
        A=c(rng.normal(scale=0.5, size=(n, n))), Abar=c(zeros),
        B=c(rng.normal(scale=0.8, size=(n, m))), sigma=c(0.2 * np.eye(n)),
        Q=c(_psd(rng, n, floor=0.05)), Qbar=c(zeros),
        R=c(_psd(rng, m, scale=0.5, floor=0.5)),
        S=c(rng.normal(scale=0.5, size=(n, n))),
        QT=_psd(rng, n), QbarT=zeros, ST=np.eye(n),
        x0_mean=rng.normal(size=n), delta=0.25)


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
    equation, so it agrees only to its step error (up to about 2e-7 at
    200 steps)."""
    spec = classical_spec(np.random.default_rng(seed), n)
    grid = build_grid(spec, 200)
    xi_path = solve_symmetric(spec, grid).gamma
    scale = max(float(np.max(np.abs(xi_path))), 1.0)
    for route, tol in ((solve_nonsymmetric_radon, 1e-10),
                       (solve_nonsymmetric_direct, 1e-6)):
        gamma = route(spec, grid).gamma
        assert np.max(np.abs(gamma - xi_path)) <= tol * scale
    assert compute_mainthm_norms(spec, grid).mainthm_lhs == 0.0
    ybar = solve_mftype_mean(spec, grid).ybar
    xi = solve_equilibrium_shooting(spec, grid).xi
    assert np.array_equal(ybar, xi)


def scalar_scan_has_no_bracket(seed: int):
    """P5: for n = 1 the equilibrium exists at every horizon, so the det
    Phi22 scan up to T = 40 finds no sign change."""
    spec = contraction_spec(np.random.default_rng(seed), 1.0, 0)
    assert existence_scan(spec, 40.0, 4000).sign_change_brackets == []


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
