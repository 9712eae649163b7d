import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.linalg import expm

from conftest import (rk4_by_piece, rk4_integrate, rk4_integrate_backward,
                      stage_reader)
from lqmfg.coeffs import Schedule, uniform_grid
from lqmfg.fbsolver import equilibrium_system, solve_equilibrium_shooting
from lqmfg.odecore import (IntegrationOverflow, _boundary_rows,
                           _compose_prefix, _midpoints, _rk4_linear,
                           _step_maps, _sweep, inv_sqrt, psd_sqrt,
                           spectral_norm, spectral_norms)
from lqmfg.riccati import solve_nonsymmetric_radon


def test_rk4_zero_field_is_constant():
    path = rk4_integrate(lambda t, y: 0.0 * y, np.array([3.0, -1.0]),
                         uniform_grid(1.0, 50))
    assert np.all(path == np.array([3.0, -1.0]))


def test_rk4_scalar_exponential():
    path = rk4_integrate(lambda t, y: y, np.array([1.0]), uniform_grid(1.0, 100))
    assert abs(path[-1, 0] - np.e) < 1e-8


def test_rk4_rotation_against_sine_cosine():
    # dy/dt = [[0,1],[-1,0]] y with y0 = (1, 0): y(t) = (cos t, sin t)... with
    # this sign convention y = (cos t, -sin t); check against the closed form.
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    grid = uniform_grid(1.0, 200)
    path = rk4_integrate(lambda t, y: J @ y, np.array([1.0, 0.0]), grid)
    exact = np.stack([np.cos(grid), -np.sin(grid)], axis=1)
    assert np.max(np.abs(path - exact)) < 1e-8
    norms = np.linalg.norm(path, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-8


def test_rk4_order_factor():
    # halving the step divides the endpoint error by about 2^4
    def endpoint_error(K):
        path = rk4_integrate(lambda t, y: y, np.array([1.0]),
                             uniform_grid(1.0, K))
        return abs(path[-1, 0] - np.e)

    factor = endpoint_error(100) / endpoint_error(200)
    assert 14.0 <= factor <= 18.0


def test_rk4_backward_inverts_forward():
    grid = uniform_grid(1.0, 100)
    back = rk4_integrate_backward(lambda t, y: y, np.array([np.e]), grid)
    assert abs(back[0, 0] - 1.0) < 1e-8
    assert abs(back[-1, 0] - np.e) == 0.0


def test_rk4_rejects_nonuniform_grid():
    with pytest.raises(ValueError, match="uniform"):
        rk4_integrate(lambda t, y: y, np.array([1.0]),
                      np.array([0.0, 0.1, 0.3]))


def test_rk4_overflow_reports_first_bad_index():
    # dy/dt = y^2 from y(0)=1 escapes at t=1
    grid = uniform_grid(2.0, 100)
    with pytest.raises(IntegrationOverflow) as exc:
        rk4_integrate(lambda t, y: y * y, np.array([1.0]), grid, max_abs=1e6)
    assert 0 < exc.value.index <= 100
    assert np.all(np.isnan(exc.value.path[exc.value.index + 1:]))


@st.composite
def linear_problems(draw, off_grid=True):
    """A piecewise M (n in 1..3) with breakpoints on grid points, at a
    step end t_k + h as RK4 computes it and, with off_grid, inside a step;
    a grid, a vector or matrix start value and per-step stage sources."""
    n = draw(st.sampled_from([1, 2, 3]))
    K = draw(st.integers(4, 24))
    grid = uniform_grid(draw(st.sampled_from([0.3, 1.0, 1.7])), K)
    starts = {0.0}
    kinds = ["on", "off", "end"] if off_grid else ["on", "end"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=3)):
        k = draw(st.integers(1, K - 1))
        h = grid[k] - grid[k - 1]
        if kind == "on":
            starts.add(float(grid[k]))
        elif kind == "off":
            starts.add(float(grid[k - 1] + draw(st.floats(0.05, 0.95)) * h))
        else:
            starts.add(float(grid[k - 1] + h))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = Schedule.piecewise([(t, rng.normal(size=(n, n)))
                            for t in sorted(starts)])
    cols = draw(st.sampled_from([None, 1, 3]))
    y0 = rng.normal(size=(n,) if cols is None else (n, cols))
    source = rng.normal(size=(K, 3) + y0.shape)
    return M, grid, y0, source


def _oracle(M, grid, y0, source=None):
    """RK4 by field calls, restarted at every breakpoint of M."""
    read = (lambda: 0.0) if source is None else stage_reader(source)
    return rk4_by_piece(lambda c: (lambda t, y, P=M.at(c): P @ y + read()),
                        y0, grid, M.breakpoints)


def _assert_close(path, reference):
    assert path.shape == reference.shape
    scale = max(float(np.max(np.abs(reference))), 1.0)
    assert float(np.max(np.abs(path - reference))) <= 1e-12 * scale


@settings(max_examples=60, deadline=None, database=None)
@given(st.data(), st.booleans())
def test_linear_propagator_matches_rk4(data, with_source):
    M, grid, y0, source = data.draw(linear_problems(off_grid=not with_source))
    source = source if with_source else None
    _assert_close(_rk4_linear(M, y0, grid, source),
                  _oracle(M, grid, y0, source))


@pytest.mark.parametrize("backward", [False, True])
def test_step_maps_source_across_an_off_grid_breakpoint(backward):
    # step 5 of 10 on [0, 1] holds the breakpoint 0.53: its E is the
    # unsourced one (the sub-step product), its f that of the piece at its
    # midpoint 0.55, as on every other step
    M = Schedule.piecewise([(0.0, [[1.0]]), (0.53, [[2.0]])])
    grid = uniform_grid(1.0, 10)
    source = np.random.default_rng(5).normal(size=(10, 3, 1))
    E, f = _step_maps(M, grid, source, backward)
    assert np.array_equal(E, _step_maps(M, grid, backward=backward)[0])
    late = slice(None, 5) if backward else slice(5, None)
    early = slice(5, None) if backward else slice(None, 5)
    for piece, steps in [(1.0, early), (2.0, late)]:
        _, f_piece = _step_maps(Schedule.constant([[piece]]), grid, source,
                                backward)
        assert np.array_equal(f[steps], f_piece[steps])


@settings(max_examples=30, deadline=None, database=None)
@given(linear_problems())
def test_linear_propagator_left_multiplied_form(problem):
    # Radon's rows C Phi(T, t_k), composed from the reversed transposes of
    # the forward step maps, against dPsi/dt = -Psi M, Psi(T) = C
    M, grid, y0, _ = problem
    C = y0.reshape(M.shape[0], -1).T
    reference = rk4_by_piece(lambda c: (lambda t, P, A=M.at(c): -P @ A),
                             C, grid, M.breakpoints, backward=True)
    _assert_close(_boundary_rows(M, C, grid), reference)


@settings(max_examples=40, deadline=None, database=None)
@given(linear_problems(off_grid=False), st.data())
def test_linear_propagator_overflow_index_matches_rk4(problem, data):
    M, grid, y0, source = problem
    k = data.draw(st.integers(0, source.shape[0] - 1))
    j = data.draw(st.integers(0, 2))
    source[k, j] = data.draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    with np.errstate(all="ignore"):
        with pytest.raises(IntegrationOverflow) as ref:
            _oracle(M, grid, y0, source)
        with pytest.raises(IntegrationOverflow) as new:
            _rk4_linear(M, y0, grid, source)
    index = new.value.index
    assert index == ref.value.index
    assert new.value.direction == ref.value.direction == "forward"
    assert np.all(np.isnan(new.value.path[index + 1:]))
    finite = np.isfinite(ref.value.path)
    assert np.array_equal(np.isfinite(new.value.path), finite)
    _assert_close(new.value.path[finite], ref.value.path[finite])


def _taylor4(A):
    """The RK4 step map of y' = A y over one step: exp(A) to 4th order."""
    eye = np.eye(A.shape[0])
    return eye + A @ (eye + A @ (eye + A @ (eye + A / 4.0) / 3.0) / 2.0)


@pytest.mark.parametrize("backward", [False, True])
def test_step_maps_split_a_step_at_two_inner_breakpoints(backward):
    # the middle step of [0, 0.3] holds breakpoints at 0.13 and 0.17:
    # its map is the product of the three sub-step maps, each the 4th
    # order Taylor polynomial of the exact exp of its piece
    rng = np.random.default_rng(11)
    P = [rng.normal(size=(3, 3)) for _ in range(3)]
    M = Schedule.piecewise(zip([0.0, 0.13, 0.17], P))
    grid = uniform_grid(0.3, 3)
    E, _ = _step_maps(M, grid, backward=backward)
    sign = -1.0 if backward else 1.0
    subs = [(P[0], 0.03), (P[1], 0.04), (P[2], 0.03)]
    if backward:
        subs.reverse()
    taylor, exact = np.eye(3), np.eye(3)
    for A, tau in subs:
        taylor = _taylor4(sign * tau * A) @ taylor
        exact = expm(sign * tau * A) @ exact
    assert np.max(np.abs(E[1] - taylor)) < 1e-14
    assert np.max(np.abs(E[1] - exact)) < 1e-6
    for k, A in [(0, P[0]), (2, P[2])]:
        j = 2 - k if backward else k
        assert np.max(np.abs(E[j] - _taylor4(sign * 0.1 * A))) < 1e-14


def test_fundamental_solution_off_grid_breakpoints_fourth_order():
    # two breakpoints inside one step of every grid; phi(1, 0) against
    # the exact product of piece exponentials
    rng = np.random.default_rng(12)
    P = [rng.normal(scale=0.8, size=(2, 2)) for _ in range(3)]
    starts = [0.0, 0.4005, 0.402]
    M = Schedule.piecewise(zip(starts, P))
    exact = (expm(0.598 * P[2])
             @ expm(0.0015 * P[1])
             @ expm(0.4005 * P[0]))
    errors = [np.max(np.abs(_rk4_linear(
        M, np.eye(2), uniform_grid(1.0, K))[-1] - exact))
              for K in (50, 100, 200, 400)]
    assert errors[0] < 1e-6
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 12.0


@pytest.mark.parametrize("name", ["spec_ex1", "spec_ex2", "spec_classical"])
def test_sweep_forward_pass_matches_shooting_and_radon(name, request):
    # nonsymmetric n = 2 Gamma and its forward pass xi_{k+1} =
    # W1_k^-1 xi_k against shooting's xi and Radon's Gamma; on
    # counterexample_2d_2 Gamma nears a pole (|Gamma| ~ 2e3), so Gamma is
    # compared relative to its size
    spec = request.getfixturevalue(name)
    assert spec.n == 2
    grid = uniform_grid(spec.T, 1000)
    M, GT = equilibrium_system(spec)
    Gamma, zeta, x = _sweep(M, GT, grid, x0=spec.x0_mean)
    assert zeta is None
    shoot = solve_equilibrium_shooting(spec, grid)
    assert np.max(np.abs(x - shoot.xi)) < 1e-10
    radon = solve_nonsymmetric_radon(spec, grid)
    scale = 1.0 + np.max(np.abs(Gamma))
    assert np.max(np.abs(Gamma - radon.gamma)) < 1e-10 * scale


@pytest.mark.parametrize("K", [1, 2, 3, 5, 17, 1000])
@pytest.mark.parametrize("batch", [(), (3,), (2, 2)])
@pytest.mark.parametrize("with_offsets", [False, True])
def test_compose_prefix_matches_sequential_composition(K, batch,
                                                       with_offsets):
    rng = np.random.default_rng(K)
    d, c = 3, 2
    # maps near the identity, as RK4 steps are, so K = 1000 stays finite
    E = np.eye(d) + rng.normal(scale=0.05, size=batch + (K, d, d))
    f = rng.normal(size=batch + (K, d, c)) if with_offsets else None
    P, g = _compose_prefix(E, f)
    P_ref = np.empty_like(E)
    g_ref = np.zeros(batch + (K, d, c))
    run = np.broadcast_to(np.eye(d), batch + (d, d))
    offset = np.zeros(batch + (d, c))
    for k in range(K):
        run = E[..., k, :, :] @ run
        P_ref[..., k, :, :] = run
        if f is not None:
            offset = E[..., k, :, :] @ offset + f[..., k, :, :]
            g_ref[..., k, :, :] = offset
    assert P.shape == E.shape
    assert np.max(np.abs(P - P_ref)) <= 1e-12 * np.max(np.abs(P_ref))
    if f is None:
        assert g is None
    else:
        assert g.shape == f.shape
        assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))


def _sweep_per_step(M, GT, grid, source=None, cT=None, x0=None):
    """The backward Riccati sweep one step map at a time: the reference
    for `_sweep`, which composes the maps."""
    n, K = GT.shape[0], grid.size - 1
    maps, shifts = _step_maps(M, grid, source, backward=True)
    Gamma = np.empty((K + 1, n, n))
    Gamma[K] = GT
    zeta = np.zeros((K + 1, n))
    if cT is not None:
        zeta[K] = cT
    for k, Bk in zip(range(K - 1, -1, -1), maps):
        W = Bk[:, :n] + Bk[:, n:] @ Gamma[k + 1]
        Gamma[k] = np.linalg.solve(W[:n].T, W[n:].T).T
        v = Bk[:, n:] @ zeta[k + 1]
        if shifts is not None:
            v += shifts[K - 1 - k, :, 0]
        zeta[k] = v[n:] - Gamma[k] @ v[:n]
    x = None
    if x0 is not None:
        x = np.empty((K + 1, n))
        x[0] = x0
        for k, Bk in zip(range(K), maps[::-1]):
            W1 = Bk[:n, :n] + Bk[:n, n:] @ Gamma[k + 1]
            v1 = Bk[:n, n:] @ zeta[k + 1]
            if shifts is not None:
                v1 += shifts[K - 1 - k, :n, 0]
            x[k + 1] = np.linalg.solve(W1, x[k] - v1)
    return Gamma, zeta, x


def _hamiltonian(rng, n, starts):
    """A piecewise Hamiltonian system [[A, -BB*], [-Q, -A*]] with PSD BB*
    and Q, so that the Riccati sweep from a PSD terminal weight has no
    pole, switching at the given times."""
    pieces = []
    for t in starts:
        A = rng.normal(scale=0.7, size=(n, n))
        B = rng.normal(size=(n, n))
        C = rng.normal(size=(n, n))
        pieces.append((t, np.block([[A, -B @ B.T], [-C @ C.T, -A.T]])))
    return Schedule.piecewise(pieces)


@pytest.mark.parametrize("K", [1, 2, 3, 7, 16, 50, 401])
@pytest.mark.parametrize("affine", [False, True])
def test_sweep_matches_per_step_sweep(K, affine):
    # piecewise n = 2, breakpoints on a grid point (for K >= 4) and inside
    # a step; K = 1, 2, 3 leave blocks of one step, 401 is no square
    rng = np.random.default_rng(K)
    n, T = 2, 1.3
    grid = uniform_grid(T, K)
    starts = [0.0, 0.377 * T] + ([float(grid[K // 2])] if K >= 4 else [])
    M = _hamiltonian(rng, n, sorted(set(starts)))
    C = rng.normal(size=(n, n))
    GT = C @ C.T
    source = rng.normal(size=(K, 3, 2 * n)) if affine else None
    cT = rng.normal(size=n) if affine else None
    x0 = rng.normal(size=n)
    Gamma, zeta, x = _sweep(M, GT, grid, source, cT, x0)
    Gamma_ref, zeta_ref, x_ref = _sweep_per_step(M, GT, grid, source, cT, x0)
    pairs = [(Gamma, Gamma_ref), (x, x_ref)]
    if affine:
        pairs.append((zeta, zeta_ref))
    else:
        assert zeta is None
    for new, old in pairs:
        assert new.shape == old.shape
        scale = 1.0 + np.max(np.abs(old))
        assert np.max(np.abs(new - old)) <= 1e-12 * scale
    assert np.array_equal(Gamma[-1], GT)


def _phi(A, grid):
    """phi(t, t_0) of dphi/dt = A phi on the grid, by `_rk4_linear`."""
    return _rk4_linear(Schedule.constant(A), np.eye(len(A)), grid)


def test_fundamental_solution_zero_field_is_identity():
    assert np.allclose(_phi(np.zeros((2, 2)), uniform_grid(1.0, 20)),
                       np.eye(2))


def test_fundamental_solution_constant_matches_expm():
    rng = np.random.default_rng(3)
    A = rng.normal(scale=0.8, size=(3, 3))
    grid = uniform_grid(1.0, 400)
    phi = _phi(A, grid)
    for k in (100, 250, 400):
        assert np.max(np.abs(phi[k] - expm(A * grid[k]))) < 1e-8


def test_fundamental_solution_scalar_value():
    phi = _phi(np.array([[2.0]]), uniform_grid(0.5, 100))
    assert abs(phi[-1, 0, 0] - np.e) < 1e-8


def test_semigroup_property():
    rng = np.random.default_rng(5)
    A = rng.normal(scale=0.7, size=(2, 2))
    grid = uniform_grid(1.0, 200)
    phi_from_0 = _phi(A, grid)
    phi_from_mid = _phi(A, grid[100:])
    # phi(t, s) = phi(t, r) phi(r, s), s=0, r=0.5, t=1
    lhs = phi_from_0[-1]
    rhs = phi_from_mid[-1] @ phi_from_0[100]
    assert np.max(np.abs(lhs - rhs)) < 1e-7


def test_liouville_identity_random_constant():
    rng = np.random.default_rng(6)
    A = rng.normal(scale=0.6, size=(3, 3))
    grid = uniform_grid(1.0, 400)
    dets = np.linalg.det(_phi(A, grid))
    expected = np.exp(np.trace(A) * grid)
    assert np.max(np.abs(dets / expected - 1.0)) < 1e-6


def test_liouville_identity_counterexample_system(spec_ex1):
    # tr of the equilibrium block matrix is 0.4, so det Phi_t = e^{0.4 t}
    Msched, _ = equilibrium_system(spec_ex1)
    M = Msched.at(0.0)
    assert abs(np.trace(M) - 0.4) < 1e-12
    grid = uniform_grid(1.0, 500)
    dets = np.linalg.det(_phi(M, grid))
    assert np.max(np.abs(dets / np.exp(0.4 * grid) - 1.0)) < 1e-6


def test_midpoints_local_cubic():
    # exact on cubics once a run has the four samples a cubic needs
    for K in (3, 4, 7, 20):
        t = np.linspace(0.3, 1.1, K + 1)
        y = np.stack([t ** 3 - 2.0 * t, 0.5 * t ** 2 + 1.0], axis=1)
        mid = (t[:-1] + t[1:]) / 2.0
        want = np.stack([mid ** 3 - 2.0 * mid, 0.5 * mid ** 2 + 1.0], axis=1)
        assert np.max(np.abs(_midpoints(y) - want)) < 1e-13
    # short runs: the polynomial through all samples, as the not-a-knot
    # spline builds it
    rng = np.random.default_rng(3)
    for K in (1, 2, 3):
        t = np.linspace(0.0, 0.4, K + 1)
        y = rng.normal(size=(K + 1, 2))
        spline = CubicSpline(t, y, axis=0)((t[:-1] + t[1:]) / 2.0)
        assert np.max(np.abs(_midpoints(y) - spline)) < 1e-15
    # fourth order on smooth data
    errors = []
    for K in (20, 40, 80, 160):
        t = np.linspace(0.0, 2.0, K + 1)
        mid = (t[:-1] + t[1:]) / 2.0
        errors.append(np.max(np.abs(_midpoints(np.sin(3.0 * t))
                                    - np.sin(3.0 * mid))))
    assert all(coarse / fine >= 12.0
               for coarse, fine in zip(errors, errors[1:]))


def test_psd_sqrt_identity_and_diagonal():
    assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(8)
    W = rng.normal(size=(4, 4))
    M = W @ W.T
    root = psd_sqrt(M)
    assert np.max(np.abs(root @ root - M)) < 1e-9
    assert np.max(np.abs(root - root.T)) == 0.0


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(ValueError, match="not positive semidefinite"):
        psd_sqrt(np.diag([1.0, -1.0]))


def test_inv_sqrt_rejects_singular():
    with pytest.raises(ValueError, match="not positive definite"):
        inv_sqrt(np.diag([1.0, 0.0]))


def test_inv_sqrt_inverts():
    M = np.diag([4.0, 9.0])
    assert np.allclose(inv_sqrt(M), np.diag([0.5, 1.0 / 3.0]))


def test_spectral_norm_cases():
    assert spectral_norm(np.zeros((3, 2))) == 0.0
    assert abs(spectral_norm(np.diag([3.0, -5.0])) - 5.0) < 1e-12
    assert abs(spectral_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) - 2.0) < 1e-12


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (4, 4), (3, 2),
                                   (2, 1), (2, 3), (1, 4)])
def test_spectral_norms_match_svd(shape):
    # random batches over 1-4 columns and non-square shapes, entries
    # scaled from 1e-150 to 1e150, plus zero and rank-1 matrices
    rng = np.random.default_rng(sum(shape))
    P = rng.normal(size=(40, 25) + shape)
    P *= 10.0 ** rng.uniform(-150.0, 150.0, size=(40, 25, 1, 1))
    P[0, 0] = 0.0
    P[0, 1] = np.outer(rng.normal(size=shape[0]), rng.normal(size=shape[1]))
    want = np.linalg.svd(P, compute_uv=False).max(axis=-1)
    got = spectral_norms(P)
    assert got.shape == want.shape and got[0, 0] == 0.0
    assert np.all(np.abs(got - want) <= 1e-14 * want)
    assert spectral_norm(P[3, 4]) == got[3, 4]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_spectral_norms_reject_non_finite(bad):
    P = np.ones((3, 2, 2))
    P[1, 0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        spectral_norms(P)
    with pytest.raises(ValueError, match="non-finite"):
        spectral_norm(P[1])
