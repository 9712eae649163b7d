import numpy as np
import pytest

from lqmfg.cli import bundled_config
from lqmfg.coeffs import (ProblemSpec, Schedule, build_grid,
                          check_uniform_grid, load_config)
from lqmfg.odecore import IntegrationOverflow


@pytest.fixture(scope="session")
def spec_ex1() -> ProblemSpec:
    return load_config(bundled_config("counterexample_2d_1"))


@pytest.fixture(scope="session")
def spec_ex2() -> ProblemSpec:
    return load_config(bundled_config("counterexample_2d_2"))


@pytest.fixture(scope="session")
def spec_classical() -> ProblemSpec:
    return load_config(bundled_config("classical_lq"))


@pytest.fixture(scope="session")
def spec_benchmark() -> ProblemSpec:
    return load_config(bundled_config("benchmark_scalar"))


def rk4_integrate(field, y0, grid, max_abs: float | None = None) -> np.ndarray:
    """Classical 4th-order Runge-Kutta on a uniform grid, by four field
    calls per step: the field-call oracle of the package's RK4 forms.

    field(t, y) evaluates the right-hand side at t, t+h/2 and t+h (restart
    at coefficient breakpoints to keep fourth order).  Returns the path with
    shape (len(grid), *y0.shape).
    Raises IntegrationOverflow on non-finite values (or |y| > max_abs if set).
    """
    grid = np.asarray(grid, dtype=float)
    check_uniform_grid(grid)
    y = np.asarray(y0, dtype=float)
    out = np.full((grid.size,) + y.shape, np.nan)
    out[0] = y
    limit = np.inf if max_abs is None else max_abs
    for k in range(grid.size - 1):
        t = grid[k]
        h = grid[k + 1] - grid[k]
        k1 = field(t, y)
        k2 = field(t + h / 2.0, y + (h / 2.0) * k1)
        k3 = field(t + h / 2.0, y + (h / 2.0) * k2)
        k4 = field(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = y
        if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > limit:
            raise IntegrationOverflow(k + 1, out)
    return out


def rk4_integrate_backward(field, yT, grid, max_abs: float | None = None) -> np.ndarray:
    """Integrate dy/dt = field(t, y) backward from y(T) = yT.

    Substitutes tau = T - t and runs forward RK4; the returned path is
    aligned with the original grid (path[k] = y(grid[k])).
    """
    grid = np.asarray(grid, dtype=float)
    T = grid[-1]
    try:
        rev = rk4_integrate(lambda tau, y: -field(T - tau, y), yT,
                            T - grid[::-1], max_abs=max_abs)
    except IntegrationOverflow as exc:
        raise IntegrationOverflow(grid.size - 1 - exc.index,
                                  exc.path[::-1].copy(),
                                  direction="backward") from None
    return rev[::-1].copy()


def stage_reader(stages, backward: bool = False):
    """Zero-argument callable handing out per-step stage values, shape
    (K, 3, ...), in the order a field-call RK4 evaluates them: t_k, the
    midpoint twice, then t_{k+1}, step after step (steps and stages
    reversed when integrating backward).  A field reading it sees each
    step's own sources, as the RK4 step maps do."""
    s = np.asarray(stages, dtype=float)
    if backward:
        s = s[::-1, ::-1]
    calls = iter(s[:, [0, 1, 1, 2]].reshape((-1,) + s.shape[2:]))
    return lambda: next(calls)


def rk4_by_piece(field_at, y0, grid, breakpoints=(), backward=False,
                 max_abs=None):
    """`rk4_integrate` (or `rk4_integrate_backward`) restarted at every
    breakpoint, each run with the field `field_at(c)` of the piece in
    force at a time c inside it; a breakpoint strictly inside a grid step
    splits that step into runs of its own.  Returns the path on the grid;
    an overflow (a non-finite value, or |y| > max_abs if set) is re-raised
    with the grid index and the path so far."""
    grid = np.asarray(grid, dtype=float)
    tol = 1e-9 * max(grid[-1], 1.0)
    runs, split = [[grid[0]]], False
    for a, b in zip(grid[:-1], grid[1:]):
        inside = sorted(c for c in breakpoints if a + tol < c < b - tol)
        if len(runs[-1]) > 1 and (inside or split or any(
                abs(c - a) <= tol for c in breakpoints)):
            runs.append([a])
        for c in inside:
            runs[-1].append(c)
            runs.append([c])
        runs[-1].append(b)
        split = bool(inside)
    integrate = rk4_integrate_backward if backward else rk4_integrate
    y = np.asarray(y0, dtype=float)
    path = np.full((grid.size,) + y.shape, np.nan)
    path[-1 if backward else 0] = y
    for run in runs[::-1] if backward else runs:
        run = np.array(run)
        at = np.minimum(np.searchsorted(grid, run), grid.size - 1)
        on = grid[at] == run
        try:
            seg = integrate(field_at((run[0] + run[1]) / 2.0), y, run,
                            max_abs=max_abs)
        except IntegrationOverflow as exc:
            path[at[on]] = exc.path[on]
            raise IntegrationOverflow(int(at[exc.index]), path,
                                      exc.direction) from None
        path[at[on]] = seg[on]
        y = seg[0] if backward else seg[-1]
    return path


def fundamental_solution(A: Schedule, s: float, grid) -> np.ndarray:
    """Samples phi(t, s) on the grid of the solution of dphi/dt = A_t phi,
    phi(s, s) = I, anchored at the grid point s: `rk4_by_piece` forward
    from s to T and backward from s to 0, by field calls."""
    grid = np.asarray(grid, dtype=float)
    idx = int(np.argmin(np.abs(grid - s)))
    eye = np.eye(A.shape[0])
    samples = np.empty((grid.size,) + eye.shape)
    samples[idx] = eye
    for part, backward in ((slice(idx, None), False),
                           (slice(None, idx + 1), True)):
        if grid[part].size > 1:
            samples[part] = rk4_by_piece(
                lambda c: (lambda t, y, P=A.at(c): P @ y), eye, grid[part],
                A.breakpoints, backward)
    return samples


def scalar_spec(a=0.0, abar=0.0, b=1.0, sigma=0.0, q=1.0, qbar=0.0, r=1.0,
                s=0.0, qT=0.0, qbarT=0.0, sT=0.0, T=1.0, x0=1.0,
                delta=1e-6) -> ProblemSpec:
    """Scalar problem from plain numbers; saves boilerplate in tests."""
    c = lambda v: Schedule.constant(np.array([[float(v)]]))
    return ProblemSpec(n=1, m=1, T=T, A=c(a), Abar=c(abar), B=c(b),
                       sigma=c(sigma), Q=c(q), Qbar=c(qbar), R=c(r), S=c(s),
                       QT=np.array([[float(qT)]]),
                       QbarT=np.array([[float(qbarT)]]),
                       ST=np.array([[float(sT)]]),
                       x0_mean=np.array([float(x0)]), delta=delta)


def psd(rng, k, scale=1.0, floor=0.0):
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
        Q=piecewise(lambda: psd(rng, n, floor=0.5)),
        Qbar=piecewise(lambda: psd(rng, n, scale=0.1)),
        R=c(psd(rng, n, scale=0.5, floor=0.5)),
        S=c(float(rng.uniform(0.0, 1.0)) * np.eye(n)),
        QT=psd(rng, n, scale=0.5), QbarT=np.zeros((n, n)), ST=np.eye(n),
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
        Q=c(psd(rng, n, floor=0.05)), Qbar=c(zeros),
        R=c(psd(rng, m, scale=0.5, floor=0.5)),
        S=c(rng.normal(scale=0.5, size=(n, n))),
        QT=psd(rng, n), QbarT=zeros, ST=np.eye(n),
        x0_mean=rng.normal(size=n), delta=0.25)


def random_classical_spec(rng: np.random.Generator, n_max: int = 4) -> ProblemSpec:
    """Random classical-LQ reduction: Abar = 0 and Qbar = 0, PSD weights,
    R positive definite.  The equilibrium system then coincides with the
    standard control problem."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, n + 1))
    const = Schedule.constant
    zeros = np.zeros((n, n))
    return ProblemSpec(
        n=n, m=m, T=float(rng.uniform(0.4, 1.2)),
        A=const(rng.normal(scale=0.5, size=(n, n))),
        Abar=const(zeros),
        B=const(rng.normal(scale=0.8, size=(n, m))),
        sigma=const(0.2 * np.eye(n)),
        Q=const(psd(rng, n, floor=0.05)),
        Qbar=const(zeros),
        R=const(psd(rng, m, scale=0.5, floor=0.5)),
        S=const(rng.normal(scale=0.5, size=(n, n))),
        QT=psd(rng, n), QbarT=zeros, ST=np.eye(n),
        x0_mean=rng.normal(size=n), delta=0.25)


def random_contractive_scalar_spec(rng: np.random.Generator) -> ProblemSpec:
    """Random scalar spec, with the mean-field coefficients shrunk until
    the contraction condition holds."""
    from lqmfg.conditions import compute_mainthm_norms

    abar = float(rng.uniform(-0.8, 0.8))
    qbar = float(rng.uniform(0.0, 0.8))
    kwargs = dict(
        a=float(rng.uniform(-1.0, 1.0)),
        b=float(rng.uniform(0.5, 1.5)),
        q=float(rng.uniform(0.5, 2.0)),
        r=float(rng.uniform(0.5, 2.0)),
        s=float(rng.uniform(0.0, 1.5)),
        qT=float(rng.uniform(0.0, 1.0)),
        T=float(rng.uniform(0.4, 1.2)),
        x0=float(rng.uniform(-2.0, 2.0)),
        sT=1.0, qbarT=0.0, sigma=0.3, delta=0.25)
    for _ in range(40):
        spec = scalar_spec(abar=abar, qbar=qbar, **kwargs)
        report = compute_mainthm_norms(spec, build_grid(spec, 160))
        verdict = report.verdicts["mainthm"]
        if verdict.status == "satisfied":
            return spec
        abar *= 0.6
        qbar *= 0.6
    raise AssertionError("could not shrink the problem into the contraction "
                         "regime")
