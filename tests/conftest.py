import numpy as np
import pytest

from lqmfg.cli import bundled_config
from lqmfg.coeffs import ProblemSpec, Schedule, build_grid, load_config
from lqmfg.odecore import (IntegrationOverflow, rk4_integrate,
                           rk4_integrate_backward)


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


def rk4_by_piece(field_at, y0, grid, breakpoints=(), backward=False):
    """`rk4_integrate` (or `rk4_integrate_backward`) restarted at every
    breakpoint, each run with the field `field_at(c)` of the piece in
    force at a time c inside it; a breakpoint strictly inside a grid step
    splits that step into runs of its own.  Returns the path on the grid;
    an overflow is re-raised with the grid index and the path so far."""
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
            seg = integrate(field_at((run[0] + run[1]) / 2.0), y, run)
        except IntegrationOverflow as exc:
            path[at[on]] = exc.path[on]
            raise IntegrationOverflow(int(at[exc.index]), path,
                                      exc.direction) from None
        path[at[on]] = seg[on]
        y = seg[0] if backward else seg[-1]
    return path


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


def random_classical_spec(rng: np.random.Generator, n_max: int = 4) -> ProblemSpec:
    """Random classical-LQ reduction: Abar = 0 and Qbar = 0, PSD weights,
    R positive definite.  The equilibrium system then coincides with the
    standard control problem."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, n + 1))

    def psd(k, scale=1.0, floor=0.0):
        W = rng.normal(size=(k, k))
        return scale * (W @ W.T) / k + floor * np.eye(k)

    const = Schedule.constant
    zeros = np.zeros((n, n))
    return ProblemSpec(
        n=n, m=m, T=float(rng.uniform(0.4, 1.2)),
        A=const(rng.normal(scale=0.5, size=(n, n))),
        Abar=const(zeros),
        B=const(rng.normal(scale=0.8, size=(n, m))),
        sigma=const(0.2 * np.eye(n)),
        Q=const(psd(n, floor=0.05)),
        Qbar=const(zeros),
        R=const(psd(m, scale=0.5, floor=0.5)),
        S=const(rng.normal(scale=0.5, size=(n, n))),
        QT=psd(n), QbarT=zeros, ST=np.eye(n),
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
