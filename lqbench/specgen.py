"""Seed-driven problem generators for the det_sweep workload.

Every spec is built from plain numpy draws; no solver runs here, so the
inputs do not depend on the program under test.  Horizons are free and
breakpoints sit on the 200-step grid, so both the 200- and the 800-step
grid switch coefficients exactly at grid points.
"""

from __future__ import annotations

import numpy as np

from lqmfg.coeffs import ProblemSpec, Schedule

GRID_STEPS = 800
NORM_STEPS = 200  # grid of compute_mainthm_norms; divides GRID_STEPS


def _psd(rng: np.random.Generator, k: int, scale: float = 1.0,
         floor: float = 0.0) -> np.ndarray:
    W = rng.normal(size=(k, k))
    return scale * (W @ W.T) / k + floor * np.eye(k)


def _breakpoints(rng: np.random.Generator, T: float, count: int) -> list[float]:
    """`count` distinct interior switch times on the NORM_STEPS grid."""
    idx = rng.choice(np.arange(NORM_STEPS // 8, NORM_STEPS - NORM_STEPS // 8),
                     size=count, replace=False)
    return [T * int(j) / NORM_STEPS for j in np.sort(idx)]


def _piecewise(rng, T, count, draw) -> Schedule:
    starts = [0.0] + _breakpoints(rng, T, count)
    return Schedule.piecewise([(t, draw()) for t in starts])


def classical_spec(rng: np.random.Generator, n: int) -> ProblemSpec:
    """Classical-LQ reduction (Abar = 0, Qbar = 0), constant coefficients."""
    m = int(rng.integers(1, n + 1))
    const = Schedule.constant
    zeros = np.zeros((n, n))
    return ProblemSpec(
        n=n, m=m, T=float(rng.uniform(0.4, 1.2)),
        A=const(rng.normal(scale=0.5, size=(n, n))),
        Abar=const(zeros),
        B=const(rng.normal(scale=0.8, size=(n, m))),
        sigma=const(0.2 * np.eye(n)),
        Q=const(_psd(rng, n, floor=0.05)),
        Qbar=const(zeros),
        R=const(_psd(rng, m, scale=0.5, floor=0.5)),
        S=const(rng.normal(scale=0.5, size=(n, n))),
        QT=_psd(rng, n), QbarT=zeros, ST=np.eye(n),
        x0_mean=rng.normal(size=n), delta=0.25)


def contraction_scalar_spec(rng: np.random.Generator) -> ProblemSpec:
    """Scalar constant-coefficient spec with weak mean-field coupling."""
    c = lambda v: Schedule.constant(np.array([[float(v)]]))
    return ProblemSpec(
        n=1, m=1, T=float(rng.uniform(0.4, 1.2)),
        A=c(rng.uniform(-1.0, 1.0)), Abar=c(rng.uniform(-0.3, 0.3)),
        B=c(rng.uniform(0.5, 1.5)), sigma=c(0.3),
        Q=c(rng.uniform(0.5, 2.0)), Qbar=c(rng.uniform(0.0, 0.3)),
        R=c(rng.uniform(0.5, 2.0)), S=c(rng.uniform(0.0, 1.0)),
        QT=np.array([[rng.uniform(0.0, 1.0)]]), QbarT=np.zeros((1, 1)),
        ST=np.ones((1, 1)), x0_mean=np.array([rng.uniform(-2.0, 2.0)]),
        delta=0.25)


def piecewise_2d_spec(rng: np.random.Generator, breaks: int) -> ProblemSpec:
    """2-d spec with weak mean-field coupling whose A, Q and Qbar each
    switch `breaks` times."""
    n = 2
    T = float(rng.uniform(0.4, 1.2))
    const = Schedule.constant
    return ProblemSpec(
        n=n, m=n, T=T,
        A=_piecewise(rng, T, breaks, lambda: rng.normal(scale=0.5, size=(n, n))),
        Abar=const(rng.normal(scale=0.1, size=(n, n))),
        B=const(np.eye(n) + rng.normal(scale=0.2, size=(n, n))),
        sigma=const(0.2 * np.eye(n)),
        Q=_piecewise(rng, T, breaks, lambda: _psd(rng, n, floor=0.5)),
        Qbar=_piecewise(rng, T, breaks, lambda: _psd(rng, n, scale=0.1)),
        R=const(_psd(rng, n, scale=0.5, floor=0.5)),
        S=const(float(rng.uniform(0.0, 1.0)) * np.eye(n)),
        QT=_psd(rng, n, scale=0.5), QbarT=np.zeros((n, n)), ST=np.eye(n),
        x0_mean=rng.normal(size=n), delta=0.25)
