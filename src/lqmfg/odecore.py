"""Deterministic ODE integration and matrix utilities.

Two forms of the same classical fixed-step RK4 scheme:

* `rk4_integrate` steps any right-hand side field(t, y) by four Python
  field calls per step; the direct Gamma route and the scalar appendix
  routes use it.
* `_step_maps` builds the exact per-step maps y_{k+1} = E_k y_k + f_k of
  a linear system y' = M(t) y + s(t) with a piecewise-constant `Schedule`
  M in batched numpy.  Every linear object of the package comes from
  them: shooting, fundamental solutions and the scans, the Radon backward
  pass, |||phi||| and the symmetric Riccati pair.

Also here: fundamental solutions of dphi/dt = A_t phi, stage values,
matrix exponentials, principal PSD square roots, and spectral norms.
Backward problems are integrated by the substitution tau = T - t, so each
form has a single forward stepping loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.interpolate import CubicSpline

from .coeffs import Schedule, check_uniform_grid, sample


PSD_EIG_TOL = 1e-10   # eigenvalue slack accepted as "zero" in psd_sqrt
PD_EIG_FLOOR = 1e-12  # smallest eigenvalue admitted as positive definite


class IntegrationOverflow(RuntimeError):
    """Integration produced a non-finite or out-of-bounds value.

    ``index`` is the first grid index with a bad value, ``path`` the
    partial solution (NaN beyond the failure point).
    """

    def __init__(self, index: int, path: np.ndarray, direction: str = "forward"):
        self.index = index
        self.path = path
        self.direction = direction
        super().__init__(
            f"{direction} integration blew up at grid index {index}")


def rk4_integrate(field, y0, grid, max_abs: float | None = None) -> np.ndarray:
    """Classical 4th-order Runge-Kutta on a uniform grid.

    field(t, y) evaluates the right-hand side; piecewise-constant
    coefficients inside it are evaluated right-continuously at the stage
    points t, t+h/2, t+h.  Returns the path with shape (len(grid), *y0.shape).
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
        if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > limit:
            out[k + 1] = y
            raise IntegrationOverflow(k + 1, out)
        out[k + 1] = y
    return out


def rk4_integrate_backward(field, yT, grid, max_abs: float | None = None) -> np.ndarray:
    """Integrate dy/dt = field(t, y) backward from y(T) = yT.

    Substitutes tau = T - t and runs forward RK4; the returned path is
    aligned with the original grid (path[k] = y(grid[k])).
    """
    grid = np.asarray(grid, dtype=float)
    T = grid[-1]

    def reversed_field(tau, y):
        return -field(T - tau, y)

    try:
        rev = rk4_integrate(reversed_field, yT, T - grid[::-1], max_abs=max_abs)
    except IntegrationOverflow as exc:
        path = exc.path[::-1].copy()
        raise IntegrationOverflow(grid.size - 1 - exc.index, path,
                                  direction="backward") from None
    return rev[::-1].copy()


def _step_maps(M: Schedule, grid, source=None,
               backward: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-step maps of the RK4 scheme for y' = M(t) y + s(t) on a uniform grid.

    The scheme is `rk4_integrate` on field(t, y) = M.at(t) @ y + s(t),
    rearranged (equal up to rounding) as y_{k+1} = E_k y_k + f_k with

        E_k = I + h/6 (K1 + 2 K2 + 2 K3 + K4),   K1 = M1,
        K2 = M2 (I + h/2 K1),  K3 = M2 (I + h/2 K2),  K4 = M3 (I + h K3),

    where M1, M2, M3 are M at the stage times t_k, t_k + h/2, t_k + h (the
    floats `rk4_integrate` evaluates, looked up right-continuously), and
    f_k is the same stage algebra applied to the stage sources.  source,
    if given, holds s on stage_points(grid), shape (2K+1, d[, c]).  With
    backward=True the maps step tau = T - t as `rk4_integrate_backward`
    does: E_j, f_j take y(t_{K-j}) to y(t_{K-j-1}).  Returns E (K, d, d)
    and f (K, d, c), or None without a source.
    """
    grid = np.asarray(grid, dtype=float)
    T = grid[-1]
    taus = T - grid[::-1] if backward else grid
    check_uniform_grid(taus)
    K = taus.size - 1
    d = M.shape[0]
    h = taus[1:] - taus[:-1]
    half = h / 2.0
    stage_t = np.concatenate([taus[:-1], taus[:-1] + half, taus[:-1] + h])
    stages = sample(M, T - stage_t if backward else stage_t)
    if backward:
        stages = -stages
    M1, M2, M3 = stages.reshape(3, K, d, d)
    hk = h[:, None, None]
    hh = half[:, None, None]
    eye = np.eye(d)
    K2 = M2 @ (eye + hh * M1)
    K3 = M2 @ (eye + hh * K2)
    K4 = M3 @ (eye + hk * K3)
    E = eye + (hk / 6.0) * (M1 + 2.0 * K2 + 2.0 * K3 + K4)
    if source is None:
        return E, None
    s = np.asarray(source, dtype=float).reshape(2 * K + 1, d, -1)
    if backward:
        s = -s[::-1]
    g1 = s[0:-1:2]
    g2 = M2 @ (hh * g1) + s[1::2]
    g3 = M2 @ (hh * g2) + s[1::2]
    g4 = M3 @ (hk * g3) + s[2::2]
    return E, (hk / 6.0) * (g1 + 2.0 * g2 + 2.0 * g3 + g4)


def _rk4_linear(M: Schedule, y0, grid, source=None,
                backward: bool = False) -> np.ndarray:
    """RK4 path of y' = M(t) y + s(t) by `_step_maps`, from y(0) = y0 (or
    y(T) = y0 with backward=True); shape (K+1,) + y0.shape.  Raises
    IntegrationOverflow at the first non-finite grid value."""
    y0 = np.asarray(y0, dtype=float)
    E, f = _step_maps(M, grid, source, backward)
    K = E.shape[0]
    Y0 = y0.reshape(y0.shape[0], -1)
    out = np.empty((K + 1,) + Y0.shape)
    out[0] = Y0
    if f is None:
        for Ek, yk, yn in zip(E, out[:-1], out[1:]):
            np.matmul(Ek, yk, out=yn)
    else:
        for Ek, fk, yk, yn in zip(E, f, out[:-1], out[1:]):
            np.matmul(Ek, yk, out=yn)
            yn += fk

    path = out.reshape((K + 1,) + y0.shape)
    bad = ~np.isfinite(out[1:].reshape(K, -1)).all(axis=1)
    if bad.any():
        index = int(np.argmax(bad)) + 1
        path[index + 1:] = np.nan
        if backward:
            raise IntegrationOverflow(K - index, path[::-1].copy(),
                                      direction="backward")
        raise IntegrationOverflow(index, path)
    return path[::-1].copy() if backward else path


def stage_points(grid: np.ndarray) -> np.ndarray:
    """Grid points interleaved with midpoints: every time RK4 stages touch."""
    grid = np.asarray(grid, dtype=float)
    return np.linspace(grid[0], grid[-1], 2 * (grid.size - 1) + 1)


def stage_values(grid: np.ndarray, values) -> np.ndarray:
    """Cubic-spline values on stage_points(grid) of a path sampled on grid."""
    return CubicSpline(grid, values, axis=0)(stage_points(grid))


class StageSampled:
    """Callable t -> value backed by samples on the RK4 stage points.

    Avoids per-stage interpolator calls inside integration loops; t must
    be one of the stage points (nearest lookup, exact on stage points).
    """

    def __init__(self, grid: np.ndarray, values: np.ndarray):
        self._t0 = float(grid[0])
        self._h2 = (grid[1] - grid[0]) / 2.0
        self._values = values

    def __call__(self, t: float) -> np.ndarray:
        j = int(round((t - self._t0) / self._h2))
        return self._values[min(max(j, 0), len(self._values) - 1)]


@dataclass(frozen=True)
class FundamentalSolution:
    """Samples of phi(t, s), the solution of dphi/dt = A_t phi, phi(s,s)=I."""

    anchor: float
    grid: np.ndarray
    samples: np.ndarray  # (len(grid), n, n)


def fundamental_solution(A, s: float, grid) -> FundamentalSolution:
    """Fundamental solution associated with A_t, anchored at grid point s.

    Integrates forward from s to T and backward from s to 0, so samples
    cover the whole grid.  A is a Schedule or a constant matrix.
    """
    grid = np.asarray(grid, dtype=float)
    if not isinstance(A, Schedule):
        A = Schedule.constant(A)
    idx = int(np.argmin(np.abs(grid - s)))
    if abs(grid[idx] - s) > 1e-9 * max(1.0, abs(grid[-1])):
        raise ValueError(f"anchor {s} is not a grid point")
    eye = np.eye(A.shape[0])
    samples = np.empty((grid.size,) + eye.shape)
    samples[idx] = eye
    if idx < grid.size - 1:
        samples[idx:] = _rk4_linear(A, eye, grid[idx:])
    if idx > 0:
        samples[:idx + 1] = _rk4_linear(A, eye, grid[:idx + 1], backward=True)
    return FundamentalSolution(float(grid[idx]), grid, samples)


def matrix_exponential(M: np.ndarray) -> np.ndarray:
    """exp(M) by scaling-and-squaring with a fixed-order Pade approximant."""
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix exponential of a non-finite matrix")
    return scipy.linalg.expm(M)


def _check_symmetric(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if M.size and float(np.max(np.abs(M - M.T))) > 1e-9:
        raise ValueError("matrix is not symmetric within 1e-9")
    return (M + M.T) / 2.0


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Principal square root of a symmetric PSD matrix via eigendecomposition."""
    M = _check_symmetric(M)
    lam, V = np.linalg.eigh(M)
    if lam.min() < -PSD_EIG_TOL:
        raise ValueError(
            f"matrix is not positive semidefinite (min eigenvalue {lam.min():.3e})")
    root = V @ np.diag(np.sqrt(np.clip(lam, 0.0, None))) @ V.T
    return (root + root.T) / 2.0


def inv_sqrt(M: np.ndarray) -> np.ndarray:
    """Inverse principal square root of a symmetric PD matrix."""
    M = _check_symmetric(M)
    lam, V = np.linalg.eigh(M)
    if lam.min() <= PD_EIG_FLOOR:
        raise ValueError(
            f"matrix is not positive definite (min eigenvalue {lam.min():.3e})")
    root = V @ np.diag(lam ** -0.5) @ V.T
    return (root + root.T) / 2.0


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value."""
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("spectral norm of a non-finite matrix")
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False).max())


def spectral_norms(batch: np.ndarray) -> np.ndarray:
    """Largest singular value along the last two axes of a stacked array."""
    return np.linalg.svd(batch, compute_uv=False).max(axis=-1)
