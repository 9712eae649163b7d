"""Deterministic ODE integration and matrix utilities.

The classical fixed-step RK4 scheme as exact per-step maps:
`_step_maps` builds y_{k+1} = E_k y_k + f_k for a linear system
y' = M(t) y + s(t) with a piecewise-constant `Schedule` M in batched
numpy, one map E per run of steps on one piece (one step size per run).
Every linear object of the package comes from them: shooting,
the det Phi22 scans (Phi_t from 0), Radon's rows C Phi(T, t)
(`_boundary_rows`, from the reversed transposes of the same forward
maps), |||phi|||, and through `_sweep`
the symmetric Riccati pair and both appendix routes.  No Python loop
runs over the steps: `_run_powers` takes the powers E^1 ... E^L of each
run of equal maps by doubling, and `_replay` carries a start value
across the runs by them, composing the offsets of a run by one matrix
product per doubling level; `_propagate` applies both.  `_sweep`, whose
forward pass composes maps that differ at every step, uses the
recursive doubling of `_compose_prefix` within blocks of about sqrt(K)
steps.  `fbsolver`'s two-point solver keeps the run powers: a new
source costs its `_step_offsets` and one `_replay`.  Only the direct
nonsymmetric Gamma route, a deliberately independent cross-check, steps
its own nonlinear RK4 loop (in `riccati`).

Only `step_pieces` decides which piece of the coefficients a step reads.
Also here: z-driven sources, principal PSD square roots, and spectral
norms (from the Gram matrix, without an SVD).
The backward Riccati sweep integrates by the substitution tau = T - t,
so the maps only ever step forward.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

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


def _step_maps(M: Schedule, grid, source=None,
               backward: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-step maps of the RK4 scheme for y' = M(t) y + s(t) on a uniform grid.

    Each run of `_run_steps` reads one piece M_r of M with one step size
    h, so one classical RK4 step of field(t, y) = M_r y + s(t),
    rearranged (equal up to rounding) as y_{k+1} = E_r y_k + f_k with

        E_r = I + h/6 (K1 + 2 K2 + 2 K3 + K4),   K1 = M_r,
        K2 = M_r (I + h/2 K1),  K3 = M_r (I + h/2 K2),  K4 = M_r (I + h K3),

    formed once, serves every step of the run, and f_k is the same algebra
    on the step's sources, given as s at (t_k, t_k + h/2, t_{k+1}), shape
    (K, 3, d[, c]).  A step with a breakpoint strictly inside has E_k the
    product of its sub-step maps (f_k keeps the midpoint piece: a sourced
    solve is first order there).  With backward=True the maps step the
    negated field forward in tau = T - t: E_j, f_j take y(t_{K-j}) to
    y(t_{K-j-1}).  Returns E (K, d, d) and f (K, d, c), or None.
    """
    grid = np.asarray(grid, dtype=float)
    check_uniform_grid(grid[-1] - grid[::-1] if backward else grid)
    K = grid.size - 1
    Mk, hk, cuts = _run_steps(M, grid)
    if backward:
        Mk, hk = -Mk[::-1], hk[::-1]
        cuts = K - cuts[::-1]
    Mr, h = Mk[cuts[:-1]], hk[cuts[:-1]]
    eye = np.eye(M.shape[0])
    K2 = Mr @ (eye + h / 2.0 * Mr)
    K3 = Mr @ (eye + h / 2.0 * K2)
    K4 = Mr @ (eye + h * K3)
    E = np.repeat(eye + (h / 6.0) * (Mr + 2.0 * K2 + 2.0 * K3 + K4),
                  np.diff(cuts), axis=0)
    tol = 1e-9 * max(abs(grid[-1]), 1.0)  # the breakpoint slack of build_grid
    for b in M.breakpoints:
        k = int(np.searchsorted(grid, b)) - 1
        if 0 <= k < K and grid[k] + tol < b < grid[k + 1] - tol:
            lo, hi = (_step_maps(M, part, backward=backward)[0][0]
                      for part in ((grid[k], b), (b, grid[k + 1])))
            E[K - 1 - k if backward else k] = lo @ hi if backward else hi @ lo
    if source is None:
        return E, None
    s = np.asarray(source, dtype=float).reshape(K, 3, M.shape[0], -1)
    if backward:
        s = -s[::-1, ::-1]
    return E, _step_offsets(Mk, hk, s)


def _run_steps(M: Schedule, grid) -> tuple:
    """The piece Mk (K, d, d) each step of a uniform grid reads, its step
    size hk (K, 1, 1), one h = (t_hi - t_lo) / steps per run of steps
    between the cuts of `step_pieces`, and those cuts."""
    mid, cuts = step_pieces(M, grid)
    h = np.repeat(np.diff(grid[cuts]) / np.diff(cuts), np.diff(cuts))
    return sample(M, mid), h[:, None, None], cuts


def _step_offsets(Mk, hk, s) -> np.ndarray:
    """The offsets f_k of `_step_maps` on the pieces Mk (K, d, d) for steps
    hk (K, 1, 1), from the sources s at their stages (K, 3, d, c)."""
    hh = hk / 2.0
    g1 = s[:, 0]
    g2 = np.einsum("kij,kjc->kic", Mk, hh * g1) + s[:, 1]
    g3 = np.einsum("kij,kjc->kic", Mk, hh * g2) + s[:, 1]
    g4 = np.einsum("kij,kjc->kic", Mk, hk * g3) + s[:, 2]
    return (hk / 6.0) * (g1 + 2.0 * g2 + 2.0 * g3 + g4)


def step_pieces(M: Schedule, grid) -> tuple[np.ndarray, np.ndarray]:
    """The step midpoints of a uniform grid, where each step reads its piece
    of M, and the cuts 0 < ... < K between runs of steps on one piece."""
    mid = np.linspace(grid[0], grid[-1], 2 * grid.size - 1)[1::2]
    return mid, np.unique([0, mid.size, *np.searchsorted(mid, M.breakpoints)])


def stage_source(Dk: np.ndarray, z, cuts) -> np.ndarray:
    """D(t) z(t) at the RK4 stages (t_k, t_k + h/2, t_{k+1}) of each step,
    shape (K, 3, d): Dk the step pieces of D, z its samples at the step
    ends and `_midpoints` at the midpoint, per run between the `cuts` of
    `step_pieces` of M, the system z solves, so no cubic spans a kink."""
    zs = np.empty((len(Dk), 3) + np.shape(z)[1:])
    zs[:, 0], zs[:, 1], zs[:, 2] = z[:-1], _midpoints(z, cuts), z[1:]
    return np.einsum("kij,ksj->ksi", Dk, zs)


def _midpoints(y: np.ndarray, cuts=None) -> np.ndarray:
    """y at the step midpoints of its K + 1 uniform samples (axis 0), per
    run between `cuts` (default one run): on each step the cubic through
    the four nearest samples of its run, and on a run of K < 4 steps the
    line, parabola or cubic through all of them.  That is the mean of the
    step's ends less (d2_k + d2_{k+1}) / 16, with the second differences
    d2 of each run extrapolated linearly to its two ends."""
    cuts = (0, len(y) - 1) if cuts is None else cuts
    d2 = np.zeros_like(y)
    d2[1:-1] = y[:-2] - 2.0 * y[1:-1] + y[2:]
    left, right = d2[:-1].copy(), d2[1:].copy()  # d2 at each step's ends
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo == 1:
            left[lo] = right[lo] = 0.0
        else:
            left[lo] = 2.0 * d2[lo + 1] - d2[min(lo + 2, hi - 1)]
            right[hi - 1] = 2.0 * d2[hi - 1] - d2[max(hi - 2, lo + 1)]
    return (y[:-1] + y[1:]) / 2.0 - (left + right) / 16.0


def _compose_prefix(E: np.ndarray, f: np.ndarray | None = None):
    """Running compositions of the affine maps y -> E_k y + f_k along the
    step axis (-3): P_k = E_k ... E_0 and the offsets g_k, so that
    y_{k+1} = P_k y_0 + g_k.  Leading axes are a batch.  Recursive
    doubling: after the pass with shift s each entry composes its 2s
    latest maps, so ceil(log2 K) batched products reach every prefix.
    Returns P, shaped like E, and g, shaped like f (None without f)."""
    P = np.array(E, dtype=float)
    g = None if f is None else np.array(f, dtype=float)
    s = 1
    while s < P.shape[-3]:
        if g is not None:
            g[..., s:, :, :] += P[..., s:, :, :] @ g[..., :-s, :, :]
        P[..., s:, :, :] = P[..., s:, :, :] @ P[..., :-s, :, :]
        s *= 2
    return P, g


def _run_powers(E: np.ndarray) -> list:
    """The runs of equal consecutive maps of E (K, d, d), as triples (lo,
    hi, P) with P (hi - lo, d, d) the powers E_lo^1 ... E_lo^(hi - lo),
    by doubling on the powers: P_{s+j} = P_{s-1} P_j for j < s, the same
    products, in the same order, as `_compose_prefix` on the run."""
    new = np.flatnonzero((E[1:] != E[:-1]).any(axis=(1, 2))) + 1
    cuts = [0, *new.tolist(), len(E)]
    runs = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        P = np.empty((hi - lo,) + E.shape[1:])
        P[0] = E[lo]
        s = 1
        while s < hi - lo:
            P[s:2 * s] = P[s - 1] @ P[:min(s, hi - lo - s)]
            s *= 2
        runs.append((lo, hi, P))
    return runs


def _replay(runs: list, y0: np.ndarray, f: np.ndarray | None = None):
    """The values y_0 = y0 (d, c), y_{k+1} = E_k y_k + f_k, shape
    (K+1, d, c), from the `_run_powers` of E.  On each run the powers
    carry its start value, P_j y_lo, and the offsets f (K, d, c) of its
    steps are composed by recursive doubling on their rows, one product
    g[s:] += g[:-s] (E^s)* per level."""
    y = np.empty((runs[-1][1] + 1,) + np.shape(y0))
    y[0] = y0
    for lo, hi, P in runs:
        L, d = P.shape[:2]
        y[lo + 1:hi + 1] = (P.reshape(L * d, d) @ y[lo]).reshape(L, d, -1)
        if f is not None:
            g = np.swapaxes(f[lo:hi], 1, 2).copy()
            s = 1
            while s < L:
                g[s:] += (g[:-s].reshape(-1, d) @ P[s - 1].T).reshape(
                    L - s, -1, d)
                s *= 2
            y[lo + 1:hi + 1] += np.swapaxes(g, 1, 2)
    return y


def _rk4_linear(M: Schedule, y0, grid, source=None) -> np.ndarray:
    """RK4 path of y' = M(t) y + s(t) by `_step_maps` from y(0) = y0, shape
    (K+1,) + y0.shape: `_propagate` of the maps."""
    return _propagate(*_step_maps(M, grid, source), y0)


def _propagate(E: np.ndarray, f: np.ndarray | None, y0) -> np.ndarray:
    """The values y_0 = y0, y_{k+1} = E_k y_k + f_k, shape (K+1,) +
    y0.shape, by `_replay` of the `_run_powers` of E.  Raises
    IntegrationOverflow at the first non-finite value."""
    y0 = np.asarray(y0, dtype=float)
    K = E.shape[0]
    out = _replay(_run_powers(E), y0.reshape(y0.shape[0], -1), f)

    path = out.reshape((K + 1,) + y0.shape)
    bad = ~np.isfinite(out[1:].reshape(K, -1)).all(axis=1)
    if bad.any():
        index = int(np.argmax(bad)) + 1
        path[index + 1:] = np.nan
        raise IntegrationOverflow(index, path)
    return path


def _boundary_rows(M: Schedule, C, grid) -> np.ndarray:
    """C Phi(T,t_k) at every grid point, Phi the fundamental solution of
    y' = M(t) y: C E_{K-1} ... E_k for the forward step maps E of
    `_step_maps` (the maps shooting and the scan step), composed by
    `_compose_prefix` on their reversed transposes.  Raises
    IntegrationOverflow (direction "backward") at the last grid index
    where Phi(T,t) is not finite."""
    E = _step_maps(M, grid)[0]
    try:  # Phi(T,t_k)* at index K - k
        Phi_t = _propagate(E[::-1].transpose(0, 2, 1), None,
                           np.eye(M.shape[0]))
    except IntegrationOverflow as exc:
        raise IntegrationOverflow(len(E) - exc.index, exc.path[::-1].copy(),
                                  direction="backward") from None
    return np.einsum("ij,klj->kil", C, Phi_t[::-1])


def _sweep(M: Schedule, GT, grid, source=None, cT=None, x0=None):
    """Backward Riccati sweep of y' = M(t) y + s(t), y = (x; p), under the
    terminal condition p(T) = GT x(T) + cT.

    The backward maps y(t_k) = B_k y(t_{k+1}) + g_k of `_step_maps` carry
    the decoupling p = Gamma x + zeta from T to 0 as a linear-fractional
    (Moebius) map: with (W1; W2) = B (I; Gamma) and (v1; v2) =
    B (0; zeta) + g for the affine map y -> B y + g from a frame
    (Gamma, zeta) at a later time, Gamma = W2 W1^-1 and
    zeta = v2 - Gamma v1 at the earlier one.  The K maps are taken in
    blocks of L = floor(sqrt K) steps (the last padded with identities):
    the frame is carried across block starts one block map at a time, and
    every grid value comes from its block's start frame through the
    within-block compositions of `_compose_prefix`, never through a
    product over more than one block.  Given x0, the forward pass
    x_{k+1} = W1_k^-1 (x_k - v1_k) of the single-step maps is affine and
    is composed the same way.  source holds s at the stages of each step,
    shape (K, 3, 2n).  Returns Gamma (K+1, n, n), zeta (K+1, n) (None
    without source and cT) and x (K+1, n) (None without x0).
    """
    grid = np.asarray(grid, dtype=float)
    n, K = GT.shape[0], grid.size - 1
    maps, shifts = _step_maps(M, grid, source, backward=True)
    affine = source is not None or cT is not None
    d, L = 2 * n, math.isqrt(K)
    blocks = -(-K // L)
    pad = blocks * L - K
    E = np.concatenate([maps, np.broadcast_to(np.eye(d), (pad, d, d))])
    f = None if shifts is None else np.concatenate(
        [shifts, np.zeros((pad, d, 1))]).reshape(blocks, L, d, 1)
    P, g = _compose_prefix(E.reshape(blocks, L, d, d), f)
    Gs, zs = np.empty((blocks, n, n)), np.zeros((blocks, n))
    Gs[0] = GT
    if cT is not None:
        zs[0] = cT
    for b in range(1, blocks):
        Gs[b], zs[b] = _moebius(P[b - 1, -1], None if g is None else
                                g[b - 1, -1], Gs[b - 1], zs[b - 1])
    Gamma, zeta = _moebius(P, g, Gs[:, None], zs[:, None])
    Gamma = np.concatenate([Gamma.reshape(-1, n, n)[K - 1::-1], Gs[:1]])
    zeta = np.concatenate([zeta.reshape(-1, n)[K - 1::-1], zs[:1]])
    x = None
    if x0 is not None:
        B = maps[::-1]                  # B[k] takes y(t_{k+1}) to y(t_k)
        W1inv = np.linalg.inv(B[:, :n, :n] + B[:, :n, n:] @ Gamma[1:])
        v1 = np.einsum("kij,kj->ki", B[:, :n, n:], zeta[1:])
        if shifts is not None:
            v1 += shifts[::-1, :n, 0]
        Px, gx = _compose_prefix(W1inv, -(W1inv @ v1[..., None]))
        x = np.empty((K + 1, n))
        x[0] = x0
        x[1:] = Px @ x[0] + gx[..., 0]
    return Gamma, zeta if affine else None, x


def _moebius(P, g, Gamma, zeta):
    """The frame (Gamma, zeta) of p = Gamma x + zeta carried by the affine
    map y -> P y + g, y = (x; p), batched over leading axes:
    (W1; W2) = P (I; Gamma), (v1; v2) = P (0; zeta) + g, and the carried
    frame is W2 W1^-1 and v2 - W2 W1^-1 v1."""
    n = Gamma.shape[-1]
    W = P[..., :n] + P[..., n:] @ Gamma
    v = P[..., n:] @ zeta[..., None]
    if g is not None:
        v = v + g
    Gamma = np.linalg.solve(np.swapaxes(W[..., :n, :], -1, -2),
                            np.swapaxes(W[..., n:, :], -1, -2))
    Gamma = np.swapaxes(Gamma, -1, -2)
    return Gamma, v[..., n:, 0] - (Gamma @ v[..., :n, :])[..., 0]


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
    """Largest singular value of one matrix (0 for an empty one)."""
    return float(spectral_norms(M))


def spectral_norms(batch: np.ndarray) -> np.ndarray:
    """Largest singular value along the last two axes of a stacked array,
    as sqrt(lambda_max(P* P)) on the narrower side P of each matrix.

    With one or two columns p1, p2 the Gram entries a = |p1|^2, c = |p2|^2,
    b = p1.p2 give lambda_max = (a + c)/2 + hypot((a - c)/2, b), a sum of
    two non-negative terms; with more, the last `eigvalsh` eigenvalue of
    the Gram matrix.  Each matrix is first scaled by a power of two (exact)
    so that the Gram entries cannot overflow.  Raises ValueError on
    non-finite input, so a NaN norm never reaches a verdict.
    """
    P = np.asarray(batch, dtype=float)
    if not np.all(np.isfinite(P)):
        raise ValueError("spectral norm of a non-finite matrix")
    rows, cols = P.shape[-2:]
    if rows * cols == 0:
        return np.zeros(P.shape[:-2])
    entries = np.moveaxis(P.reshape(P.shape[:-2] + (rows * cols,)), -1, 0)
    scale = np.ldexp(1.0, np.frexp(reduce(np.maximum, np.abs(entries)))[1])
    P = P / scale[..., None, None]
    if rows < cols:
        P, cols = np.swapaxes(P, -1, -2), rows
    if cols == 1:
        lam = np.einsum("...i,...i->...", P[..., 0], P[..., 0])
    elif cols == 2:
        p1, p2 = P[..., 0], P[..., 1]
        a = np.einsum("...i,...i->...", p1, p1)
        c = np.einsum("...i,...i->...", p2, p2)
        b = np.einsum("...i,...i->...", p1, p2)
        lam = (a + c) / 2.0 + np.hypot((a - c) / 2.0, b)
    else:
        lam = np.linalg.eigvalsh(np.swapaxes(P, -1, -2) @ P)[..., -1]
    return scale * np.sqrt(np.maximum(lam, 0.0))
