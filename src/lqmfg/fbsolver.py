"""Equilibrium forward-backward ODE solver.

The mean-field equilibrium reduces to the two-point problem

    d/dt (xi; eta) = [[A+Abar, -B R^-1 B*], [-(Q+Seff), -A*]] (xi; eta),
    xi(0) = E[x0],  eta(T) = (QT + SeffT) xi(T),

with Seff = Qbar (I - S).  This module solves it by shooting on the
fundamental solution Phi_t, scans det of its lower blocks to locate
horizons where uniqueness fails, and independently solves the same
problem by the contraction iteration z -> xi of the auxiliary control
problem; all of them step the RK4 maps of `odecore`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import trapezoid

from .coeffs import (ProblemSpec, Schedule, build_grid, csv_text, sample,
                     system_blocks, uniform_grid)
from .odecore import (_rk4_linear, fundamental_solution, stage_points,
                      stage_values)

COND_LIMIT = 1e12  # boundary operators beyond this are reported singular


class SingularShootingMatrix(RuntimeError):
    """The shooting boundary operator is numerically singular.

    Signals non-uniqueness of the equilibrium at this horizon (the T0
    phenomenon), not a programming error.
    """

    def __init__(self, cond: float, message: str | None = None):
        self.cond = cond
        super().__init__(
            message or f"shooting matrix condition number {cond:.3e} exceeds "
                       f"{COND_LIMIT:.0e}")


class NoConvergence(RuntimeError):
    """Fixed-point iteration failed to converge."""

    def __init__(self, iterations: int, ratio: float, diverged: bool = False):
        self.iterations = iterations
        self.ratio = ratio
        self.diverged = diverged
        what = "diverged" if diverged else "did not converge"
        super().__init__(
            f"fixed-point iteration {what} after {iterations} iterations "
            f"(last contraction ratio {ratio:.3g})")


@dataclass
class FBSolution:
    """Paired mean paths (xi, eta) with boundary and ODE defect diagnostics."""

    grid: np.ndarray
    xi: np.ndarray    # (K+1, n)
    eta: np.ndarray   # (K+1, n)
    eta0: np.ndarray
    boundary_residual: float
    ode_residual: float
    shooting_condition: float | None = None
    iterations: int | None = None
    contraction_ratio: float | None = None


@dataclass
class ScanReport:
    """det Phi22_t and det Phi21_t over a horizon scan, with sign brackets."""

    grid: np.ndarray
    det22: np.ndarray
    det21: np.ndarray
    sign_change_brackets: list[tuple[float, float]]


def equilibrium_system(spec: ProblemSpec) -> tuple[Schedule, np.ndarray]:
    """The 2n x 2n piecewise-constant system matrix of the forward form
    and the terminal boundary weight QT + SeffT."""
    blocks = system_blocks(spec)
    M = Schedule.combine(
        lambda A, Abar, BRB, QS: np.block([[A + Abar, -BRB], [-QS, -A.T]]),
        spec.A, spec.Abar, blocks.BRB, blocks.QS)
    return M, blocks.GT


def shoot_affine_tpbvp(M: Schedule, source, x0, GT, cT, grid):
    """Shooting solve of d/dt (x; p) = M(t)(x; p) + source(t) with
    x(0) = x0 and terminal condition p(T) = GT x(T) + cT.

    source is None or the source's values on stage_points(grid), shape
    (2K+1, 2n).  One forward RK4 pass integrates the particular solution
    and the n homogeneous columns seeded by p(0) = e_i; the terminal
    condition then determines p(0) from an n x n linear system.  Returns
    (x path, p path, p0, condition number of the boundary operator).
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    n = x0.size
    Y0 = np.zeros((2 * n, n + 1))
    Y0[:n, 0] = x0
    Y0[n:, 1:] = np.eye(n)
    if source is not None:
        # the source drives the particular column only
        source_cols = np.zeros((len(source),) + Y0.shape)
        source_cols[:, :, 0] = source
        source = source_cols

    path = _rk4_linear(M, Y0, grid, source)
    YT = path[-1]
    C = np.hstack([GT, -np.eye(n)])
    N = C @ YT[:, 1:]
    cond = float(np.linalg.cond(N))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularShootingMatrix(cond)
    rhs = -(C @ YT[:, 0]) - np.asarray(cT, dtype=float).reshape(-1)
    p0 = np.linalg.solve(N, rhs)
    w = path[:, :, 0] + path[:, :, 1:] @ p0
    return w[:, :n], w[:, n:], p0, cond


def _ode_defect(grid, xi, eta, M: Schedule) -> float:
    """Max defect of the paths against the right-hand side, measured by a
    5-point (4th-order) finite-difference re-differencing on interior points.
    Stencils whose window [t_{k-2}, t_{k+2}] touches a breakpoint of M are
    skipped (the RK4 step ending on one already mixes pieces)."""
    w = np.hstack([xi, eta])
    K = grid.size - 1
    if K < 4:
        return float("nan")
    h = grid[1] - grid[0]
    dw = (-w[4:] + 8.0 * w[3:-1] - 8.0 * w[1:-3] + w[:-4]) / (12.0 * h)
    rhs = np.einsum("kij,kj->ki", sample(M, grid[2:K - 1]), w[2:K - 1])
    tol = 1e-12 * grid[-1]
    b = np.reshape(M.breakpoints, (-1, 1))
    keep = ((grid[4:] < b - tol) | (grid[:-4] > b + tol)).all(axis=0)
    defect = np.abs(dw - rhs)[keep]
    return float(defect.max()) if defect.size else float("nan")


def solve_equilibrium_shooting(spec: ProblemSpec, grid: np.ndarray | None = None,
                          steps: int = 2000) -> FBSolution:
    """Solve the equilibrium two-point system by shooting.

    Raises SingularShootingMatrix when the boundary operator
    (QT+SeffT, -I) Phi(T,0) (O; I) has condition number above 1e12,
    the signature of a horizon where uniqueness fails.
    """
    if grid is None:
        grid = build_grid(spec, steps)
    Msched, GT = equilibrium_system(spec)
    zero = np.zeros(spec.n)
    xi, eta, eta0, cond = shoot_affine_tpbvp(
        Msched, None, spec.x0_mean, GT, zero, grid)
    boundary = float(np.linalg.norm(eta[-1] - GT @ xi[-1]))
    defect = _ode_defect(grid, xi, eta, Msched)
    return FBSolution(grid=grid, xi=xi, eta=eta, eta0=eta0,
                      boundary_residual=boundary, ode_residual=defect,
                      shooting_condition=cond)


def existence_scan(spec: ProblemSpec, t_max: float, steps: int) -> ScanReport:
    """Tabulate det Phi22_t and det Phi21_t on [0, t_max].

    Phi_t is the fundamental solution of the equilibrium system, anchored
    at 0 and sampled on a uniform grid of steps intervals.  Sign changes
    of det Phi22 bracket horizons T0 at which the equilibrium system
    loses unique solvability.  t_max must be positive and finite.
    """
    if not 0.0 < t_max < np.inf:
        raise ValueError(f"scan horizon must be positive and finite, "
                         f"got {t_max}")
    Msched, _ = equilibrium_system(spec)
    grid = uniform_grid(t_max, steps)
    n = spec.n
    samples = fundamental_solution(Msched, 0.0, grid).samples
    det22 = np.linalg.det(samples[:, n:, n:])
    det21 = np.linalg.det(samples[:, n:, :n])
    brackets = [(float(grid[k]), float(grid[k + 1]))
                for k in range(grid.size - 1)
                if det22[k] * det22[k + 1] < 0.0]
    return ScanReport(grid=grid, det22=det22, det21=det21,
                      sign_change_brackets=brackets)


def refine_singular_horizon(spec: ProblemSpec, bracket: tuple[float, float],
                            tol: float = 1e-6, steps: int = 2000) -> float:
    """Bisect det Phi22_t inside a sign-change bracket down to width tol."""
    Msched, _ = equilibrium_system(spec)
    n = spec.n

    def det22(t):
        if t == 0.0:
            return 1.0
        phi = fundamental_solution(Msched, 0.0,
                                   uniform_grid(t, steps)).samples[-1]
        return float(np.linalg.det(phi[n:, n:]))

    lo, hi = bracket
    f_lo = det22(lo)
    if f_lo * det22(hi) > 0:
        raise ValueError(f"det Phi22 does not change sign on {bracket}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = det22(mid)
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def q_weighted_norm(spec: ProblemSpec, grid: np.ndarray, v: np.ndarray) -> float:
    """The Hilbert-space norm ||v||_Q^2 = v_T* QT v_T + int_0^T v* Q v dt,
    with the integral by trapezoid on the grid."""
    Qvals = sample(spec.Q, grid)
    quad = np.einsum("ki,kij,kj->k", v, Qvals, v)
    terminal = float(v[-1] @ spec.QT @ v[-1])
    return float(np.sqrt(trapezoid(quad, grid) + terminal))


def _aux_inner_system(spec: ProblemSpec) -> tuple[Schedule, Schedule, Schedule]:
    """System matrix of the auxiliary (classical LQ) problem plus the
    Abar and Seff schedules that multiply the frozen iterate z."""
    blocks = system_blocks(spec)
    M = Schedule.combine(
        lambda A, BRB, Q: np.block([[A, -BRB], [-Q, -A.T]]),
        spec.A, blocks.BRB, spec.Q)
    return M, spec.Abar, blocks.Seff


def fixed_point_iterate(spec: ProblemSpec, grid: np.ndarray | None = None,
                        steps: int = 2000, tol: float = 1e-10,
                        max_iter: int = 60) -> FBSolution:
    """Solve the equilibrium system by iterating the map z -> xi.

    Each inner step solves the classical LQ two-point problem with source
    terms Abar_t z_t and Qbar_t(I-S_t) z_t by shooting (terminal operator
    QT, always well posed), then replaces z by the resulting xi.  Stops
    when ||xi - z||_Q < tol.  The initial iterate is z = 0.  Outside the
    contraction regime the iteration may diverge; that is reported as
    NoConvergence with the last ratio estimate.
    """
    if grid is None:
        grid = build_grid(spec, steps)
    M0, Abar, Seff = _aux_inner_system(spec)
    Msched, GT = equilibrium_system(spec)
    SeffT = spec.terminal_effective_S
    n = spec.n

    source_free = (all(np.all(M == 0) for _, M in Abar.values)
                   and all(np.all(M == 0) for _, M in Seff.values)
                   and np.all(SeffT == 0))

    stages = stage_points(grid)
    Abar_stage = sample(Abar, stages)
    Seff_stage = sample(Seff, stages)

    def inner_solve(z_path):
        if z_path is None:
            source = None
            cT = np.zeros(n)
        else:
            z_stage = stage_values(grid, z_path)
            source = np.concatenate(
                [np.einsum("kij,kj->ki", Abar_stage, z_stage),
                 -np.einsum("kij,kj->ki", Seff_stage, z_stage)], axis=1)
            cT = SeffT @ z_path[-1]
        return shoot_affine_tpbvp(M0, source, spec.x0_mean, spec.QT, cT, grid)

    z = np.zeros((grid.size, n))
    prev_diff = None
    ratio = float("nan")
    for it in range(1, max_iter + 1):
        xi, eta, eta0, _ = inner_solve(None if it == 1 else z)
        diff = q_weighted_norm(spec, grid, xi - z)
        if prev_diff is not None and prev_diff > 0:
            ratio = diff / prev_diff
        if diff < tol or (source_free and it == 1):
            boundary = float(np.linalg.norm(eta[-1] - GT @ xi[-1]))
            defect = _ode_defect(grid, xi, eta, Msched)
            return FBSolution(grid=grid, xi=xi, eta=eta, eta0=eta0,
                              boundary_residual=boundary, ode_residual=defect,
                              iterations=it, contraction_ratio=ratio)
        if not np.all(np.isfinite(xi)) or np.max(np.abs(xi)) > 1e12:
            raise NoConvergence(it, ratio, diverged=True)
        z = xi
        prev_diff = diff
    raise NoConvergence(max_iter, ratio)


@dataclass
class FeedbackLaw:
    """Affine state feedback u_t(y) = -R^-1 B* (Xi_t y + k_t), sampled on a grid.

    gain and shift are the precomposed maps G_t = R^-1 B* Xi_t and
    g_t = R^-1 B* k_t, so u = -(G_t y + g_t).
    """

    grid: np.ndarray
    Xi: np.ndarray      # (K+1, n, n)
    k: np.ndarray       # (K+1, n)
    gain: np.ndarray    # (K+1, m, n)
    shift: np.ndarray   # (K+1, m)

    def control(self, index: int, y: np.ndarray) -> np.ndarray:
        """Control at grid index for a state y of shape (n,) or a batch (N, n)."""
        if y.ndim == 1:
            return -(self.gain[index] @ y + self.shift[index])
        return -(y @ self.gain[index].T + self.shift[index])

    def scaled(self, theta: float) -> "FeedbackLaw":
        return FeedbackLaw(self.grid, self.Xi, self.k,
                           theta * self.gain, theta * self.shift)

    @classmethod
    def from_paths(cls, spec: ProblemSpec, grid: np.ndarray, Xi: np.ndarray,
                   k: np.ndarray) -> "FeedbackLaw":
        """Precompose R^-1 B* with the paths Xi and k sampled on grid."""
        RinvBt = sample(system_blocks(spec).RinvBt, grid)
        gain = np.einsum("kij,kjl->kil", RinvBt, Xi)
        shift = np.einsum("kij,kj->ki", RinvBt, k)
        return cls(grid=grid, Xi=Xi, k=k, gain=gain, shift=shift)


def equilibrium_control_law(spec: ProblemSpec, sol: FBSolution,
                            xi_riccati) -> FeedbackLaw:
    """Assemble the equilibrium feedback u(y) = -R^-1 B* (Xi y + k) with
    k_t = eta_t - Xi_t xi_t, from an FB solution and the symmetric
    Riccati path Xi (a riccati.RiccatiPath)."""
    grid = sol.grid
    ric_grid = xi_riccati.grid
    if ric_grid.size != grid.size or np.max(np.abs(ric_grid - grid)) > 1e-9:
        raise ValueError("FB solution and Riccati path use different grids")
    Xi = xi_riccati.gamma
    k = sol.eta - np.einsum("kij,kj->ki", Xi, sol.xi)
    return FeedbackLaw.from_paths(spec, grid, Xi, k)


def fbsolution_csv(sol: FBSolution) -> str:
    n = sol.xi.shape[1]
    header = ("t," + ",".join(f"xi_{i+1}" for i in range(n))
              + "," + ",".join(f"eta_{i+1}" for i in range(n)))
    return csv_text(header, ([t, *sol.xi[k], *sol.eta[k]]
                             for k, t in enumerate(sol.grid)))


def scan_csv(report: ScanReport) -> str:
    return csv_text("t,det_phi22,det_phi21",
                    zip(report.grid, report.det22, report.det21))
