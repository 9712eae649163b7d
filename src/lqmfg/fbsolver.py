"""Equilibrium forward-backward ODE solver.

The mean-field equilibrium reduces to the two-point problem

    d/dt (xi; eta) = [[A+Abar, -B R^-1 B*], [-(Q+Seff), -A*]] (xi; eta),
    xi(0) = E[x0],  eta(T) = (QT + SeffT) xi(T),

with Seff = Qbar (I - S).  This module solves it by shooting on the
fundamental solution Phi_t, scans det of its lower blocks to locate
horizons where uniqueness fails, and independently solves the same
problem by the contraction iteration z -> xi of the auxiliary control
problem; all of them step the RK4 maps of `odecore`.  Shooting is one
two-point solver (`_TwoPoint`) per system: each fixed-point iterate pays
only for its source offsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coeffs import (ProblemSpec, Schedule, csv_text, hamiltonian, sample,
                     system_blocks, uniform_grid)
from .odecore import (_replay, _rk4_linear, _run_powers, _run_steps,
                      _step_maps, _step_offsets, stage_source, step_pieces)

COND_LIMIT = 1e12  # boundary operators beyond this are reported singular
BOUNDARY_RTOL = 1e-6  # shooting residual beyond this x (1 + |p(T)|) is lost
SETTLED_RTOL = 1e-3   # spread of three ratios > 1 that marks settled divergence


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
    """Fixed-point iteration failed to converge: after `iterations` inner
    solves, with `ratio` the last ratio of successive differences;
    `diverged` when the ratios settled above 1 or the iterate blew up."""

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
    """det Phi22_t and det Phi21_t over a horizon scan, with the sign
    changes of det Phi22: resolved brackets, and unresolved ones where an
    end lies within the rounding floor of the determinant."""

    grid: np.ndarray
    det22: np.ndarray
    det21: np.ndarray
    sign_change_brackets: list[tuple[float, float]]
    unresolved_brackets: list[tuple[float, float]] = field(
        default_factory=list)


def equilibrium_system(spec: ProblemSpec) -> tuple[Schedule, np.ndarray]:
    """The 2n x 2n piecewise-constant system matrix of the forward form
    and the terminal boundary weight QT + SeffT."""
    blocks = system_blocks(spec)
    drift = Schedule.combine(np.add, spec.A, spec.Abar)
    return hamiltonian(drift, blocks.BRB, blocks.QS, spec.A), blocks.GT


class _TwoPoint:
    """d/dt (x; p) = M(t)(x; p) + s(t) on one grid, x(0) = x0 and p(T) =
    GT x(T) + cT, by superposition shooting.  Built once: the run powers
    (`odecore._run_powers`) of M's RK4 step maps, the columns (0; I)
    carried by them, and the boundary operator N = (GT, -I) (0; I) at T,
    whose condition number `cond` must be finite and at most COND_LIMIT
    (else SingularShootingMatrix).  A `solve` pays only for its source and
    for carrying (x0; 0)."""

    def __init__(self, M: Schedule, x0, GT, grid):
        self.n = n = GT.shape[0]
        self.Mk, self.hk = _run_steps(M, grid)[:2]
        self.runs = _run_powers(_step_maps(M, grid)[0])
        self.y0 = np.concatenate([np.asarray(x0, float), np.zeros(n)])[:, None]
        self.cols = _replay(self.runs, np.eye(2 * n)[:, n:])
        self.C = np.hstack([GT, -np.eye(n)])
        self.N = self.C @ self.cols[-1]
        self.cond = (float(np.linalg.cond(self.N))
                     if np.all(np.isfinite(self.N)) else float("inf"))
        if not self.cond <= COND_LIMIT:
            raise SingularShootingMatrix(self.cond)

    def solve(self, source=None, cT=0.0):
        """The paths x and p under the stage sources (K, 3, 2n) and cT;
        raises SingularShootingMatrix when they miss the terminal
        condition by more than BOUNDARY_RTOL (1 + |p(T)|)."""
        f = (None if source is None else
             _step_offsets(self.Mk, self.hk, source[..., None]))
        w = _replay(self.runs, self.y0, f)[..., 0]
        w += self.cols @ np.linalg.solve(self.N, -(self.C @ w[-1]) - cT)
        miss = float(np.linalg.norm(self.C @ w[-1] + cT))
        if not miss <= BOUNDARY_RTOL * (1.0 + np.linalg.norm(w[-1, self.n:])):
            raise SingularShootingMatrix(
                self.cond, f"shooting lost accuracy: boundary residual "
                f"{miss:.3e} exceeds {BOUNDARY_RTOL:.0e} (1 + |p(T)|) at "
                f"condition number {self.cond:.3e}")
        return w[:, :self.n], w[:, self.n:]


def _fb_solution(M: Schedule, GT, grid, xi, eta, **diagnostics):
    """FBSolution of paths of d/dt (xi; eta) = M(t)(xi; eta), eta(T) =
    GT xi(T), with their boundary residual and, as ODE residual, their max
    defect against M by a 5-point (4th-order) re-differencing on interior
    points (NaN with none).  Stencils with a breakpoint of M strictly in
    [t_{k-2}, t_{k+2}] are skipped: every RK4 step reads one piece, so the
    path is smooth on each closed piece but not across a breakpoint."""
    w = np.hstack([xi, eta])
    K = grid.size - 1
    h = grid[1] - grid[0]
    dw = (-w[4:] + 8.0 * w[3:-1] - 8.0 * w[1:-3] + w[:-4]) / (12.0 * h)
    rhs = np.einsum("kij,kj->ki", sample(M, grid[2:K - 1]), w[2:K - 1])
    tol = 1e-12 * grid[-1]
    b = np.reshape(M.breakpoints, (-1, 1))
    keep = ((grid[4:] < b + tol) | (grid[:-4] > b - tol)).all(axis=0)
    defect = np.abs(dw - rhs)[keep]
    return FBSolution(
        grid=grid, xi=xi, eta=eta, eta0=eta[0],
        boundary_residual=float(np.linalg.norm(eta[-1] - GT @ xi[-1])),
        ode_residual=float(defect.max()) if defect.size else float("nan"),
        **diagnostics)


def solve_equilibrium_shooting(spec: ProblemSpec,
                               grid: np.ndarray) -> FBSolution:
    """Solve the equilibrium two-point system by shooting.

    Raises SingularShootingMatrix when the boundary operator
    (QT+SeffT, -I) Phi(T,0) (O; I) has condition number above 1e12,
    the signature of a horizon where uniqueness fails.
    """
    Msched, GT = equilibrium_system(spec)
    shooting = _TwoPoint(Msched, spec.x0_mean, GT, grid)
    return _fb_solution(Msched, GT, grid, *shooting.solve(),
                        shooting_condition=shooting.cond)


def existence_scan(spec: ProblemSpec, t_max: float, steps: int) -> ScanReport:
    """Tabulate det Phi22_t and det Phi21_t on [0, t_max].

    Phi_t is the fundamental solution of the equilibrium system, anchored
    at 0 and sampled on a uniform grid of steps intervals.  Sign changes
    of det Phi22 bracket horizons T0 at which the equilibrium system
    loses unique solvability.  A sign change counts only when |det Phi22|
    at both ends exceeds its rounding floor n eps prod_i |row_i of Phi22|
    (Hadamard's bound scaled by the rounding of the determinant); the
    others, which the grid values cannot resolve, are reported apart.
    t_max must be positive and finite.
    """
    if not 0.0 < t_max < np.inf:
        raise ValueError(f"scan horizon must be positive and finite, "
                         f"got {t_max}")
    Msched, _ = equilibrium_system(spec)
    grid = uniform_grid(t_max, steps)
    n = spec.n
    samples = _rk4_linear(Msched, np.eye(2 * n), grid)
    det22 = np.linalg.det(samples[:, n:, n:])
    det21 = np.linalg.det(samples[:, n:, :n])
    floor = n * np.finfo(float).eps * np.prod(
        np.linalg.norm(samples[:, n:, n:], axis=-1), axis=-1)
    clear = np.abs(det22) > floor
    flips = np.flatnonzero(det22[:-1] * det22[1:] < 0.0)
    resolved = clear[flips] & clear[flips + 1]

    def brackets(ks):
        return [(float(grid[k]), float(grid[k + 1])) for k in ks]

    return ScanReport(grid=grid, det22=det22, det21=det21,
                      sign_change_brackets=brackets(flips[resolved]),
                      unresolved_brackets=brackets(flips[~resolved]))


def refine_singular_horizon(spec: ProblemSpec, bracket: tuple[float, float],
                            tol: float = 1e-6, steps: int = 2000) -> float:
    """Bisect det Phi22_t inside a sign-change bracket down to width tol."""
    Msched, _ = equilibrium_system(spec)
    n = spec.n

    def det22(t):
        if t == 0.0:
            return 1.0
        phi = _rk4_linear(Msched, np.eye(2 * n), uniform_grid(t, steps))[-1]
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


def q_weighted_norm(Qvals, QT, grid, v) -> float:
    """The Hilbert-space norm ||v||_Q^2 = v_T* QT v_T + int_0^T v* Q v dt
    from Q's samples on the grid, the integral by trapezoid."""
    quad = np.einsum("ki,kij,kj->k", v, Qvals, v)
    return float(np.sqrt(np.trapezoid(quad, grid) + v[-1] @ QT @ v[-1]))


def _aux_inner_system(spec: ProblemSpec) -> tuple[Schedule, Schedule, Schedule]:
    """System matrix of the auxiliary (classical LQ) problem plus the
    Abar and Seff schedules that multiply the frozen iterate z."""
    blocks = system_blocks(spec)
    return hamiltonian(spec.A, blocks.BRB, spec.Q), spec.Abar, blocks.Seff


def fixed_point_iterate(spec: ProblemSpec, grid: np.ndarray,
                        tol: float = 1e-10, max_iter: int = 60) -> FBSolution:
    """Solve the equilibrium system by iterating the map z -> xi.

    Each inner step solves the classical LQ two-point problem (terminal
    weight QT) with source terms Abar_t z_t and Qbar_t(I-S_t) z_t, then
    replaces z by the resulting xi; one `_TwoPoint` serves every step.
    Stops when ||xi - z||_Q < tol.  The initial iterate is z = 0.

    The map is affine, so the successive differences xi - z are a power
    iteration of its linear part, and their ratios tend to its spectral
    radius.  Once the last three ratios all exceed 1 and lie within
    SETTLED_RTOL x ratio of each other, the iteration has settled into
    divergence and raises NoConvergence(diverged=True); so does a
    non-finite or huge iterate.  Otherwise NoConvergence after max_iter
    iterations.  Its `iterations` counts the inner solves made and its
    `ratio` is the last ratio.
    """
    M0, Abar, Seff = _aux_inner_system(spec)
    Msched, GT = equilibrium_system(spec)
    SeffT = spec.terminal_effective_S

    drive = Schedule.combine(lambda Ab, Se: np.vstack([Ab, -Se]), Abar, Seff)
    mid, cuts = step_pieces(Msched, grid)
    drive_k, Qvals = sample(drive, mid), sample(spec.Q, grid)
    source_free = not (np.any(drive_k) or np.any(SeffT))
    inner = _TwoPoint(M0, spec.x0_mean, spec.QT, grid)

    z = np.zeros((grid.size, spec.n))
    prev_diff = None
    ratio = float("nan")
    ratios = []
    for it in range(1, max_iter + 1):
        xi, eta = (inner.solve() if it == 1 else inner.solve(
            stage_source(drive_k, z, cuts), SeffT @ z[-1]))
        diff = q_weighted_norm(Qvals, spec.QT, grid, xi - z)
        if prev_diff is not None and prev_diff > 0:
            ratio = diff / prev_diff
            ratios.append(ratio)
        if diff < tol or (source_free and it == 1):
            return _fb_solution(Msched, GT, grid, xi, eta, iterations=it,
                                contraction_ratio=ratio)
        last = ratios[-3:]
        settled = (len(last) == 3 and min(last) > 1.0
                   and max(last) - min(last) <= SETTLED_RTOL * ratio)
        if settled or not np.all(np.isfinite(xi)) or np.max(np.abs(xi)) > 1e12:
            raise NoConvergence(it, ratio, diverged=True)
        z, prev_diff = xi, diff
    raise NoConvergence(max_iter, ratio)


@dataclass
class FeedbackLaw:
    """Affine state feedback u_t(y) = -R^-1 B* (Xi_t y + k_t), sampled on a grid.

    gain and shift are the precomposed maps G_t = R^-1 B* Xi_t and
    g_t = R^-1 B* k_t, so u = -(G_t y + g_t).
    """

    grid: np.ndarray
    k: np.ndarray       # (K+1, n)
    gain: np.ndarray    # (K+1, m, n)
    shift: np.ndarray   # (K+1, m)

    def scaled(self, theta: float) -> "FeedbackLaw":
        return FeedbackLaw(self.grid, self.k, theta * self.gain,
                           theta * self.shift)

    @classmethod
    def from_paths(cls, spec: ProblemSpec, grid: np.ndarray, Xi: np.ndarray,
                   k: np.ndarray) -> "FeedbackLaw":
        """Precompose R^-1 B* with the paths Xi and k sampled on grid."""
        RinvBt = sample(system_blocks(spec).RinvBt, grid)
        gain = np.einsum("kij,kjl->kil", RinvBt, Xi)
        shift = np.einsum("kij,kj->ki", RinvBt, k)
        return cls(grid=grid, k=k, gain=gain, shift=shift)


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
    return csv_text(header,
                    np.column_stack([sol.grid, sol.xi, sol.eta]).tolist())


def scan_csv(report: ScanReport) -> str:
    return csv_text("t,det_phi22,det_phi21", np.column_stack(
        [report.grid, report.det22, report.det21]).tolist())
