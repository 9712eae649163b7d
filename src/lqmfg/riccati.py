"""Riccati equations attached to the LQMFG equilibrium system.

Three routes to the matrix paths:

* the symmetric control Riccati pair (Xi, zeta) of the single-agent
  problem with a frozen mean path z, by the backward Riccati sweep
  `odecore._sweep` of the RK4 step maps of its linear Hamiltonian system,
* the nonsymmetric equation for Gamma in the ansatz eta = Gamma xi,
  solved either through blocks of the fundamental solution Phi(T, t)
  (Radon's lemma), composed from the equilibrium system's forward RK4
  step maps, or by its own backward RK4 loop on the equation itself,
  with blow-up detection: two matmuls per field evaluation, and Python
  floats when n = 1 or, unrolled by hand, n = 2,
* explicit closed forms in the scalar constant-coefficient case.

Gamma carries A+Abar on one side and A* on the other, so it need not be
symmetric and can escape to infinity in finite time; blow-ups are flagged
outcomes, not errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import (ProblemSpec, Schedule, check_uniform_grid, csv_text,
                     hamiltonian, sample, system_blocks)
from .fbsolver import COND_LIMIT, equilibrium_system
from .odecore import _boundary_rows, _sweep, stage_source, step_pieces

BLOW_UP_LIMIT = 1e12


class BoundaryOperatorSingular(RuntimeError):
    """Radon's boundary operator is singular at some time: Gamma does not
    exist on the whole horizon."""

    def __init__(self, t: float, cond: float):
        self.t = t
        self.cond = cond
        super().__init__(
            f"Radon boundary operator singular at t={t:.6g} "
            f"(condition number {cond:.3e})")


class DistinctRootsViolated(ValueError):
    """The closed-form quadratic has no two distinct real roots."""


@dataclass
class RiccatiPath:
    """A matrix path (Gamma_t, Xi_t or P_t) with optional affine part and
    blow-up diagnostics.

    When blow_up is set it is the first grid index (in backward
    integration order, so the largest failing time index) where an entry
    exceeded 1e12; samples at earlier times are NaN.
    """

    grid: np.ndarray
    gamma: np.ndarray          # (K+1, n, n)
    aux: np.ndarray | None = None   # (K+1, n), zeta or rho
    blow_up: int | None = None


def solve_symmetric(spec: ProblemSpec, grid: np.ndarray,
                    z=None) -> RiccatiPath:
    """Symmetric Riccati pair of the auxiliary control problem.

    Xi (running weight Q + Qbar, terminal QT + QbarT) and, given a frozen
    mean path z on the grid, zeta form the decoupling field p = Xi x + zeta
    of the linear Hamiltonian system d/dt (x; p) = H (x; p) + (Abar z;
    Qbar S z), H = [[A, -B R^-1 B*], [-(Q+Qbar), -A*]], with
    p(T) = (QT + QbarT) x(T) - QbarT ST z(T), by one `odecore._sweep` of
    its backward RK4 step maps from T.
    """
    H = hamiltonian(spec.A, system_blocks(spec).BRB,
                    Schedule.combine(np.add, spec.Q, spec.Qbar))
    source = cT = None
    if z is not None:
        drive = Schedule.combine(lambda Ab, Qb, S: np.vstack([Ab, Qb @ S]),
                                 spec.Abar, spec.Qbar, spec.S)
        mid, cuts = step_pieces(equilibrium_system(spec)[0], grid)
        source = stage_source(sample(drive, mid), z, cuts)
        cT = -spec.QbarT @ spec.ST @ z[-1]
    Xi, zeta, _ = _sweep(H, spec.QT + spec.QbarT, grid, source, cT)
    Xi = (Xi + Xi.transpose(0, 2, 1)) / 2.0
    return RiccatiPath(grid=grid, gamma=Xi, aux=zeta)


def solve_nonsymmetric_direct(spec: ProblemSpec,
                              grid: np.ndarray) -> RiccatiPath:
    """Backward integration of the nonsymmetric Riccati equation

        dGamma/dt = -Gamma (A+Abar) - A* Gamma + Gamma B R^-1 B* Gamma
                    - (Q + Seff),   Gamma_T = QT + SeffT.

    Classical RK4 on the equation itself in tau = T - t, restarted at
    each run of `odecore.step_pieces` with the column blocks of the
    equilibrium system in force on it, and independent of the linear step
    maps.  A blow-up (an entry beyond 1e12, or not finite) is returned as
    a flagged path, since the equation is not always solvable.
    """
    M, GT = equilibrium_system(spec)
    n = spec.n
    mids, cuts = step_pieces(M, grid)
    gamma = np.full((grid.size, n, n), np.nan)
    gamma[-1] = GT
    for lo, hi in zip(cuts[-2::-1], cuts[:0:-1]):
        Mk = M.at(mids[lo])
        taus = grid[hi] - grid[lo:hi + 1][::-1]
        check_uniform_grid(taus)
        Hl, Hr = (np.ascontiguousarray(Mk[:, cols])
                  for cols in (slice(None, n), slice(n, None)))
        run = _rk4_tau(gamma[hi], Hl, Hr, np.diff(taus).tolist())
        first = hi + 1 - len(run)
        gamma[first:hi + 1] = np.reshape(run[::-1], (-1, n, n))
        if not np.abs(gamma[first]).max() <= BLOW_UP_LIMIT:
            return RiccatiPath(grid=grid, gamma=gamma, blow_up=first)
    return RiccatiPath(grid=grid, gamma=gamma)


def _rk4_tau(Y, Hl, Hr, hs) -> list:
    """RK4 steps hs of the tau-field Y' = Y (A+Abar) + A* Y - Y BRB Y + QS
    from Y, written as Y U[:n] - U[n:] with U = Hl + Hr Y, Hl = (A+Abar;
    -QS) and Hr = (-BRB; -A*); on Python floats when n = 1 and, by
    `_rk4_tau_2`, when n = 2.  Returns the samples from Y on, stopping at
    the first one beyond BLOW_UP_LIMIT or not finite."""
    n = len(Y)
    if n == 2:
        return _rk4_tau_2(Y, Hl, Hr, hs)
    if n == 1:
        (l1,), (l2,) = Hl.tolist()
        (r1,), (r2,) = Hr.tolist()
        Y, size = float(Y[0, 0]), abs

        def field(y):
            return y * (l1 + r1 * y) - (l2 + r2 * y)
    else:
        def size(Y):
            return abs(Y).max()

        def field(Y):
            U = Hl + Hr @ Y
            return Y @ U[:n] - U[n:]
    out = [Y]
    for h in hs:
        k1 = field(Y)
        k2 = field(Y + (h / 2.0) * k1)
        k3 = field(Y + (h / 2.0) * k2)
        k4 = field(Y + h * k3)
        Y = Y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        out.append(Y)
        if not size(Y) <= BLOW_UP_LIMIT:
            break
    return out


def _rk4_tau_2(Y, Hl, Hr, hs) -> list:
    """`_rk4_tau` for n = 2, on the entries (a, b; c, d) of Y as Python
    floats.  Each product is summed in numpy's order, U = Hl + (Hr Y) and
    F = (Y U[:2]) - U[2:], so only the rounding inside a 2 x 2 product can
    differ from the matmul loop.  Returns the samples as (a, b, c, d)."""
    (l0, l1), (l2, l3), (l4, l5), (l6, l7) = Hl.tolist()
    (r0, r1), (r2, r3), (r4, r5), (r6, r7) = Hr.tolist()

    def field(a, b, c, d):
        u0, u1 = l0 + (r0 * a + r1 * c), l1 + (r0 * b + r1 * d)
        u2, u3 = l2 + (r2 * a + r3 * c), l3 + (r2 * b + r3 * d)
        return ((a * u0 + b * u2) - (l4 + (r4 * a + r5 * c)),
                (a * u1 + b * u3) - (l5 + (r4 * b + r5 * d)),
                (c * u0 + d * u2) - (l6 + (r6 * a + r7 * c)),
                (c * u1 + d * u3) - (l7 + (r6 * b + r7 * d)))

    a, b, c, d = Y.ravel().tolist()
    out = [(a, b, c, d)]
    lim = BLOW_UP_LIMIT
    for h in hs:
        g = h / 2.0
        a1, b1, c1, d1 = field(a, b, c, d)
        a2, b2, c2, d2 = field(a + g * a1, b + g * b1, c + g * c1, d + g * d1)
        a3, b3, c3, d3 = field(a + g * a2, b + g * b2, c + g * c2, d + g * d2)
        a4, b4, c4, d4 = field(a + h * a3, b + h * b3, c + h * c3, d + h * d3)
        w = h / 6.0
        a = a + w * (a1 + 2.0 * (a2 + a3) + a4)
        b = b + w * (b1 + 2.0 * (b2 + b3) + b4)
        c = c + w * (c1 + 2.0 * (c2 + c3) + c4)
        d = d + w * (d1 + 2.0 * (d2 + d3) + d4)
        out.append((a, b, c, d))
        if not (abs(a) <= lim and abs(b) <= lim and abs(c) <= lim
                and abs(d) <= lim):
            break
    return out


def solve_nonsymmetric_radon(spec: ProblemSpec,
                             grid: np.ndarray) -> RiccatiPath:
    """Gamma through blocks of the fundamental solution (Radon's lemma):

        Gamma_t = -[(GT, -I) Phi(T,t) (O; I)]^-1 [(GT, -I) Phi(T,t) (I; O)]

    with GT = QT + SeffT, the rows (GT, -I) Phi(T,t) by
    `odecore._boundary_rows` from the equilibrium system's forward step
    maps.  Raises its IntegrationOverflow where Phi(T,t) is not finite,
    and BoundaryOperatorSingular at the first grid time where the
    inverted block is ill conditioned.
    """
    Msched, GT = equilibrium_system(spec)
    n = spec.n
    CP = _boundary_rows(Msched, np.hstack([GT, -np.eye(n)]), grid)
    U = CP[:, :, :n]
    V = CP[:, :, n:]
    conds = np.linalg.cond(V)
    bad = np.flatnonzero(~np.isfinite(conds) | (conds > COND_LIMIT))
    if bad.size:
        k = int(bad[0])
        raise BoundaryOperatorSingular(float(grid[k]), float(conds[k]))
    gamma = -np.linalg.solve(V, U)
    return RiccatiPath(grid=grid, gamma=gamma)


def solve_1d_closed_form(a: float, abar: float, b: float, r: float,
                         q_plus_s: float, qT_plus_sT: float,
                         grid: np.ndarray) -> RiccatiPath:
    """Explicit scalar constant-coefficient solutions.

    For b = 0 the equation is linear: exponential in T-t when
    2a+abar != 0, affine otherwise.  For b != 0, with alpha >= 0 >= -beta
    the roots of q_plus_s + (2a+abar) g - (b^2/r) g^2 = 0, the rational
    formula is evaluated with exp(-(alpha+beta)(b^2/r)(T-t)) factored out
    of the denominator so large horizons cannot overflow.  The horizon T
    is the grid's last point.
    """
    tau = grid[-1] - grid  # T - t
    two_a = 2.0 * a + abar
    GT = qT_plus_sT
    c = q_plus_s
    if b == 0.0:
        if two_a != 0.0:
            gamma = (GT + c / two_a) * np.exp(two_a * tau) - c / two_a
        else:
            gamma = c * tau + GT
    else:
        k2 = b * b / r
        disc = two_a * two_a + 4.0 * k2 * c
        if disc <= 0.0:
            raise DistinctRootsViolated(
                "quadratic for the closed form has no two distinct real roots "
                f"(discriminant {disc:.3e})")
        root = np.sqrt(disc)
        alpha = (two_a + root) / (2.0 * k2)
        neg_beta = (two_a - root) / (2.0 * k2)
        if alpha < 0.0 or neg_beta > 0.0:
            raise ValueError(
                "roots do not satisfy alpha >= 0 >= -beta; the b != 0 branch "
                "requires q_plus_s >= 0")
        beta = -neg_beta
        E = np.exp(-k2 * (alpha + beta) * tau)
        gamma = alpha + ((GT - alpha) * (alpha + beta) * E
                         / ((GT + beta) - (GT - alpha) * E))
    return RiccatiPath(grid=grid, gamma=np.asarray(gamma).reshape(-1, 1, 1))


def riccati_csv(path: RiccatiPath) -> str:
    n = path.gamma.shape[1]
    header = "t," + ",".join(f"gamma_{i+1}{j+1}"
                             for i in range(n) for j in range(n))
    if path.aux is not None:
        header += "," + ",".join(f"zeta_{i+1}" for i in range(n))
    columns = [path.grid, path.gamma.reshape(path.grid.size, -1)]
    if path.aux is not None:
        columns.append(path.aux)
    return csv_text(header, np.column_stack(columns).tolist())
