"""Riccati equations attached to the LQMFG equilibrium system.

Three routes to the matrix paths:

* the symmetric control Riccati pair (Xi, zeta) of the single-agent
  problem with a frozen mean path z, by a backward sweep of the RK4 step
  maps of its linear Hamiltonian system,
* the nonsymmetric equation for Gamma in the ansatz eta = Gamma xi,
  solved either through blocks of the fundamental solution (Radon's
  lemma) or by direct backward integration with blow-up detection,
* explicit closed forms in the scalar constant-coefficient case.

Gamma carries A+Abar on one side and A* on the other, so it need not be
symmetric and can escape to infinity in finite time; blow-ups are flagged
outcomes, not errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import (ProblemSpec, Schedule, build_grid, csv_text, sample,
                     system_blocks, uniform_grid)
from .fbsolver import COND_LIMIT, equilibrium_system
from .odecore import (IntegrationOverflow, _rk4_linear, _step_maps,
                      rk4_integrate_backward, stage_points, stage_values)

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


def solve_symmetric(spec: ProblemSpec, grid: np.ndarray | None = None,
                    z=None, steps: int = 2000) -> RiccatiPath:
    """Symmetric Riccati pair of the auxiliary control problem.

    Xi (running weight Q + Qbar, terminal QT + QbarT) and, given a frozen
    mean path z on the grid, zeta form the decoupling field p = Xi x + zeta
    of the linear Hamiltonian system d/dt (x; p) = H (x; p) + (Abar z;
    Qbar S z), H = [[A, -B R^-1 B*], [-(Q+Qbar), -A*]], with
    p(T) = (QT + QbarT) x(T) - QbarT ST z(T).  One sweep from T of its
    backward RK4 step maps (x; p)(t_k) = B_k (x; p)(t_{k+1}) + g_k gives
    Xi_k = W2 W1^-1 with (W1; W2) = B_k (I; Xi_{k+1}) and
    zeta_k = v2 - Xi_k v1 with (v1; v2) = B_k (0; zeta_{k+1}) + g_k.
    """
    if grid is None:
        grid = build_grid(spec, steps)
    n, K = spec.n, grid.size - 1
    H = Schedule.combine(
        lambda A, BRB, Q, Qbar: np.block([[A, -BRB], [-(Q + Qbar), -A.T]]),
        spec.A, system_blocks(spec).BRB, spec.Q, spec.Qbar)
    Xi = np.empty((K + 1, n, n))
    zeta = np.zeros((K + 1, n))
    Xi[K] = spec.QT + spec.QbarT
    source = np.zeros((2 * K + 1, 2 * n))
    if z is not None:
        drive = Schedule.combine(lambda Ab, Qb, S: np.vstack([Ab, Qb @ S]),
                                 spec.Abar, spec.Qbar, spec.S)
        source = np.einsum("kij,kj->ki", sample(drive, stage_points(grid)),
                           stage_values(grid, z))
        zeta[K] = -spec.QbarT @ spec.ST @ z[-1]
    maps, shifts = _step_maps(H, grid, source, backward=True)
    for k, Bk, g in zip(range(K - 1, -1, -1), maps, shifts[:, :, 0]):
        W = Bk[:, :n] + Bk[:, n:] @ Xi[k + 1]
        Xi[k] = np.linalg.solve(W[:n].T, W[n:].T).T
        v = Bk[:, n:] @ zeta[k + 1] + g
        zeta[k] = v[n:] - Xi[k] @ v[:n]
    Xi = (Xi + Xi.transpose(0, 2, 1)) / 2.0
    return RiccatiPath(grid=grid, gamma=Xi, aux=None if z is None else zeta)


def solve_nonsymmetric_direct(spec: ProblemSpec, grid: np.ndarray | None = None,
                              steps: int = 2000) -> RiccatiPath:
    """Backward integration of the nonsymmetric Riccati equation

        dGamma/dt = -Gamma (A+Abar) - A* Gamma + Gamma B R^-1 B* Gamma
                    - (Q + Seff),   Gamma_T = QT + SeffT.

    A blow-up (entries beyond 1e12) is returned as a flagged path, since
    the equation is not always solvable.
    """
    if grid is None:
        grid = build_grid(spec, steps)
    blocks = system_blocks(spec)

    def field(t, G):
        A = spec.A.at(t)
        return (-G @ (A + spec.Abar.at(t)) - A.T @ G
                + G @ blocks.BRB.at(t) @ G - blocks.QS.at(t))

    try:
        path = rk4_integrate_backward(field, blocks.GT, grid,
                                      max_abs=BLOW_UP_LIMIT)
    except IntegrationOverflow as exc:
        return RiccatiPath(grid=grid, gamma=exc.path, blow_up=exc.index)
    return RiccatiPath(grid=grid, gamma=path)


def solve_nonsymmetric_radon(spec: ProblemSpec, grid: np.ndarray | None = None,
                             steps: int = 2000) -> RiccatiPath:
    """Gamma through blocks of the fundamental solution (Radon's lemma):

        Gamma_t = -[(GT, -I) Phi(T,t) (O; I)]^-1 [(GT, -I) Phi(T,t) (I; O)]

    with GT = QT + SeffT.  Phi(T,t) is obtained in one backward pass from
    dPsi/dt = -Psi M(t), Psi(T) = I, propagated as its transpose
    dPsi*/dt = -M(t)* Psi*.  Raises BoundaryOperatorSingular at the first
    grid time where the inverted block is ill conditioned.
    """
    if grid is None:
        grid = build_grid(spec, steps)
    Msched, GT = equilibrium_system(spec)
    n = spec.n
    Psi = _rk4_linear(Msched.map(lambda M: -M.T), np.eye(2 * n), grid,
                      backward=True).transpose(0, 2, 1)
    C = np.hstack([GT, -np.eye(n)])
    CP = np.einsum("ij,kjl->kil", C, Psi)
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
                         q_plus_s: float, qT_plus_sT: float, T: float,
                         grid: np.ndarray | None = None,
                         steps: int = 2000) -> RiccatiPath:
    """Explicit scalar constant-coefficient solutions.

    For b = 0 the equation is linear: exponential in T-t when
    2a+abar != 0, affine otherwise.  For b != 0, with alpha >= 0 >= -beta
    the roots of q_plus_s + (2a+abar) g - (b^2/r) g^2 = 0, the rational
    formula is evaluated with exp(-(alpha+beta)(b^2/r)(T-t)) factored out
    of the denominator so large horizons cannot overflow.
    """
    if grid is None:
        grid = uniform_grid(T, steps)
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
    rows = []
    for k, t in enumerate(path.grid):
        row = [t, *path.gamma[k].reshape(-1)]
        if path.aux is not None:
            row.extend(path.aux[k])
        rows.append(row)
    return csv_text(header, rows)
