"""Mean-field-type optimal control: the mean ODE system and the
comparison against the MFG equilibrium.

The centralized problem's mean system is

    d/dt (ybar; pbar) = [[A+Abar, -B R^-1 B*],
                         [-(Q + (I-S)* Qbar (I-S)), -(A+Abar)*]] (ybar; pbar),
    ybar(0) = E[x0],  pbar(T) = (QT + (I-ST)* QbarT (I-ST)) ybar(T).

It is a Hamiltonian two-point problem with PSD weights, uniquely solvable
at every horizon, yet its shooting can lose accuracy on long horizons as
the equilibrium's does: it then raises `SingularShootingMatrix`.

The comparison solves the two scalar constant-coefficient systems whose
backward blocks differ by Abar* and decides whether the terminal adjoint
values differ, cross-checked against the explicit criterion

    (1 - e^{-(2A+Abar)T})/(2A+Abar)
        != e^{Abar T} (1 - e^{-(2A+2Abar)T})/(2A+2Abar).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import (ProblemSpec, Schedule, csv_text, hamiltonian,
                     system_blocks, uniform_grid)
from .fbsolver import _TwoPoint

DIFFER_RTOL = 1e-7


@dataclass
class MFTypeSolution:
    grid: np.ndarray
    ybar: np.ndarray
    pbar: np.ndarray
    boundary_residual: float


@dataclass
class ComparisonResult:
    """Terminal adjoints of the two systems plus the closed-form criterion.

    differ is the shooting verdict; lhs/rhs are the two sides of the
    closed-form inequality (NaN when degenerate), with its own verdict in
    differ_closed_form (None when the closed form does not apply).
    """

    psi1_T: float
    psi2_T: float
    lhs: float
    rhs: float
    differ: bool
    differ_closed_form: bool | None
    grid: np.ndarray
    phi1: np.ndarray
    psi1: np.ndarray
    phi2: np.ndarray
    psi2: np.ndarray


def mftype_system(spec: ProblemSpec) -> tuple[Schedule, np.ndarray]:
    eye = np.eye(spec.n)
    W = Schedule.combine(lambda Q, Qbar, S: Q + (eye - S).T @ Qbar @ (eye - S),
                         spec.Q, spec.Qbar, spec.S)
    M = hamiltonian(Schedule.combine(np.add, spec.A, spec.Abar),
                    system_blocks(spec).BRB, W)
    ImST = eye - spec.ST
    GT = spec.QT + ImST.T @ spec.QbarT @ ImST
    return M, GT


def solve_mftype_mean(spec: ProblemSpec, grid: np.ndarray) -> MFTypeSolution:
    """Shooting solve of the mean system (see the module docstring)."""
    Msched, GT = mftype_system(spec)
    ybar, pbar = _TwoPoint(Msched, spec.x0_mean, GT, grid).solve()
    boundary = float(np.linalg.norm(pbar[-1] - GT @ ybar[-1]))
    return MFTypeSolution(grid=grid, ybar=ybar, pbar=pbar,
                          boundary_residual=boundary)


def compare_mfg_mftype(a: float, abar: float, b: float, T: float,
                       x0_mean: float = 1.0, q: float = 0.0, r: float = 1.0,
                       qT: float = 1.0, steps: int = 2000) -> ComparisonResult:
    """Decide whether the MFG equilibrium and the mean-field-type optimal
    control differ, for scalar constant coefficients.

    Solves both two-point systems by shooting (backward blocks A* and
    A*+Abar* respectively) and, in the specialization q = 0 with b, qT,
    x0 and both denominators nonzero, also evaluates the closed-form
    criterion; the two determinations are crosschecked by the caller.
    """
    grid = uniform_grid(T, steps)
    brb = b * b / r

    def system(adjoint: float):
        M = hamiltonian(*map(Schedule.constant, (a + abar, brb, q, adjoint)))
        return _TwoPoint(M, [x0_mean], np.array([[qT]]), grid).solve()

    phi1, psi1 = system(a)
    phi2, psi2 = system(a + abar)
    psi1_T = float(psi1[-1, 0])
    psi2_T = float(psi2[-1, 0])
    differ = abs(psi1_T - psi2_T) > DIFFER_RTOL * (1.0 + abs(psi1_T))

    two_a = 2.0 * a + abar
    two_ab = 2.0 * a + 2.0 * abar
    closed_defined = (q == 0.0 and b != 0.0 and qT != 0.0 and x0_mean != 0.0
                      and two_a != 0.0 and two_ab != 0.0)
    if closed_defined:
        lhs = float((1.0 - np.exp(-two_a * T)) / two_a)
        rhs = float(np.exp(abar * T) * (1.0 - np.exp(-two_ab * T)) / two_ab)
        differ_cf = bool(abs(lhs - rhs) > DIFFER_RTOL * (1.0 + abs(lhs)))
    else:
        lhs = rhs = float("nan")
        differ_cf = None
    return ComparisonResult(psi1_T=psi1_T, psi2_T=psi2_T, lhs=float(lhs),
                            rhs=float(rhs), differ=differ,
                            differ_closed_form=differ_cf, grid=grid,
                            phi1=phi1[:, 0], psi1=psi1[:, 0],
                            phi2=phi2[:, 0], psi2=psi2[:, 0])


def mftype_csv(sol: MFTypeSolution) -> str:
    n = sol.ybar.shape[1]
    header = ("t," + ",".join(f"ybar_{i+1}" for i in range(n))
              + "," + ",".join(f"pbar_{i+1}" for i in range(n)))
    return csv_text(header,
                    np.column_stack([sol.grid, sol.ybar, sol.pbar]).tolist())


def comparison_text(res: ComparisonResult) -> str:
    verdict = "differ" if res.differ else "coincide"
    line = (f"equilibrium vs mean-field-type control: {verdict} "
            f"(psi1_T={res.psi1_T!r}, psi2_T={res.psi2_T!r}, "
            f"closed-form lhs={res.lhs!r}, rhs={res.rhs!r})")
    return line + "\n"
