"""Sufficient-condition checks for unique existence of the equilibrium.

Quantities computed here:

* the small-time constant L (Gronwall route),
* the contraction norms |||phi|||, |||Abar|||, |||Seff||| and the main
  condition  sqrt(T) |||phi||| |||Abar||| (1 + |||Seff|||) + |||Seff||| < 1,
* the shifted variant with Q replaced by a caller-chosen PD weight,
* the solvability criterion for the nonsymmetric Riccati equation,
* the scalar appendix model, solved along two routes: the feedback
  route (value-function Riccati plus a contraction on the frozen mean)
  and the adjoint route with its gamma <= 1 condition, for side-by-side
  comparison of the two sufficient conditions.

All suprema are taken over the sample grid; strict "< 1" verdicts carry a
borderline flag when the value is within 1e-9 of 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import trapezoid

from .coeffs import (ProblemSpec, Schedule, build_grid, csv_text, sample,
                     system_blocks, uniform_grid)
from .odecore import (StageSampled, _rk4_linear, inv_sqrt, psd_sqrt,
                      rk4_integrate, rk4_integrate_backward, spectral_norm,
                      spectral_norms, stage_values)

BORDERLINE_TOL = 1e-9
PHI_BLOCK = 64  # times per batch of products normed in _phi_weighted_norm


@dataclass
class Verdict:
    status: str              # "satisfied" | "violated" | "undefined"
    reason: str = ""
    borderline: bool = False

    def __str__(self) -> str:
        extra = ""
        if self.borderline:
            extra = " (borderline: within 1e-9 of the threshold)"
        if self.reason:
            extra += f" [{self.reason}]"
        return self.status + extra


@dataclass
class ConditionReport:
    """Computed norms and pass/fail verdicts for the sufficient conditions."""

    L: float | None = None
    phi_norm: float | None = None
    abar_norm: float | None = None
    s_norm: float | None = None
    mainthm_lhs: float | None = None
    verdicts: dict[str, Verdict] = field(default_factory=dict)


def _strict_less_one(value: float) -> Verdict:
    status = "satisfied" if value < 1.0 else "violated"
    return Verdict(status, borderline=abs(value - 1.0) < BORDERLINE_TOL)


def compute_L(spec: ProblemSpec, grid: np.ndarray | None = None,
              steps: int = 400) -> float:
    """The small-time constant

        L = T (||QT+SeffT||^2 + ||Q+Seff||_T) ||B R^-1 B*||_T
            * exp((2||A+Abar||_T + 2||A*||_T + ||BRB||_T + ||Q+Seff||_T) T)

    with ||.||_T the supremum over grid samples of the spectral norm.
    L < 1 guarantees unique solvability; it is typically far too large to
    be useful, which is what the contraction condition improves on.
    """
    if grid is None:
        grid = build_grid(spec, steps)
    T = spec.T
    blocks = system_blocks(spec)

    def sup(sched: Schedule) -> float:
        return max(spectral_norm(M) for M in sample(sched, grid))

    brb_sup = sup(blocks.BRB)
    qs_sup = sup(blocks.QS)
    a_abar_sup = sup(Schedule.combine(np.add, spec.A, spec.Abar))
    astar_sup = sup(spec.A)
    gterm = spectral_norm(blocks.GT)
    return float(T * (gterm ** 2 + qs_sup) * brb_sup
                 * np.exp((2 * a_abar_sup + 2 * astar_sup + brb_sup + qs_sup) * T))


class _NormsUndefined(Exception):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


def _phi_weighted_norm(A_sched: Schedule, sqrtQ: np.ndarray,
                       sqrtQ_terminal: np.ndarray, grid: np.ndarray) -> float:
    """|||phi||| = sup_t sqrt(||phi*(T,t) QT^1/2||^2
                              + int_t^T ||phi*(s,t) Qs^1/2||^2 ds).

    Uses phi(s,t) = phi(s,0) phi(t,0)^-1 so a single fundamental-solution
    pass suffices; the products are normed in batches.
    """
    Phi = _rk4_linear(A_sched, np.eye(sqrtQ.shape[-1]), grid)
    G = np.einsum("sji,sjk->sik", Phi, sqrtQ)          # phi(s,0)^T Qs^1/2
    G_term = Phi[-1].T @ sqrtQ_terminal
    X = np.linalg.inv(Phi).transpose(0, 2, 1)          # phi(t,0)^-T
    K = grid.size
    best = 0.0
    for lo in range(0, K, PHI_BLOCK):
        hi = min(lo + PHI_BLOCK, K)
        prod = np.einsum("tij,sjk->tsik", X[lo:hi], G)
        norms2 = spectral_norms(prod) ** 2              # (hi-lo, K)
        term2 = spectral_norms(np.einsum("tij,jk->tik",
                                         X[lo:hi], G_term)) ** 2
        for j, t_idx in enumerate(range(lo, hi)):
            integral = trapezoid(norms2[j, t_idx:], grid[t_idx:])
            best = max(best, term2[j] + integral)
    return float(np.sqrt(best))


def _mainthm_norms(spec: ProblemSpec, grid: np.ndarray, Qcal: Schedule,
                   QcalT: np.ndarray, S_running: Schedule,
                   S_terminal: np.ndarray) -> tuple[float, float, float]:
    """The three contraction norms with running weight Qcal, terminal
    weight QcalT, and deviation weight S_running / S_terminal."""
    abar_zero = all(np.all(M == 0) for _, M in spec.Abar.values)
    s_zero = (all(np.all(M == 0) for _, M in S_running.values)
              and np.all(S_terminal == 0))
    s_term_zero = np.all(S_terminal == 0)

    try:
        sqrtQ = sample(Qcal.map(psd_sqrt), grid)
    except ValueError as exc:
        raise _NormsUndefined(f"running weight has no PSD square root: {exc}")
    try:
        sqrtQT = psd_sqrt(QcalT)
    except ValueError as exc:
        raise _NormsUndefined(f"terminal weight has no PSD square root: {exc}")

    inv_sqrtQ = None
    if not (abar_zero and s_zero):
        try:
            inv_sqrtQ = sample(Qcal.map(inv_sqrt), grid)
        except ValueError as exc:
            raise _NormsUndefined(
                f"running weight must be positive definite: {exc}")

    phi = _phi_weighted_norm(spec.A, sqrtQ, sqrtQT, grid)

    if abar_zero:
        abar = 0.0
    else:
        Abar_vals = sample(spec.Abar, grid)
        abar = float(spectral_norms(
            np.einsum("kij,kjl->kil", Abar_vals, inv_sqrtQ)).max())

    if s_zero:
        s = 0.0
    else:
        S_vals = sample(S_running, grid)
        s = float(spectral_norms(np.einsum(
            "kij,kjl,klm->kim", inv_sqrtQ, S_vals, inv_sqrtQ)).max())
        if not s_term_zero:
            try:
                inv_sqrtQT = inv_sqrt(QcalT)
            except ValueError as exc:
                raise _NormsUndefined(
                    "terminal deviation weight is nonzero, so the terminal "
                    f"weight must be positive definite: {exc}")
            s = max(s, spectral_norm(inv_sqrtQT @ S_terminal @ inv_sqrtQT))
    return phi, abar, s


def compute_mainthm_norms(spec: ProblemSpec, grid: np.ndarray | None = None,
                          steps: int = 400) -> ConditionReport:
    """The contraction condition

        sqrt(T) |||phi||| |||Abar||| (1 + |||Seff|||) + |||Seff||| < 1.

    Requires the running Q to be positive definite on the grid whenever
    Abar or Seff is nonzero; when SeffT = 0 the terminal QT only needs a
    PSD square root.  Undefined norms produce an "undefined" verdict with
    the reason, never an exception.
    """
    if grid is None:
        grid = build_grid(spec, steps)
    report = ConditionReport()
    try:
        phi, abar, s = _mainthm_norms(
            spec, grid, spec.Q, spec.QT, system_blocks(spec).Seff,
            spec.terminal_effective_S)
    except _NormsUndefined as exc:
        report.verdicts["mainthm"] = Verdict("undefined", reason=exc.reason)
        return report
    report.phi_norm = phi
    report.abar_norm = abar
    report.s_norm = s
    report.mainthm_lhs = float(np.sqrt(spec.T) * phi * abar * (1.0 + s) + s)
    report.verdicts["mainthm"] = _strict_less_one(report.mainthm_lhs)
    return report


def check_shifted(spec: ProblemSpec, Qcal: Schedule,
                  grid: np.ndarray | None = None,
                  QcalT: np.ndarray | None = None,
                  steps: int = 400) -> ConditionReport:
    """The shifted condition: Q replaced by a caller-chosen PD weight Qcal
    and Seff replaced by Q + Seff - Qcal throughout.

    QcalT is the terminal replacement weight; it defaults to the last
    piece of Qcal.  With Qcal = Q (and QcalT = QT) this reduces exactly
    to compute_mainthm_norms.
    """
    if grid is None:
        grid = build_grid(spec, steps)
    if QcalT is None:
        QcalT = Qcal.at(grid[-1])
    blocks = system_blocks(spec)
    shifted = Schedule.combine(np.subtract, blocks.QS, Qcal)
    shifted_T = blocks.GT - QcalT

    lam_min = min(float(np.linalg.eigvalsh((M + M.T) / 2).min())
                  for _, M in Qcal.values)
    if lam_min <= 0:
        raise ValueError(
            f"shift weight is not positive definite (min eigenvalue "
            f"{lam_min:.3e})")

    report = ConditionReport()
    try:
        phi, abar, s = _mainthm_norms(spec, grid, Qcal, QcalT, shifted,
                                      shifted_T)
    except _NormsUndefined as exc:
        report.verdicts["shifted"] = Verdict("undefined", reason=exc.reason)
        return report
    report.phi_norm = phi
    report.abar_norm = abar
    report.s_norm = s
    report.mainthm_lhs = float(np.sqrt(spec.T) * phi * abar * (1.0 + s) + s)
    report.verdicts["shifted"] = _strict_less_one(report.mainthm_lhs)
    return report


def check_riccati_solvable(spec: ProblemSpec, T0: float | None = None,
                           steps: int = 400) -> ConditionReport:
    """Solvability criterion for the nonsymmetric Riccati equation.

    With the contraction norms evaluated on [0, T0] (terminal weights are
    the problem's own), the equation is solvable if either
    |||Abar||| = 0 and |||Seff||| < 1, or |||Abar||| != 0 and
    T < ((1 - |||Seff|||) / (|||phi||| |||Abar||| (1 + |||Seff|||)))^2 ^ T0.

    For constant coefficients the T0 cap is vacuous and drops; T0 = None
    selects that form (norms on the problem's own horizon) and requires a
    constant-coefficient spec.
    """
    if T0 is None:
        if not spec.is_constant:
            raise ValueError("the T0-free form of the criterion needs "
                             "constant coefficients; pass T0 explicitly")
        horizon = spec.T
        cap = None
    else:
        horizon = T0
        cap = T0
    grid = uniform_grid(horizon, steps)
    report = ConditionReport()
    try:
        phi, abar, s = _mainthm_norms(
            spec, grid, spec.Q, spec.QT, system_blocks(spec).Seff,
            spec.terminal_effective_S)
    except _NormsUndefined as exc:
        report.verdicts["riccati_solvable"] = Verdict("undefined",
                                                      reason=exc.reason)
        return report
    report.phi_norm = phi
    report.abar_norm = abar
    report.s_norm = s
    if abar == 0.0:
        verdict = _strict_less_one(s)
        verdict.reason = "Abar = 0 branch: requires |||Seff||| < 1"
        if verdict.status == "violated":
            verdict.status = "not-concluded"
        report.verdicts["riccati_solvable"] = verdict
        return report
    if s >= 1.0:
        report.verdicts["riccati_solvable"] = Verdict(
            "not-concluded", reason=f"|||Seff||| = {s:.6g} >= 1")
        return report
    bound = ((1.0 - s) / (phi * abar * (1.0 + s))) ** 2
    limit = bound if cap is None else min(bound, cap)
    status = "satisfied" if spec.T < limit else "not-concluded"
    requirement = (f"requires T < {bound:.6g}" if cap is None
                   else f"requires T < min({bound:.6g}, T0={cap:g})")
    report.verdicts["riccati_solvable"] = Verdict(
        status, reason=requirement,
        borderline=abs(spec.T - limit) < BORDERLINE_TOL)
    return report


# ---------------------------------------------------------------------------
# Appendix scalar model: feedback route vs adjoint route.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AppendixParams:
    """The scalar comparison model: dynamics dz = (az + bu + alpha zbar)dt
    + sigma dw, cost |z - gamma(zbar + eta)|^2 + r u^2."""

    a: float
    b: float
    r: float
    alpha: float
    gamma: float
    eta: float
    T: float

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError(f"r must be positive, got {self.r}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")


@dataclass
class FeedbackRiccati:
    """Pi path, the offset path s given a frozen mean, and the propagator
    table Phi[i, j] = Phi(t_i, t_j)."""

    grid: np.ndarray
    pi: np.ndarray
    s: np.ndarray
    phi: np.ndarray


def appendix_feedback_riccati(p: AppendixParams,
                              grid: np.ndarray | None = None, zbar=None,
                              steps: int = 2000) -> FeedbackRiccati:
    """Feedback route: the positive Riccati solution of

        dPi/dt + 2a Pi - (b^2/r) Pi^2 + 1 = 0,  Pi_T = 0,

    the offset s for a frozen mean path zbar (default zero), and the table
    Phi(t, tau) = exp(-int_tau^t (a - (b^2/r) Pi)).
    """
    if grid is None:
        grid = uniform_grid(p.T, steps)
    k2 = p.b ** 2 / p.r
    if zbar is None:
        z_fn = lambda t: 0.0
    elif callable(zbar):
        z_fn = zbar
    else:
        z_fn = StageSampled(grid, stage_values(grid, zbar))

    def field(t, y):
        pi, s = y
        zt = z_fn(t)
        zstar = p.gamma * (zt + p.eta)
        dpi = k2 * pi * pi - 2.0 * p.a * pi - 1.0
        ds = -(p.a - k2 * pi) * s - p.alpha * pi * zt + zstar
        return np.array([dpi, ds])

    path = rk4_integrate_backward(field, np.zeros(2), grid)
    pi = path[:, 0]
    s = path[:, 1]
    # F(t) = int_0^t (a - k2 Pi); Phi(t, tau) = exp(F(tau) - F(t))
    integrand = p.a - k2 * pi
    F = _cumtrapz(integrand, grid)
    phi = np.exp(F[None, :] - F[:, None])   # phi[i, j] = Phi(t_i, t_j)
    return FeedbackRiccati(grid=grid, pi=pi, s=s, phi=phi)


def _cumtrapz(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    out = np.zeros_like(values)
    steps = np.diff(grid)
    out[1:] = np.cumsum(0.5 * steps * (values[1:] + values[:-1]))
    return out


def appendix_feedback_condition(p: AppendixParams,
                                grid: np.ndarray | None = None,
                                steps: int = 2000) -> dict:
    """Numeric value of the feedback-route contraction bound

        sup_t int_0^t Phi(s,t) {|alpha| + (b^2/r) int_s^T Phi(s,tau)
                                 (|alpha| Pi_tau + |gamma|) dtau} ds

    by nested trapezoid quadrature, together with the relaxed closed-form
    quantity |gamma| (1 - e^{-bT}).  The relaxation uses b Pi < 1, so it
    never exceeds the numeric value.
    """
    if grid is None:
        grid = uniform_grid(p.T, steps)
    ric = appendix_feedback_riccati(p, grid)
    k2 = p.b ** 2 / p.r
    F = _cumtrapz(p.a - k2 * ric.pi, grid)
    g = np.abs(p.alpha) * ric.pi + np.abs(p.gamma)

    # inner(s) = int_s^T Phi(s,tau) g(tau) dtau, Phi(s,tau) = e^{F(tau)-F(s)}
    weighted = np.exp(F) * g
    head = _cumtrapz(weighted, grid)
    tail = head[-1] - head                     # int_s^T
    inner = np.exp(-F) * tail
    h = np.abs(p.alpha) + k2 * inner
    # outer(t) = int_0^t Phi(s,t) h(s) ds, Phi(s,t) = e^{F(t)-F(s)}
    outer = np.exp(F) * _cumtrapz(np.exp(-F) * h, grid)
    lhs = float(outer.max())
    simplified = float(abs(p.gamma) * (1.0 - np.exp(-p.b * p.T)))
    return {
        "lhs": lhs,
        "satisfied": lhs < 1.0,
        "simplified": simplified,
        "simplified_satisfied": simplified < 1.0,
    }


@dataclass
class AdjointRouteReport:
    """Adjoint-route solution of the appendix model."""

    grid: np.ndarray
    P: np.ndarray
    rho: np.ndarray
    zbar: np.ndarray
    pbar_residual: float
    gamma_condition: bool
    closed_form_ok: bool | None
    closed_form_error: float | None
    roots: tuple[float, float] | None


def appendix_adjoint_route(p: AppendixParams,
                           grid: np.ndarray | None = None,
                           steps: int = 2000) -> AdjointRouteReport:
    """Adjoint route: the nonsymmetric scalar Riccati pair

        dP/dt = -(2a+alpha) P + (b^2/r) P^2 - 1 + gamma,   P_T = 0,
        drho/dt = -(a - (b^2/r) P_t) rho + gamma eta,       rho_T = 0,

    the closed-form check against the root formula when gamma < 1 and
    b != 0, the condition gamma <= 1, and the residual of the backward
    equation along the mean path driven by pbar = P zbar + rho.

    The rho equation carries the (b^2/r) P_t factor required by the
    identification pbar = P zbar + rho.
    """
    if grid is None:
        grid = uniform_grid(p.T, steps)
    k2 = p.b ** 2 / p.r

    def field(t, y):
        P, rho = y
        dP = -(2.0 * p.a + p.alpha) * P + k2 * P * P - 1.0 + p.gamma
        drho = -(p.a - k2 * P) * rho + p.gamma * p.eta
        return np.array([dP, drho])

    path = rk4_integrate_backward(field, np.zeros(2), grid)
    P = path[:, 0]
    rho = path[:, 1]

    roots = None
    closed_ok: bool | None = None
    closed_err: float | None = None
    if p.gamma < 1.0 and p.b != 0.0:
        two_a = 2.0 * p.a + p.alpha
        disc = two_a ** 2 + 4.0 * k2 * (1.0 - p.gamma)
        root = float(np.sqrt(disc))
        s1 = (two_a + root) / (2.0 * k2)
        s2 = (two_a - root) / (2.0 * k2)
        roots = (s1, s2)
        tau = grid[-1] - grid
        E = np.exp(-(s1 - s2) * k2 * tau)
        P_closed = ((1.0 - p.gamma) / k2) * (1.0 - E) / (s1 * E - s2)
        closed_err = float(np.max(np.abs(P - P_closed)))
        closed_ok = closed_err <= 1e-7

    P_fn = StageSampled(grid, stage_values(grid, P))
    rho_fn = StageSampled(grid, stage_values(grid, rho))

    def zfield(t, z):
        return (p.a + p.alpha) * z - k2 * (P_fn(t) * z + rho_fn(t))

    zbar = rk4_integrate(zfield, np.array(0.0), grid).reshape(-1)
    pbar = P * zbar + rho
    # 4th-order re-differencing of -dpbar/dt = a pbar + (1-gamma) zbar - gamma eta
    K = grid.size - 1
    h = grid[1] - grid[0]
    residual = 0.0
    if K >= 4:
        dp = (-pbar[4:] + 8 * pbar[3:-1] - 8 * pbar[1:-3] + pbar[:-4]) / (12 * h)
        rhs = -(p.a * pbar + (1.0 - p.gamma) * zbar - p.gamma * p.eta)
        residual = float(np.max(np.abs(dp - rhs[2:-2])))
    return AdjointRouteReport(grid=grid, P=P, rho=rho, zbar=zbar,
                              pbar_residual=residual,
                              gamma_condition=p.gamma <= 1.0,
                              closed_form_ok=closed_ok,
                              closed_form_error=closed_err,
                              roots=roots)


def appendix_report(p: AppendixParams, grid: np.ndarray | None = None,
                    steps: int = 2000) -> dict:
    """Side-by-side verdicts of the two conditions on the same model."""
    feedback = appendix_feedback_condition(p, grid, steps)
    adjoint = appendix_adjoint_route(p, grid, steps)
    return {
        "feedback_lhs": feedback["lhs"],
        "feedback_satisfied": feedback["satisfied"],
        "feedback_simplified": feedback["simplified"],
        "feedback_simplified_satisfied": feedback["simplified_satisfied"],
        "adjoint_gamma": p.gamma,
        "adjoint_gamma_condition": adjoint.gamma_condition,
        "adjoint_closed_form_ok": adjoint.closed_form_ok,
        "adjoint_pbar_residual": adjoint.pbar_residual,
    }


def report_text(report: ConditionReport) -> str:
    lines = []
    if report.L is not None:
        lines.append(f"L = {report.L:.6g}")
    if report.phi_norm is not None:
        lines.append(f"|||phi||| = {report.phi_norm:.6g}")
    if report.abar_norm is not None:
        lines.append(f"|||Abar||| = {report.abar_norm:.6g}")
    if report.s_norm is not None:
        lines.append(f"|||Seff||| = {report.s_norm:.6g}")
    if report.mainthm_lhs is not None:
        lines.append(f"contraction lhs = {report.mainthm_lhs:.6g}")
    for name, verdict in report.verdicts.items():
        lines.append(f"{name}: {verdict}")
    return "\n".join(lines) + "\n"


def report_csv(reports: dict[str, tuple[float | None, float]]) -> str:
    """CSV rows (condition, lhs, threshold, verdict) from a mapping
    name -> (lhs, threshold, verdict)."""
    return csv_text("condition,lhs,threshold,verdict",
                    ((name, "nan" if lhs is None else lhs, threshold, verdict)
                     for name, (lhs, threshold, verdict) in reports.items()))
