"""Sufficient-condition checks for unique existence of the equilibrium.

Quantities computed here:

* the small-time constant L (Gronwall route), from suprema over the
  coefficient pieces,
* the contraction norms |||phi|||, |||Abar|||, |||Seff||| and the main
  condition  sqrt(T) |||phi||| |||Abar||| (1 + |||Seff|||) + |||Seff||| < 1,
* the shifted variant with Q replaced by a caller-chosen PD weight,
* the solvability criterion for the nonsymmetric Riccati equation, a
  rule on the same three norms,
* the scalar appendix model, solved along two routes: the feedback
  route (value-function Riccati plus a contraction on the frozen mean)
  and the adjoint route with its gamma <= 1 condition, for side-by-side
  comparison of the two sufficient conditions.  Both Riccati paths, and
  the adjoint route's mean path, come from the backward Riccati sweep
  `odecore._sweep` of a 2 x 2 linear Hamiltonian system; the feedback
  propagator is kept as its exponent F, never as a table.

Each norm report comes from one evaluation (`_mainthm_norms`) on its
grid, and every verdict on those norms reads that report: the `check`
verb takes mainthm and riccati_solvable from one [0, T] report, and the
shifted one too when Seff = 0, SeffT = 0 and Q is positive definite,
where the shifted weight Q + Seff is Q.  |||phi||| forms phi(s, t) only
for s >= t and integrates over s by one reversed cumulative sum per
batch of t; spectral norms come from `odecore.spectral_norms`, without
an SVD.  All suprema are taken over the sample grid; strict "< 1"
verdicts carry a borderline flag when the value is within 1e-9 of 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .coeffs import (ProblemSpec, Schedule, _min_eig, csv_text, hamiltonian,
                     sample, system_blocks, uniform_grid)
from .odecore import (_rk4_linear, _sweep, inv_sqrt, psd_sqrt, spectral_norm,
                      spectral_norms)

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


def compute_L(spec: ProblemSpec) -> float:
    """The small-time constant

        L = T (||QT+SeffT||^2 + ||Q+Seff||_T) ||B R^-1 B*||_T
            * exp((2||A+Abar||_T + 2||A*||_T + ||BRB||_T + ||Q+Seff||_T) T)

    with ||.||_T the supremum of the spectral norm over the schedule's
    pieces.  On a validated spec every piece starts on a `build_grid`
    point, so this is the supremum over grid samples.  L < 1 guarantees
    unique solvability; it is typically far too large to be useful, which
    is what the contraction condition improves on.
    """
    T = spec.T
    blocks = system_blocks(spec)

    def sup(sched: Schedule) -> float:
        return max(spectral_norm(M) for _, M in sched.values)

    brb_sup = sup(blocks.BRB)
    qs_sup = sup(blocks.QS)
    a_abar_sup = sup(Schedule.combine(np.add, spec.A, spec.Abar))
    astar_sup = sup(spec.A)
    gterm = spectral_norm(blocks.GT)
    with np.errstate(over="ignore"):  # L = inf is the answer, not a warning
        growth = np.exp((2 * a_abar_sup + 2 * astar_sup + brb_sup + qs_sup) * T)
    return float(T * (gterm ** 2 + qs_sup) * brb_sup * growth)


def _phi_weighted_norm(A_sched: Schedule, sqrtQ: np.ndarray,
                       sqrtQ_terminal: np.ndarray, grid: np.ndarray) -> float:
    """|||phi||| = sup_t sqrt(||phi*(T,t) QT^1/2||^2
                              + int_t^T ||phi*(s,t) Qs^1/2||^2 ds).

    Uses phi(s,t) = phi(s,0) phi(t,0)^-1 so a single fundamental-solution
    pass suffices; the products are formed (one BLAS-backed einsum) and
    normed in batches of times t, each against the samples s >= the
    batch's first t, since the integral reads no s < t.  A batch's
    integrals over s >= t come from one `_tail_trapezoid`, which adds
    only non-negative terms, from T backwards.  Raises ValueError where
    Phi(t, 0) cannot be inverted (LinAlgError) or the norm is not finite.
    """
    Phi = _rk4_linear(A_sched, np.eye(sqrtQ.shape[-1]), grid)
    G = np.einsum("sji,sjk->sik", Phi, sqrtQ)          # phi(s,0)^T Qs^1/2
    X = np.linalg.inv(Phi).transpose(0, 2, 1)          # phi(t,0)^-T
    K = grid.size
    best = 0.0
    # squares past the float range are caught below as a non-finite norm
    with np.errstate(over="ignore"):
        terminal = spectral_norms(X @ (Phi[-1].T @ sqrtQ_terminal)) ** 2
        for lo in range(0, K, PHI_BLOCK):
            hi = min(lo + PHI_BLOCK, K)
            prod = np.einsum("tij,sjk->tsik", X[lo:hi], G[lo:], optimize=True)
            norms2 = spectral_norms(prod) ** 2          # (hi-lo, K-lo)
            best = max(best, float(np.max(
                terminal[lo:hi] + _tail_trapezoid(norms2, grid[lo:]))))
    if not np.isfinite(best):
        raise ValueError("the norm is not finite")
    return float(np.sqrt(best))


def _tail_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """int_{x_j}^{x_end} y[j] by the trapezoid rule, for each row j of y
    (at most len(x) rows): the diagonal of one reversed cumulative sum of
    the trapezoid steps, summed from x_end backwards."""
    tail = _cumulative_trapezoid(y[:, ::-1], x[::-1])[:, ::-1]
    return -np.diagonal(tail)


def _mainthm_norms(spec: ProblemSpec, grid: np.ndarray, name: str,
                   Qcal: Schedule, QcalT: np.ndarray, S_running: Schedule,
                   S_terminal: np.ndarray) -> ConditionReport:
    """One evaluation on grid of the three contraction norms with running
    weight Qcal, terminal weight QcalT, and deviation weight S_running /
    S_terminal, of the lhs sqrt(T) |||phi||| |||Abar||| (1 + |||Seff|||)
    + |||Seff|||, and of its strict "< 1" verdict under `name`.

    An undefined norm leaves the norms unset and makes the verdict
    "undefined" with the reason, never an exception.  With Abar = 0 the
    lhs is |||Seff|||, and |||phi||| is left unset if it is undefined.
    """
    report = ConditionReport()

    def undefined(reason: str) -> ConditionReport:
        report.verdicts[name] = Verdict("undefined", reason=reason)
        return report

    abar_zero = all(np.all(M == 0) for _, M in spec.Abar.values)
    s_term_zero = np.all(S_terminal == 0)
    s_zero = all(np.all(M == 0) for _, M in S_running.values) and s_term_zero

    try:
        sqrtQ = sample(Qcal.map(psd_sqrt), grid)
    except ValueError as exc:
        return undefined(f"running weight has no PSD square root: {exc}")
    try:
        sqrtQT = psd_sqrt(QcalT)
    except ValueError as exc:
        return undefined(f"terminal weight has no PSD square root: {exc}")

    inv_sqrtQ = None
    if not (abar_zero and s_zero):
        try:
            inv_sqrtQ = sample(Qcal.map(inv_sqrt), grid)
        except ValueError as exc:
            return undefined(
                f"running weight must be positive definite: {exc}")

    try:
        phi = _phi_weighted_norm(spec.A, sqrtQ, sqrtQT, grid)
    except ValueError as exc:
        if not abar_zero:
            return undefined(f"|||phi||| is undefined on this grid: {exc}")
        phi = None

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
                return undefined(
                    "terminal deviation weight is nonzero, so the terminal "
                    f"weight must be positive definite: {exc}")
            s = max(s, spectral_norm(inv_sqrtQT @ S_terminal @ inv_sqrtQT))

    report.phi_norm, report.abar_norm, report.s_norm = phi, abar, s
    report.mainthm_lhs = (s if abar_zero else
                          float(np.sqrt(spec.T) * phi * abar * (1.0 + s) + s))
    report.verdicts[name] = _strict_less_one(report.mainthm_lhs)
    return report


def compute_mainthm_norms(spec: ProblemSpec,
                          grid: np.ndarray) -> ConditionReport:
    """The contraction condition

        sqrt(T) |||phi||| |||Abar||| (1 + |||Seff|||) + |||Seff||| < 1.

    Requires the running Q to be positive definite on the grid whenever
    Abar or Seff is nonzero; when SeffT = 0 the terminal QT only needs a
    PSD square root.  Undefined norms produce an "undefined" verdict with
    the reason, never an exception.  The report's norms also decide the
    Riccati solvability criterion (`riccati_solvable_verdict`).
    """
    return _mainthm_norms(spec, grid, "mainthm", spec.Q, spec.QT,
                          system_blocks(spec).Seff, spec.terminal_effective_S)


def check_shifted(spec: ProblemSpec, Qcal: Schedule, grid: np.ndarray,
                  QcalT: np.ndarray) -> ConditionReport:
    """The shifted condition: Q replaced by a caller-chosen PD weight Qcal
    and Seff replaced by Q + Seff - Qcal throughout.

    QcalT is the terminal replacement weight.  With Qcal = Q and
    QcalT = QT this reduces exactly to compute_mainthm_norms.
    """
    lam_min = min(_min_eig(M) for _, M in Qcal.values)
    if lam_min <= 0:
        raise ValueError(
            f"shift weight is not positive definite (min eigenvalue "
            f"{lam_min:.3e})")
    blocks = system_blocks(spec)
    return _mainthm_norms(spec, grid, "shifted", Qcal, QcalT,
                          Schedule.combine(np.subtract, blocks.QS, Qcal),
                          blocks.GT - QcalT)


def riccati_solvable_verdict(norms: ConditionReport, T: float,
                             T0: float | None) -> Verdict:
    """Solvability criterion for the nonsymmetric Riccati equation, read
    off a `compute_mainthm_norms` report on [0, T0] (terminal weights are
    the problem's own): the equation on [0, T] is solvable if either
    |||Abar||| = 0 and |||Seff||| < 1, or |||Abar||| != 0 and
    T < ((1 - |||Seff|||) / (|||phi||| |||Abar||| (1 + |||Seff|||)))^2 ^ T0.

    The norms are taken on [0, T0], so the cap T0 holds with equality:
    the test is T < bound and T <= T0, and only T near the bound is
    borderline.  T0 = None drops the cap, which is vacuous for constant
    coefficients (the norms are then those on [0, T]).  Undefined norms
    give the report's "undefined" verdict.
    """
    phi, abar, s = norms.phi_norm, norms.abar_norm, norms.s_norm
    if abar is None:
        return Verdict("undefined", reason=norms.verdicts["mainthm"].reason)
    if abar == 0.0:
        verdict = _strict_less_one(s)
        verdict.reason = "Abar = 0 branch: requires |||Seff||| < 1"
        if verdict.status == "violated":
            verdict.status = "not-concluded"
        return verdict
    if s >= 1.0:
        return Verdict("not-concluded", reason=f"|||Seff||| = {s:.6g} >= 1")
    bound = ((1.0 - s) / (phi * abar * (1.0 + s))) ** 2
    within = T < bound and (T0 is None or T <= T0)
    requirement = (f"requires T < {bound:.6g}" if T0 is None
                   else f"requires T < {bound:.6g} and T <= T0={T0:g}")
    return Verdict("satisfied" if within else "not-concluded",
                   reason=requirement,
                   borderline=abs(T - bound) < BORDERLINE_TOL)


def check_riccati_solvable(spec: ProblemSpec, T0: float | None = None,
                           steps: int = 400) -> ConditionReport:
    """`riccati_solvable_verdict` on the contraction norms evaluated on a
    uniform grid of [0, T0].

    T0 = None selects the T0-free form (norms on the problem's own
    horizon) and requires a constant-coefficient spec.
    """
    if T0 is None and not spec.is_constant:
        raise ValueError("the T0-free form of the criterion needs "
                         "constant coefficients; pass T0 explicitly")
    norms = compute_mainthm_norms(
        spec, uniform_grid(spec.T if T0 is None else T0, steps))
    return ConditionReport(
        phi_norm=norms.phi_norm, abar_norm=norms.abar_norm,
        s_norm=norms.s_norm,
        verdicts={"riccati_solvable": riccati_solvable_verdict(norms, spec.T,
                                                               T0)})


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
        for f in fields(self):
            value = getattr(self, f.name)
            if not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass
class FeedbackRiccati:
    """Pi path and the propagator exponent F(t) = int_0^t (a - (b^2/r) Pi),
    from which Phi(t, tau) = exp(F(tau) - F(t))."""

    grid: np.ndarray
    pi: np.ndarray
    F: np.ndarray


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """int_{x_0}^{x_k} y by the trapezoid rule along the last axis, for
    every k (0 at k = 0)."""
    steps = np.diff(x) * (y[..., 1:] + y[..., :-1]) / 2.0
    return np.concatenate([np.zeros_like(y[..., :1]),
                           np.cumsum(steps, axis=-1)], axis=-1)


def appendix_feedback_riccati(p: AppendixParams,
                              grid: np.ndarray) -> FeedbackRiccati:
    """Feedback route: the positive Riccati solution of

        dPi/dt + 2a Pi - (b^2/r) Pi^2 + 1 = 0,  Pi_T = 0,

    as the decoupling p = Pi x of d/dt (x; p) = [[a, -b^2/r], [-1, -a]]
    (x; p), by `odecore._sweep`, and the exponent F of the closed-loop
    propagator Phi(t, tau) = exp(-int_tau^t (a - (b^2/r) Pi)), by the
    trapezoid rule.
    """
    k2 = p.b ** 2 / p.r
    H = hamiltonian(*map(Schedule.constant, (p.a, k2, 1.0)))
    pi = _sweep(H, np.zeros((1, 1)), grid)[0][:, 0, 0]
    F = _cumulative_trapezoid(p.a - k2 * pi, grid)
    return FeedbackRiccati(grid=grid, pi=pi, F=F)


def appendix_feedback_condition(p: AppendixParams, grid: np.ndarray) -> dict:
    """Numeric value of the feedback-route contraction bound

        sup_t int_0^t Phi(s,t) {|alpha| + (b^2/r) int_s^T Phi(s,tau)
                                 (|alpha| Pi_tau + |gamma|) dtau} ds

    by nested trapezoid quadrature, together with the relaxed closed-form
    quantity |gamma| (1 - e^{-bT}).  The relaxation uses b Pi < 1, so it
    never exceeds the numeric value.
    """
    ric = appendix_feedback_riccati(p, grid)
    F = ric.F
    g = np.abs(p.alpha) * ric.pi + np.abs(p.gamma)

    # inner(s) = int_s^T Phi(s,tau) g(tau) dtau, Phi(s,tau) = e^{F(tau)-F(s)}
    weighted = np.exp(F) * g
    head = _cumulative_trapezoid(weighted, grid)
    tail = head[-1] - head                     # int_s^T
    inner = np.exp(-F) * tail
    h = np.abs(p.alpha) + p.b ** 2 / p.r * inner
    # outer(t) = int_0^t Phi(s,t) h(s) ds, Phi(s,t) = e^{F(t)-F(s)}
    outer = np.exp(F) * _cumulative_trapezoid(np.exp(-F) * h, grid)
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
                           grid: np.ndarray) -> AdjointRouteReport:
    """Adjoint route: the nonsymmetric scalar Riccati pair

        dP/dt = -(2a+alpha) P + (b^2/r) P^2 - 1 + gamma,   P_T = 0,
        drho/dt = -(a - (b^2/r) P_t) rho + gamma eta,       rho_T = 0,

    the closed-form check against the root formula when gamma < 1 and
    b != 0, the condition gamma <= 1, and the residual of the backward
    equation along the mean path driven by pbar = P zbar + rho.

    The rho equation carries the (b^2/r) P_t factor required by the
    identification pbar = P zbar + rho, which decouples the mean system

        d/dt (zbar; pbar) = [[a+alpha, -b^2/r], [-(1-gamma), -a]]
                            (zbar; pbar) + (0; gamma eta),

    zbar(0) = 0, pbar(T) = 0.  One `odecore._sweep` of it gives P and rho,
    and zbar by its forward pass.
    """
    k2 = p.b ** 2 / p.r
    H = hamiltonian(*map(Schedule.constant,
                         (p.a + p.alpha, k2, 1.0 - p.gamma, p.a)))
    source = np.tile([0.0, p.gamma * p.eta], (grid.size - 1, 3, 1))
    Gamma, rho, zbar = _sweep(H, np.zeros((1, 1)), grid, source,
                              x0=np.zeros(1))
    P, rho, zbar = Gamma[:, 0, 0], rho[:, 0], zbar[:, 0]

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


def appendix_report(p: AppendixParams, grid: np.ndarray) -> dict:
    """Side-by-side verdicts of the two conditions on the same model."""
    feedback = appendix_feedback_condition(p, grid)
    adjoint = appendix_adjoint_route(p, grid)
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
                    ((name, "nan" if lhs is None else float(lhs),
                      float(threshold), verdict)
                     for name, (lhs, threshold, verdict) in reports.items()))
