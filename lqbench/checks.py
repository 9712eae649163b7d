"""Correctness checks on workload outputs.

Every check is a pure function of outputs and returns `Check` records, so
the tests can feed it perturbed outputs.  An output that is an exception
instance stands for a call that raised.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

# Criterion 9 of the acceptance suite.
GAP_SLOPE_BAND = (-1.3, -0.7)
COST_SLOPE_BAND = (-0.8, -0.2)
PROBE_SE_FACTOR = 3.0

BOUNDARY_TOL = 1e-8
AGREEMENT_TOL = 1e-6

# Reference det Phi22 values of the bundled two-dimensional examples.
SCAN_REFERENCE = {
    "counterexample_2d_1": ((0.83, 0.1244555), (0.86, -0.1295142)),
    "counterexample_2d_2": ((1.0, -0.3582768),),
}
SCAN_TOL = 1e-4


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def _raised(x) -> bool:
    return isinstance(x, BaseException)


def _sup(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def mc_checks(rates, probe) -> list[Check]:
    """Criterion 9's bands: log-log slopes of the McKean-Vlasov gap and
    the cost gap, and no profitable deviation beyond 3 standard errors."""
    if _raised(rates) or _raised(probe):
        failed = rates if _raised(rates) else probe
        return [Check("mc.run", False, repr(failed))]
    values = np.concatenate([
        rates.gap_mean, rates.gap_stderr, rates.cost_gap_mean,
        rates.cost_gap_stderr, probe.cost_diff, probe.stderr,
        [rates.gap_slope, rates.cost_gap_slope]])
    lo, hi = GAP_SLOPE_BAND
    clo, chi = COST_SLOPE_BAND
    floor = PROBE_SE_FACTOR * float(probe.stderr[np.argmin(probe.cost_diff)])
    return [
        Check("mc.finite", bool(np.all(np.isfinite(values)))),
        Check("mc.gap_slope", lo <= rates.gap_slope <= hi,
              f"{rates.gap_slope:.4f} in [{lo}, {hi}]"),
        Check("mc.cost_slope", clo <= rates.cost_gap_slope <= chi,
              f"{rates.cost_gap_slope:.4f} in [{clo}, {chi}]"),
        Check("mc.probe_min_gap", probe.min_gap >= -floor,
              f"{probe.min_gap:.3e} >= {-floor:.3e}"),
    ]


def eta_gamma_xi_gap(shoot, radon) -> float | None:
    """sup |eta - Gamma xi| over the grid, or None when a route raised."""
    if _raised(shoot) or _raised(radon):
        return None
    return _sup(shoot.eta, np.einsum("kij,kj->ki", radon.gamma, shoot.xi))


def spec_checks(label: str, kind: str, shoot, fp, radon, direct,
                sym) -> list[Check]:
    """Cross-route identities on one det_sweep spec.

    Shooting boundary residual; shooting = fixed point (xi and eta);
    eta = Gamma xi wherever Radon succeeds, on constant-coefficient specs;
    on classical specs the direct nonsymmetric path equals the symmetric Xi.

    On piecewise specs eta = Gamma xi holds only to first order in the
    step (the RK4 stages see the next piece's coefficients at a
    breakpoint), so there the gap is recorded by the workload as
    `riccati.eta_gamma_xi_piecewise_max` and not checked here.
    """
    out = []
    if _raised(shoot):
        return [Check(f"{label}.shooting", False, repr(shoot))]
    out.append(Check(f"{label}.boundary",
                     shoot.boundary_residual < BOUNDARY_TOL,
                     f"{shoot.boundary_residual:.2e}"))
    if _raised(fp):
        out.append(Check(f"{label}.fixed_point", False, repr(fp)))
    else:
        gap = max(_sup(fp.xi, shoot.xi), _sup(fp.eta, shoot.eta))
        out.append(Check(f"{label}.fixed_point", gap < AGREEMENT_TOL,
                         f"{gap:.2e}"))
    gap = eta_gamma_xi_gap(shoot, radon)
    if gap is not None and kind != "piecewise":
        out.append(Check(f"{label}.eta_gamma_xi", gap < AGREEMENT_TOL,
                         f"{gap:.2e}"))
    if kind == "classical":
        if _raised(direct) or _raised(sym):
            out.append(Check(f"{label}.direct_vs_xi", False,
                             repr(direct if _raised(direct) else sym)))
        else:
            gap = _sup(direct.gamma, sym.gamma)
            out.append(Check(f"{label}.direct_vs_xi", gap < AGREEMENT_TOL,
                             f"{gap:.2e}"))
    return out


def exit_code_checks(expected: dict, got: dict) -> list[Check]:
    """One check per CLI invocation: exit code as expected."""
    return [Check(f"exit.{key}", got.get(key) == code,
                  f"got {got.get(key)}, expected {code}")
            for key, code in expected.items()]


def fixed_point_outcome_checks(expected: dict, stdout: dict) -> list[Check]:
    """The `solve` verb's fixed-point cross-check converges, or reports
    itself unavailable, where expected."""
    out = []
    for key, converges in expected.items():
        text = stdout.get(key, "")
        saw = ("fixed-point agreement" in text
               and "cross-check unavailable" not in text)
        out.append(Check(f"fixed_point.{key}", saw == converges,
                         "converged" if saw else "unavailable"))
    return out


def scan_checks(scan_text: dict) -> list[Check]:
    """det Phi22 in scan.csv against the reference values to 1e-4."""
    out = []
    for config, points in SCAN_REFERENCE.items():
        rows = list(csv.DictReader(io.StringIO(scan_text.get(config, ""))))
        for t, ref in points:
            vals = [float(r["det_phi22"]) for r in rows
                    if abs(float(r["t"]) - t) < 1e-9]
            ok = len(vals) == 1 and abs(vals[0] - ref) < SCAN_TOL
            out.append(Check(f"scan.{config}@{t:g}", ok,
                             f"{vals[0]:.7f} vs {ref}" if vals else "missing"))
    return out


def repeat_checks(first: dict, later: dict, prefix: str) -> list[Check]:
    """Each fingerprint of a later pass equals the first pass's."""
    keys = sorted(set(first) | set(later))
    return [Check(f"{prefix}.{key}", first.get(key) == later.get(key))
            for key in keys]
