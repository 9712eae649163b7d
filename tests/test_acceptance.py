"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `criterion N: PASS/FAIL` line (visible with -s or on
failure).  Criteria 1, 4 and 9 also enforce their runtime budgets.
"""

import time

import numpy as np
from scipy.linalg import expm

from conftest import (random_classical_spec,
                      random_contractive_scalar_spec, rk4_integrate,
                      rk4_integrate_backward)
from lqmfg.cli import bundled_config, main
from lqmfg.coeffs import build_grid, load_config, uniform_grid
from lqmfg.conditions import (AppendixParams, appendix_adjoint_route,
                              compute_mainthm_norms)
from lqmfg.fbsolver import (equilibrium_system, existence_scan,
                            fixed_point_iterate, refine_singular_horizon,
                            solve_equilibrium_shooting)
from lqmfg.mftype import compare_mfg_mftype
from lqmfg.odecore import _rk4_linear
from lqmfg.riccati import (solve_1d_closed_form, solve_nonsymmetric_direct,
                           solve_nonsymmetric_radon, solve_symmetric)
from lqmfg.simulator import SimConfig, epsilon_nash_probe, mckean_gap


def _report(number: int, ok: bool, detail: str):
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_example1_determinants(tmp_path):
    start = time.monotonic()
    code = main(["scan", "--config", str(bundled_config("counterexample_2d_1")),
                 "--tmax", "1.0", "--steps", "1000", "--out", str(tmp_path)])
    rows = (tmp_path / "scan.csv").read_text().strip().splitlines()[1:]
    d83 = float(rows[830].split(",")[1])
    d86 = float(rows[860].split(",")[1])
    spec = load_config(bundled_config("counterexample_2d_1"))
    scan = existence_scan(spec, 1.0, 1000)
    bracketed = any(0.83 < lo and hi < 0.86
                    for lo, hi in scan.sign_change_brackets)
    elapsed = time.monotonic() - start
    ok = (code == 0 and abs(d83 - 0.1244555) < 1e-4
          and abs(d86 + 0.1295142) < 1e-4 and bracketed and elapsed < 5.0)
    _report(1, ok, f"det22(0.83)={d83:.7f}, det22(0.86)={d86:.7f}, "
                   f"bracket in (0.83,0.86)={bracketed}, {elapsed:.2f}s")


def test_criterion_02_example2_determinant():
    spec = load_config(bundled_config("counterexample_2d_2"))
    scan = existence_scan(spec, 1.0, 1000)
    d1 = float(scan.det22[-1])
    ok = abs(d1 + 0.3582768) < 1e-4
    _report(2, ok, f"det22(1.0)={d1:.7f} vs -0.3582768")


def test_criterion_03_det21_nonzero_at_T0():
    spec = load_config(bundled_config("counterexample_2d_1"))
    scan = existence_scan(spec, 1.0, 1000)
    bracket = scan.sign_change_brackets[0]
    T0 = refine_singular_horizon(spec, bracket, tol=1e-6)
    M, _ = equilibrium_system(spec)
    Phi = expm(M.at(0.0) * T0)
    d21 = float(np.linalg.det(Phi[2:, :2]))
    d22 = float(np.linalg.det(Phi[2:, 2:]))
    ok = abs(d21) > 1e-3 and abs(d22) < 1e-4
    _report(3, ok, f"T0={T0:.6f}, det21(T0)={d21:.6f} (|.|>1e-3), "
                   f"det22(T0)={d22:.2e}")


def test_criterion_04_classical_reduction():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    for _ in range(20):
        spec = random_classical_spec(rng)
        grid = build_grid(spec, 800)
        sol = solve_equilibrium_shooting(spec, grid)
        assert sol.boundary_residual < 1e-8
        report = compute_mainthm_norms(spec, build_grid(spec, 200))
        assert report.verdicts["mainthm"].status == "satisfied", report
        xi = solve_symmetric(spec, grid)
        gamma = solve_nonsymmetric_direct(spec, grid)
        assert gamma.blow_up is None
        worst_gap = max(worst_gap,
                        float(np.max(np.abs(gamma.gamma - xi.gamma))))
    elapsed = time.monotonic() - start
    ok = worst_gap < 1e-6 and elapsed < 10.0
    _report(4, ok, f"20 cases: max |Gamma - Xi| = {worst_gap:.2e}, "
                   f"{elapsed:.2f}s (< 10s)")


def test_criterion_05_cross_method_consistency():
    rng = np.random.default_rng(515)
    worst_fp = 0.0
    worst_ric = 0.0
    radon_checked = 0
    for _ in range(20):
        spec = random_contractive_scalar_spec(rng)
        grid = build_grid(spec, 800)
        sol = solve_equilibrium_shooting(spec, grid)
        fp = fixed_point_iterate(spec, grid, tol=1e-11, max_iter=120)
        worst_fp = max(worst_fp, float(np.max(np.abs(fp.xi - sol.xi))))
        try:
            gamma = solve_nonsymmetric_radon(spec, grid)
        except Exception:
            continue
        radon_checked += 1
        resid = np.abs(sol.eta - np.einsum("kij,kj->ki", gamma.gamma, sol.xi))
        worst_ric = max(worst_ric, float(resid.max()))
    ok = worst_fp < 1e-6 and worst_ric < 1e-6 and radon_checked >= 15
    _report(5, ok, f"shooting vs fixed point sup = {worst_fp:.2e}, "
                   f"|eta - Gamma xi| = {worst_ric:.2e} "
                   f"on {radon_checked} Radon successes")


def test_criterion_06_closed_form_riccati_sweep():
    rng = np.random.default_rng(606)
    worst = 0.0
    branch_counts = [0, 0, 0]
    for case in range(30):
        branch = case % 3
        qs = float(rng.uniform(0.0, 2.0))
        gT = float(rng.uniform(0.0, 1.5))
        T = float(rng.uniform(0.3, 2.0))
        a = float(rng.uniform(-1.0, 1.0))
        if branch == 0:
            abar = float(rng.uniform(-1.0, 1.0))
            if abs(2 * a + abar) < 0.05:
                abar += 0.5
            b, r = 0.0, 1.0
        elif branch == 1:
            abar, b, r = -2.0 * a, 0.0, 1.0
        else:
            abar = float(rng.uniform(-1.0, 1.0))
            qs = float(rng.uniform(0.1, 2.0))
            b = float(rng.uniform(0.3, 1.5))
            r = float(rng.uniform(0.5, 2.0))
        branch_counts[branch] += 1
        grid = uniform_grid(T, 2000)
        closed = solve_1d_closed_form(a=a, abar=abar, b=b, r=r, q_plus_s=qs,
                                      qT_plus_sT=gT, grid=grid)
        two_a, k2 = 2 * a + abar, b * b / r

        def field(t, g, two_a=two_a, k2=k2, qs=qs):
            return -two_a * g + k2 * g * g - qs

        oracle = rk4_integrate_backward(field, np.array(gT), grid)
        worst = max(worst, float(np.max(np.abs(closed.gamma[:, 0, 0]
                                               - oracle))))
    ok = worst < 1e-8 and min(branch_counts) >= 10
    _report(6, ok, f"30 cases ({branch_counts} per branch), "
                   f"max |closed - RK4| = {worst:.2e}")


def test_criterion_07_appendix_comparison(tmp_path):
    p = AppendixParams(a=0.0, b=1.0, r=1.0, alpha=0.0, gamma=0.0, eta=0.0,
                       T=1.0)
    rep = appendix_adjoint_route(p, uniform_grid(1.0, 2000))
    tanh_err = float(np.max(np.abs(rep.P - np.tanh(1.0 - rep.grid))))

    code = main(["appendix", "--config", str(bundled_config("appendix_scalar")),
                 "--out", str(tmp_path)])
    rows = (tmp_path / "appendix.csv").read_text().strip().splitlines()[1:]
    verdicts = {r.split(",")[0]: (float(r.split(",")[1]), r.split(",")[3])
                for r in rows}
    simplified, simp_verdict = verdicts["feedback_simplified"]
    _, gamma_verdict = verdicts["adjoint_gamma"]
    ok = (code == 0 and tanh_err < 1e-7 and gamma_verdict == "satisfied"
          and simplified >= 1.0 and simp_verdict == "violated")
    _report(7, ok, f"P=tanh(T-t) err {tanh_err:.2e}; gamma<=1 "
                   f"{gamma_verdict}, |gamma|(1-e^-bT)={simplified:.5f} "
                   f"{simp_verdict}")


def test_criterion_08_mfg_vs_mftype_comparison():
    same = compare_mfg_mftype(a=0.7, abar=0.0, b=1.0, T=1.0, x0_mean=1.0)
    diff = compare_mfg_mftype(a=2.0, abar=1.0, b=1.0, T=1.0, x0_mean=1.0)
    ok = (not same.differ and same.differ_closed_form is False
          and diff.differ and diff.differ_closed_form is True)
    _report(8, ok, f"abar=0: differ={same.differ}; documented case: "
                   f"differ={diff.differ}, closed form agrees="
                   f"{diff.differ == diff.differ_closed_form}")


def test_criterion_09_monte_carlo_rates():
    start = time.monotonic()
    spec = load_config(bundled_config("benchmark_scalar"))
    cfg = SimConfig(N_values=(10, 50, 250, 1250), paths=200, seed=20240,
                    dt=0.01, x0_mean=spec.x0_mean, x0_cov=[[0.25]])
    rates = mckean_gap(spec, cfg)
    probe = epsilon_nash_probe(spec, cfg, N=1250)
    elapsed = time.monotonic() - start
    se_floor = 3.0 * float(probe.stderr[np.argmin(probe.cost_diff)])
    ok = (-1.3 <= rates.gap_slope <= -0.7
          and -0.8 <= rates.cost_gap_slope <= -0.2
          and probe.min_gap >= -se_floor
          and elapsed < 180.0)
    _report(9, ok, f"gap slope {rates.gap_slope:.3f} in [-1.3,-0.7]; "
                   f"cost slope {rates.cost_gap_slope:.3f} in [-0.8,-0.2]; "
                   f"probe min gap {probe.min_gap:.2e} >= -{se_floor:.2e}; "
                   f"{elapsed:.0f}s (< 180s)")


def test_criterion_10_numerical_hygiene():
    def endpoint_error(K):
        path = rk4_integrate(lambda t, y: y, np.array([1.0]),
                             uniform_grid(1.0, K))
        return abs(path[-1, 0] - np.e)

    factor = endpoint_error(128) / endpoint_error(256)

    spec = load_config(bundled_config("counterexample_2d_1"))
    M, _ = equilibrium_system(spec)
    grid = uniform_grid(1.0, 500)
    dets = np.linalg.det(_rk4_linear(M, np.eye(4), grid))
    liouville = float(np.max(np.abs(dets / np.exp(0.4 * grid) - 1.0)))
    ok = 14.0 <= factor <= 18.0 and liouville < 1e-6
    _report(10, ok, f"RK4 order factor {factor:.2f} in [14,18]; "
                    f"Liouville det error {liouville:.2e} (< 1e-6 rel)")
