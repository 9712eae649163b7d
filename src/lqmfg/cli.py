"""Batch front end: parse a problem config, dispatch to the solvers, and
write reports plus CSV artifacts.

Verbs: validate | check | solve | riccati | scan | mftype | compare |
simulate | appendix.  Exit codes: 0 success, 1 config or validation
failure, 2 solver-reported non-existence (singular boundary operator),
3 internal error.  Every nonzero exit prints a single `ERROR:` line.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import conditions, fbsolver, mftype, riccati, simulator
from .coeffs import (ConfigError, ProblemSpec, build_grid, load_config,
                     system_blocks, validate, _parse_matrix)
from .conditions import AppendixParams
from .fbsolver import NoConvergence, SingularShootingMatrix
from .riccati import BoundaryOperatorSingular

VERBS = ("validate", "check", "solve", "riccati", "scan", "mftype",
         "compare", "simulate", "appendix")


def bundled_config(name: str) -> Path:
    """Path of a config shipped with the package (counterexample_2d_1,
    counterexample_2d_2, classical_lq, benchmark_scalar, appendix_scalar)."""
    ref = resources.files("lqmfg").joinpath("configs", f"{name}.cfg")
    with resources.as_file(ref) as path:
        return Path(path)


def _read_sections(path) -> dict[str, list[tuple[int, str, str]]]:
    """Raw (lineno, key, value) triples per section, for CLI-level extras
    that are not part of the problem data model."""
    sections: dict[str, list[tuple[int, str, str]]] = {}
    current = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
                sections.setdefault(current, [])
                continue
            if current is None or "=" not in line:
                continue
            key, value = (part.strip() for part in line.split("=", 1))
            sections[current].append((lineno, key, value))
    return sections


def _parse_appendix(path) -> AppendixParams:
    rows = _read_sections(path).get("appendix")
    if rows is None:
        raise ConfigError("appendix verb needs an [appendix] section")
    values = {key: value for _, key, value in rows}
    missing = [k for k in ("a", "b", "r", "alpha", "gamma", "eta", "T")
               if k not in values]
    if missing:
        raise ConfigError(f"[appendix] is missing keys: {', '.join(missing)}")
    try:
        return AppendixParams(a=float(values["a"]), b=float(values["b"]),
                              r=float(values["r"]),
                              alpha=float(values["alpha"]),
                              gamma=float(values["gamma"]),
                              eta=float(values["eta"]), T=float(values["T"]))
    except ValueError as exc:
        raise ConfigError(f"bad [appendix] value: {exc}") from None


def _x0_cov(path, n: int) -> np.ndarray:
    for lineno, key, value in _read_sections(path).get("problem", []):
        if key == "x0_cov":
            return _parse_matrix(value, lineno)
    return np.zeros((n, n))


def _write(out_dir: Path, name: str, content: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / name
    target.write_text(content, encoding="utf-8")
    return target


def _load_validated(args) -> ProblemSpec:
    spec = load_config(args.config)
    report = validate(spec)
    if not report.ok:
        raise ConfigError("config failed validation: "
                          + "; ".join(report.violations))
    return spec


def _steps(args, default: int) -> int:
    """The --steps value or the verb's default, checked before any solve."""
    steps = args.steps if args.steps is not None else default
    if steps < 1:
        raise ConfigError(f"--steps must be at least 1, got {steps}")
    return steps


def _cmd_validate(args, out: Path) -> int:
    spec = load_config(args.config)
    report = validate(spec)
    print(report)
    if not report.ok:
        raise ConfigError("config failed validation: "
                          + "; ".join(report.violations))
    return 0


def _cmd_scan(args, out: Path) -> int:
    spec = _load_validated(args)
    t_max = args.tmax if args.tmax is not None else spec.T
    if not 0.0 < t_max < np.inf:
        raise ConfigError(f"--tmax must be positive and finite, got {t_max}")
    steps = _steps(args, 1000)
    report = fbsolver.existence_scan(spec, t_max, steps)
    _write(out, "scan.csv", fbsolver.scan_csv(report))
    print(f"scan: {steps} points on [0, {t_max:g}]; "
          f"{len(report.sign_change_brackets)} sign-change bracket(s) "
          f"for det Phi22: {report.sign_change_brackets}")
    return 0


def _cmd_solve(args, out: Path) -> int:
    spec = _load_validated(args)
    grid = build_grid(spec, _steps(args, 2000))
    sol = fbsolver.solve_equilibrium_shooting(spec, grid)
    _write(out, "solution.csv", fbsolver.fbsolution_csv(sol))
    tol = args.tol if args.tol is not None else 1e-10
    try:
        fp = fbsolver.fixed_point_iterate(spec, grid, tol=tol)
        agreement = float(np.max(np.abs(fp.xi - sol.xi)))
        print(f"solve: boundary residual {sol.boundary_residual:.3e}; "
              f"fixed-point agreement (sup norm) {agreement:.3e} "
              f"after {fp.iterations} iteration(s)")
    except NoConvergence as exc:
        print(f"solve: boundary residual {sol.boundary_residual:.3e}; "
              f"fixed-point cross-check unavailable ({exc})")
    return 0


def _cmd_riccati(args, out: Path) -> int:
    spec = _load_validated(args)
    grid = build_grid(spec, _steps(args, 2000))
    direct = riccati.solve_nonsymmetric_direct(spec, grid)
    _write(out, "riccati_direct.csv", riccati.riccati_csv(direct))
    if direct.blow_up is not None:
        print(f"riccati: direct integration blew up at grid index "
              f"{direct.blow_up} (t={grid[direct.blow_up]:g})")
    if spec.n == 1 and spec.is_constant:
        blocks = system_blocks(spec)
        closed = riccati.solve_1d_closed_form(
            a=float(spec.A.at(0)[0, 0]), abar=float(spec.Abar.at(0)[0, 0]),
            b=float(spec.B.at(0)[0, 0]), r=float(spec.R.at(0)[0, 0]),
            q_plus_s=float(blocks.QS.at(0)[0, 0]),
            qT_plus_sT=float(blocks.GT[0, 0]), T=spec.T, grid=grid)
        _write(out, "riccati_closed_form.csv", riccati.riccati_csv(closed))
    radon = riccati.solve_nonsymmetric_radon(spec, grid)
    _write(out, "riccati_radon.csv", riccati.riccati_csv(radon))
    print("riccati: Radon and direct paths written")
    return 0


def _cmd_check(args, out: Path) -> int:
    spec = _load_validated(args)
    steps = _steps(args, 400)
    grid = build_grid(spec, steps)
    L = conditions.compute_L(spec, grid)
    main = conditions.compute_mainthm_norms(spec, grid)
    main.L = L
    main.verdicts["small_time_L"] = conditions._strict_less_one(L)
    ric = conditions.check_riccati_solvable(
        spec, T0=None if spec.is_constant else spec.T, steps=steps)
    for name, verdict in ric.verdicts.items():
        main.verdicts[name] = verdict

    # shifted variant with the canonical positive weight Qcal = Q + Seff
    blocks = system_blocks(spec)
    shifted_lhs = None
    try:
        shifted = conditions.check_shifted(spec, blocks.QS, grid,
                                           QcalT=blocks.GT)
        shifted_lhs = shifted.mainthm_lhs
        main.verdicts["shifted_positive_weight"] = shifted.verdicts["shifted"]
    except ValueError as exc:
        main.verdicts["shifted_positive_weight"] = conditions.Verdict(
            "undefined", reason=str(exc))

    print(conditions.report_text(main), end="")
    rows = {
        "small_time_L": (L, 1.0, main.verdicts["small_time_L"].status),
        "mainthm": (main.mainthm_lhs, 1.0, main.verdicts["mainthm"].status),
        "shifted_positive_weight": (
            shifted_lhs, 1.0, main.verdicts["shifted_positive_weight"].status),
        "riccati_solvable": (None, 1.0,
                             main.verdicts["riccati_solvable"].status),
    }
    _write(out, "conditions.csv", conditions.report_csv(rows))
    return 0


def _cmd_mftype(args, out: Path) -> int:
    spec = _load_validated(args)
    sol = mftype.solve_mftype_mean(spec, build_grid(spec, _steps(args, 2000)))
    _write(out, "mftype.csv", mftype.mftype_csv(sol))
    print(f"mftype: boundary residual {sol.boundary_residual:.3e}")
    return 0


def _cmd_compare(args, out: Path) -> int:
    spec = _load_validated(args)
    if spec.n != 1 or spec.m != 1:
        raise ConfigError("compare needs a scalar (n = m = 1) config")
    if not spec.is_constant:
        raise ConfigError("compare needs constant coefficients")
    steps = _steps(args, 2000)
    res = mftype.compare_mfg_mftype(
        a=float(spec.A.at(0)[0, 0]), abar=float(spec.Abar.at(0)[0, 0]),
        b=float(spec.B.at(0)[0, 0]), T=spec.T,
        x0_mean=float(spec.x0_mean[0]), q=float(spec.Q.at(0)[0, 0]),
        r=float(spec.R.at(0)[0, 0]), qT=float(spec.QT[0, 0]), steps=steps)
    text = mftype.comparison_text(res)
    print(text, end="")
    _write(out, "compare.txt", text)
    return 0


def _cmd_simulate(args, out: Path) -> int:
    spec = _load_validated(args)
    # every flag is checked here, before any solve or simulation runs
    steps = _steps(args, 100)
    try:
        N_values = (tuple(int(x) for x in args.N.split(","))
                    if args.N else (10, 50, 250, 1250))
    except ValueError:
        raise ConfigError(f"--N must be comma-separated integers, "
                          f"got {args.N!r}") from None
    if len(set(N_values)) < 3:
        raise ConfigError("--N needs at least 3 distinct player counts "
                          "for the slope fit")
    try:
        cfg = simulator.SimConfig(
            N_values=N_values,
            paths=args.paths if args.paths is not None else 200,
            seed=args.seed if args.seed is not None else 20240,
            dt=spec.T / steps,
            x0_mean=spec.x0_mean,
            x0_cov=_x0_cov(args.config, spec.n))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rates = simulator.mckean_gap(spec, cfg)
    _write(out, "rates.csv", simulator.rate_csv(rates))
    probe = simulator.epsilon_nash_probe(spec, cfg, max(cfg.N_values))
    _write(out, "probe.csv", simulator.probe_csv(probe))
    print(f"simulate: gap slope {rates.gap_slope:.3f} "
          f"(se {rates.gap_slope_stderr:.3f}), cost gap slope "
          f"{rates.cost_gap_slope:.3f} (se {rates.cost_gap_slope_stderr:.3f}), "
          f"probe min gap {probe.min_gap:.4g}")
    return 0


def _cmd_appendix(args, out: Path) -> int:
    params = _parse_appendix(args.config)
    steps = _steps(args, 2000)
    rep = conditions.appendix_report(params, steps=steps)
    lines = [
        f"feedback-route contraction bound: lhs = {rep['feedback_lhs']:.6g}"
        " -> " + ("satisfied" if rep["feedback_satisfied"] else "violated"),
        f"feedback-route simplified |gamma|(1-e^-bT) = "
        f"{rep['feedback_simplified']:.6g} -> "
        + ("satisfied" if rep["feedback_simplified_satisfied"] else "violated"),
        f"adjoint-route condition gamma <= 1: gamma = "
        f"{rep['adjoint_gamma']:g} -> "
        + ("satisfied" if rep["adjoint_gamma_condition"] else "violated"),
    ]
    if rep["adjoint_closed_form_ok"] is not None:
        lines.append("closed-form Riccati check: "
                     + ("ok" if rep["adjoint_closed_form_ok"] else "FAILED"))
    lines.append(f"mean-system backward residual: "
                 f"{rep['adjoint_pbar_residual']:.3e}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    _write(out, "appendix.txt", text)
    def verdict(flag: bool) -> str:
        return "satisfied" if flag else "violated"

    rows = {
        "feedback_numeric": (rep["feedback_lhs"], 1.0,
                             verdict(rep["feedback_satisfied"])),
        "feedback_simplified": (rep["feedback_simplified"], 1.0,
                                verdict(rep["feedback_simplified_satisfied"])),
        "adjoint_gamma": (rep["adjoint_gamma"], 1.0,
                          verdict(rep["adjoint_gamma_condition"])),
    }
    _write(out, "appendix.csv", conditions.report_csv(rows))
    return 0


_DISPATCH = {
    "validate": _cmd_validate,
    "check": _cmd_check,
    "solve": _cmd_solve,
    "riccati": _cmd_riccati,
    "scan": _cmd_scan,
    "mftype": _cmd_mftype,
    "compare": _cmd_compare,
    "simulate": _cmd_simulate,
    "appendix": _cmd_appendix,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqmfg",
        description="Linear-quadratic mean field game solver")
    parser.add_argument("verb", choices=VERBS)
    parser.add_argument("--config", required=True, help="problem config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--steps", type=int, default=None,
                        help="grid steps (scan points, Euler steps, ...)")
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tmax", type=float, default=None,
                        help="scan horizon (scan verb)")
    parser.add_argument("--N", default=None,
                        help="comma-separated player counts (simulate verb)")
    parser.add_argument("--paths", type=int, default=None,
                        help="Monte Carlo replications (simulate verb)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        return _DISPATCH[args.verb](args, out)
    except (ConfigError, OSError) as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    except (SingularShootingMatrix, BoundaryOperatorSingular) as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"ERROR: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
