"""The three workloads: inputs made from the seed, one pass of the timed
body, the checks on a pass's outputs and a fingerprint that later passes
must reproduce.

Every call into the package goes through a module attribute looked up at
call time (`simulator.mckean_gap`, not a name bound at import), so the
traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import time
from pathlib import Path

import numpy as np

import checks as ck
import specgen

from lqmfg import cli, conditions, fbsolver, mftype, riccati, simulator
from lqmfg.coeffs import load_config

BUNDLED = ("counterexample_2d_1", "counterexample_2d_2", "classical_lq",
           "benchmark_scalar")
# Singular horizon of counterexample_2d_1: refine_singular_horizon on the
# bracket (0.83, 0.86) with tol 1e-15.  Fixed here so the input does not
# depend on the program under test.
T0_EXAMPLE_1 = 0.8452175132349433


class Calls:
    """Latency of every public call a pass makes, in order."""

    def __init__(self):
        self.samples: list[tuple[int, str, float, float]] = []
        self.pass_index = 0

    def run(self, label, fn, *args, **kwargs):
        """Call fn and return its result, or the exception it raised; the
        checks decide whether that exception was expected.  Records
        (pass, label, start, end) in perf_counter seconds."""
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - an outcome to check
            result = exc
        self.samples.append((self.pass_index, label, start,
                             time.perf_counter()))
        return result


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _x0_cov(config_text: str) -> np.ndarray:
    """The `x0_cov` matrix of a config's [problem] section."""
    for raw in config_text.splitlines():
        key, _, value = raw.split("#", 1)[0].partition("=")
        if key.strip() == "x0_cov":
            return np.array([[float(x) for x in row.split(",")]
                             for row in value.split(";")])
    raise ValueError("config has no x0_cov")


class McRates:
    """Monte Carlo rates on benchmark_scalar: the McKean-Vlasov gap over
    N = 10..1250, then the epsilon-Nash deviation probe at N = 1250."""

    N_VALUES = (10, 50, 250, 1250)
    PATHS = 40
    DT = 0.01

    def __init__(self, seed: int, work: Path):
        path = cli.bundled_config("benchmark_scalar")
        self.spec = load_config(path)
        self.cfg = simulator.SimConfig(
            N_values=self.N_VALUES, paths=self.PATHS, seed=seed, dt=self.DT,
            x0_mean=self.spec.x0_mean,
            x0_cov=_x0_cov(path.read_text(encoding="utf-8")))

    def run_pass(self, calls: Calls):
        rates = calls.run("mckean_gap", simulator.mckean_gap,
                          self.spec, self.cfg)
        probe = calls.run("epsilon_nash_probe", simulator.epsilon_nash_probe,
                          self.spec, self.cfg, max(self.N_VALUES))
        return rates, probe

    def collect(self, outputs):
        return outputs

    def checks(self, outputs) -> list[ck.Check]:
        return ck.mc_checks(*outputs)

    def fingerprint(self, outputs) -> dict[str, str]:
        rates, probe = outputs
        if isinstance(rates, Exception) or isinstance(probe, Exception):
            return {"estimates": repr(outputs)}
        return {"estimates": _digest(rates.gap_mean, rates.cost_gap_mean,
                                     probe.cost_diff, probe.stderr)}

    def extra(self, outputs) -> dict[str, float]:
        return {}


class DetSweep:
    """Deterministic solver stack on seed-generated specs, 800-step grid.

    Per pass: SPECS_PER_KIND classical-LQ specs (n cycling 1..4), as many
    scalar and as many 2-d piecewise specs (1..3 breakpoints), interleaved;
    eight public solver calls per spec.
    """

    SPECS_PER_KIND = 6

    def __init__(self, seed: int, work: Path):
        self.specs = make_det_specs(seed, self.SPECS_PER_KIND)

    def run_pass(self, calls: Calls):
        outputs = []
        for label, kind, spec in self.specs:
            grid = np.linspace(0.0, spec.T, specgen.GRID_STEPS + 1)
            coarse = np.linspace(0.0, spec.T, specgen.NORM_STEPS + 1)
            shoot = calls.run("solve_equilibrium_shooting",
                              fbsolver.solve_equilibrium_shooting, spec, grid)
            fp = calls.run("fixed_point_iterate",
                           fbsolver.fixed_point_iterate, spec, grid)
            radon = calls.run("solve_nonsymmetric_radon",
                              riccati.solve_nonsymmetric_radon, spec, grid)
            direct = calls.run("solve_nonsymmetric_direct",
                               riccati.solve_nonsymmetric_direct, spec, grid)
            sym = calls.run("solve_symmetric", riccati.solve_symmetric,
                            spec, grid)
            calls.run("compute_mainthm_norms",
                      conditions.compute_mainthm_norms, spec, coarse)
            calls.run("existence_scan", fbsolver.existence_scan, spec,
                      spec.T, specgen.GRID_STEPS)
            calls.run("solve_mftype_mean", mftype.solve_mftype_mean,
                      spec, grid)
            outputs.append((label, kind, shoot, fp, radon, direct, sym))
        return outputs

    def collect(self, outputs):
        return outputs

    def checks(self, outputs) -> list[ck.Check]:
        found = []
        for label, kind, shoot, fp, radon, direct, sym in outputs:
            found += ck.spec_checks(label, kind, shoot, fp, radon, direct,
                                    sym)
        return found

    def fingerprint(self, outputs) -> dict[str, str]:
        prints = {}
        for label, _, shoot, fp, *_ in outputs:
            parts = [x for x in (shoot, fp) if not isinstance(x, Exception)]
            prints[label] = _digest(*(a for x in parts for a in (x.xi, x.eta)))
        return prints

    def extra(self, outputs) -> dict[str, float]:
        """Largest |eta - Gamma xi| on the piecewise specs: the known
        first-order error at breakpoints, recorded rather than checked."""
        gaps = [ck.eta_gamma_xi_gap(shoot, radon)
                for _, kind, shoot, _, radon, *_ in outputs
                if kind == "piecewise"]
        return {"riccati.eta_gamma_xi_piecewise_max":
                max((g for g in gaps if g is not None), default=0.0)}


def make_det_specs(seed: int, per_kind: int):
    """(label, kind, spec) triples; the seed fixes every coefficient."""
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(per_kind):
        n = i % 4 + 1
        breaks = i % 3 + 1
        specs.append((f"classical{i}_n{n}", "classical",
                      specgen.classical_spec(rng, n)))
        specs.append((f"scalar{i}", "scalar",
                      specgen.contraction_scalar_spec(rng)))
        specs.append((f"piecewise{i}_b{breaks}", "piecewise",
                      specgen.piecewise_2d_spec(rng, breaks)))
    return specs


class CliBatch:
    """The CLI in-process: seven verbs on the four bundled problem configs,
    `appendix` on appendix_scalar, and `solve` and `riccati` on
    counterexample_2d_1 moved to its singular horizon T0.  The seed does
    not change these inputs."""

    VERBS = ("validate", "check", "solve", "riccati", "scan", "mftype",
             "compare")

    def __init__(self, seed: int, work: Path):
        self.work = work
        source = cli.bundled_config("counterexample_2d_1").read_text(
            encoding="utf-8")
        singular = work / "counterexample_2d_1_T0.cfg"
        moved = source.replace("\nT = 0.5\n", f"\nT = {T0_EXAMPLE_1!r}\n")
        if moved == source:
            raise ValueError("counterexample_2d_1 no longer has T = 0.5")
        singular.write_text(moved, encoding="utf-8")
        self.jobs = []  # (key, verb, config path, extra args, exit code)
        for name in BUNDLED:
            path = str(cli.bundled_config(name))
            for verb in self.VERBS:
                extra = ["--tmax", "1.0"] if verb == "scan" else []
                code = 1 if verb == "compare" and name != "benchmark_scalar" else 0
                self.jobs.append((f"{name}.{verb}", verb, path, extra, code))
        self.jobs.append(("appendix_scalar.appendix", "appendix",
                          str(cli.bundled_config("appendix_scalar")), [], 0))
        for verb in ("solve", "riccati"):
            self.jobs.append((f"counterexample_2d_1_T0.{verb}", verb,
                              str(singular), [], 2))
        self.passes = 0

    def run_pass(self, calls: Calls):
        out = self.work / f"pass{self.passes}"
        self.passes += 1
        codes, stdout = {}, {}
        for key, verb, path, extra, _ in self.jobs:
            argv = [verb, "--config", path, "--out",
                    str(out / key.split(".")[0]), *extra]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                codes[key] = calls.run(verb, cli.main, argv)
            stdout[key] = sink.getvalue()
        return out, codes, stdout

    def collect(self, outputs):
        """Read the pass's CSVs into memory and remove its directory."""
        out, codes, stdout = outputs
        csvs = {p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*.csv"))}
        shutil.rmtree(out)
        return csvs, codes, stdout

    def checks(self, outputs) -> list[ck.Check]:
        csvs, codes, stdout = outputs
        expected = {key: code for key, _, _, _, code in self.jobs}
        solves = {f"{name}.solve": name != "counterexample_2d_2"
                  for name in BUNDLED}
        scans = {name: csvs.get(f"{name}/scan.csv", b"").decode()
                 for name in ck.SCAN_REFERENCE}
        return (ck.exit_code_checks(expected, codes)
                + ck.fixed_point_outcome_checks(solves, stdout)
                + ck.scan_checks(scans))

    def fingerprint(self, outputs) -> dict[str, str]:
        return {name: hashlib.sha256(data).hexdigest()
                for name, data in outputs[0].items()}

    def extra(self, outputs) -> dict[str, float]:
        return {"cli.csv_bytes": float(sum(map(len, outputs[0].values())))}


WORKLOADS = {"mc_rates": McRates, "det_sweep": DetSweep,
             "cli_batch": CliBatch}


def make(name: str, seed: int, work: Path):
    """Set up a workload: load or generate its inputs."""
    os.makedirs(work, exist_ok=True)
    return WORKLOADS[name](seed, work)
