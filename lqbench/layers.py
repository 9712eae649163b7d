"""The package's layers as the traced run sees them.

Each of the eight lqmfg modules is a layer.  Every public function of a
module is wrapped (see tracer.Tracer.install) except `player_stream`,
which the simulator calls once per player per replication; its time lands
in `draw_initials_and_noise`.  Methods such as `Schedule.at` and the RK4
field closures are not module attributes, so they are never wrapped and
their time lands in their caller's self time.

Observers derive work counts from the arguments and results of the wrapped
calls; `per_layer_metrics` turns spans and counters into the metrics that
BENCHMARK.json lists under `per_layer`.
"""

from __future__ import annotations

import importlib
import math

import tracer as tr

MODULES = ("coeffs", "odecore", "fbsolver", "riccati", "conditions",
           "mftype", "simulator", "cli")
SKIP = ("simulator.player_stream",)
VERBS = ("validate", "check", "solve", "riccati", "scan", "mftype",
         "compare", "appendix")

# (metric name, unit); "<name>.calls" and "<name>.self_s" come from spans.
PER_LAYER = [
    ("odecore.rk4_integrate.calls", "count"),
    ("odecore.rk4_integrate.self_s", "s"),
    ("odecore.rk4_steps", "count"),
    ("odecore.fundamental_solution.self_s", "s"),
    ("odecore.matrix_exponential.calls", "count"),
    ("odecore.matrix_exponential.self_s", "s"),
    ("fbsolver.shoot_affine_tpbvp.calls", "count"),
    ("fbsolver.shoot_affine_tpbvp.self_s", "s"),
    ("fbsolver.solve_equilibrium_shooting.self_s", "s"),
    ("fbsolver.fixed_point_iterate.calls", "count"),
    ("fbsolver.fixed_point_iterate.self_s", "s"),
    ("fbsolver.fp_iterations", "count"),
    ("fbsolver.fp_converged_frac", "fraction"),
    ("fbsolver.existence_scan.self_s", "s"),
    ("fbsolver.refine_singular_horizon.self_s", "s"),
    ("fbsolver.singular_shooting", "count"),
    ("fbsolver.ode_residual_max", "1"),
    ("riccati.solve_nonsymmetric_radon.self_s", "s"),
    ("riccati.solve_nonsymmetric_direct.self_s", "s"),
    ("riccati.solve_symmetric.self_s", "s"),
    ("riccati.radon_singular", "count"),
    ("riccati.direct_blowups", "count"),
    ("riccati.eta_gamma_xi_piecewise_max", "1"),
    ("conditions.compute_mainthm_norms.self_s", "s"),
    ("conditions.compute_L.self_s", "s"),
    ("conditions.check_shifted.self_s", "s"),
    ("conditions.check_riccati_solvable.self_s", "s"),
    ("conditions.appendix_report.self_s", "s"),
    ("conditions.phi_pairs", "count"),
    ("mftype.solve_mftype_mean.self_s", "s"),
    ("mftype.compare_mfg_mftype.self_s", "s"),
    ("simulator.draw_initials_and_noise.calls", "count"),
    ("simulator.draw_initials_and_noise.self_s", "s"),
    ("simulator.streams_drawn", "count"),
    ("simulator.normals_drawn", "count"),
    ("simulator.mckean_gap.self_s", "s"),
    ("simulator.epsilon_nash_probe.self_s", "s"),
    ("simulator.equilibrium_law.self_s", "s"),
    ("simulator.player_steps", "count"),
    ("simulator.player_steps_per_s", "1/s"),
    ("coeffs.load_config.calls", "count"),
    ("coeffs.load_config.self_s", "s"),
    ("coeffs.validate.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    *((f"cli.{verb}.wall_s", "s") for verb in VERBS),
    ("cli.csv_bytes", "bytes"),
    ("cli.exit_nonzero", "count"),
    *((f"{module}.self_s", "s") for module in MODULES),
    *((f"{module}.share", "fraction") for module in MODULES),
    ("trace.outside_share", "fraction"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "fraction"),
]


def load_modules():
    return [importlib.import_module(f"lqmfg.{name}") for name in MODULES]


def _grid_points(args) -> int:
    grid = args.get("grid")
    if grid is not None:
        return len(grid)
    from lqmfg.coeffs import build_grid
    build_grid = getattr(build_grid, "__wrapped__", build_grid)  # no span
    return len(build_grid(args["spec"], args["steps"]))


def _sim_steps(spec, cfg) -> int:
    return round(spec.T / cfg.dt)


def _rk4(t, args, result, exc):
    # IntegrationOverflow carries the index of the step that blew up
    t.counters["odecore.rk4_steps"] += (
        len(args["grid"]) - 1 if exc is None else getattr(exc, "index", 0))


def _fixed_point(t, args, result, exc):
    if result is not None:
        t.counters["fbsolver.fp_iterations"] += result.iterations
        t.counters["fp_converged"] += 1
        _residual(t, args, result, exc)
    elif hasattr(exc, "iterations"):
        t.counters["fbsolver.fp_iterations"] += exc.iterations


def _residual(t, args, result, exc):
    if result is not None and math.isfinite(result.ode_residual):
        key = "fbsolver.ode_residual_max"
        t.counters[key] = max(t.counters[key], result.ode_residual)


def _shoot(t, args, result, exc):
    if type(exc).__name__ == "SingularShootingMatrix":
        t.counters["fbsolver.singular_shooting"] += 1


def _radon(t, args, result, exc):
    if type(exc).__name__ == "BoundaryOperatorSingular":
        t.counters["riccati.radon_singular"] += 1


def _direct(t, args, result, exc):
    if result is not None and result.blow_up is not None:
        t.counters["riccati.direct_blowups"] += 1


def _norms(t, args, result, exc):
    if result is not None and result.phi_norm is not None:
        t.counters["conditions.phi_pairs"] += _grid_points(args) ** 2


def _riccati_solvable(t, args, result, exc):
    if result is not None and result.phi_norm is not None:
        t.counters["conditions.phi_pairs"] += (args["steps"] + 1) ** 2


def _draws(t, args, result, exc):
    N, steps, n = args["N"], args["steps"], args["spec"].n
    t.counters["simulator.streams_drawn"] += N
    t.counters["simulator.normals_drawn"] += N * n * (steps + 1)


def _gap(t, args, result, exc):
    cfg = args["cfg"]
    # one coupled and one limit simulation per replication and N
    t.counters["simulator.player_steps"] += (
        2 * cfg.paths * sum(cfg.N_values) * _sim_steps(args["spec"], cfg))


def _probe(t, args, result, exc):
    cfg = args["cfg"]
    runs = 1 + len(args["deviation_thetas"]) + bool(args["include_best_response"])
    t.counters["simulator.player_steps"] += (
        runs * cfg.paths * args["N"] * _sim_steps(args["spec"], cfg))


def _nplayer(t, args, result, exc):
    t.counters["simulator.player_steps"] += (
        args["N"] * _sim_steps(args["spec"], args["cfg"]))


def _cli_main(t, args, result, exc):
    if result != 0:
        t.counters["cli.exit_nonzero"] += 1


OBSERVERS = {
    "odecore.rk4_integrate": _rk4,
    "fbsolver.fixed_point_iterate": _fixed_point,
    "fbsolver.solve_equilibrium_shooting": _residual,
    "fbsolver.shoot_affine_tpbvp": _shoot,
    "riccati.solve_nonsymmetric_radon": _radon,
    "riccati.solve_nonsymmetric_direct": _direct,
    "conditions.compute_mainthm_norms": _norms,
    "conditions.check_shifted": _norms,
    "conditions.check_riccati_solvable": _riccati_solvable,
    "simulator.draw_initials_and_noise": _draws,
    "simulator.mckean_gap": _gap,
    "simulator.epsilon_nash_probe": _probe,
    "simulator.simulate_nplayer": _nplayer,
    "cli.main": _cli_main,
}


def per_layer_metrics(tracer, traced_wall_s: float, passes: int,
                      extra: dict[str, float],
                      overhead_frac: float) -> dict[str, float]:
    """Per-pass values of every PER_LAYER metric.

    `traced_wall_s` is the summed wall time of the `passes` traced passes;
    `extra` holds the values the workload measured itself (CLI verb wall
    times, CSV bytes), already per pass.
    """
    summary = tr.summarize(tracer.names, tracer.spans)
    values: dict[str, float] = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for name, (calls, self_s) in summary.items():
        values[f"{name}.calls"] = calls / passes
        values[f"{name}.self_s"] = self_s / passes
        module_self[name.split(".", 1)[0]] += self_s / passes
    counters = tracer.counters
    for name, value in counters.items():
        values[name] = value / passes
    values["fbsolver.ode_residual_max"] = counters["fbsolver.ode_residual_max"]
    fp_calls = summary.get("fbsolver.fixed_point_iterate", (0, 0.0))[0]
    values["fbsolver.fp_converged_frac"] = (
        counters["fp_converged"] / fp_calls if fp_calls else 0.0)
    sim_busy = sum(values.get(f"simulator.{fn}.self_s", 0.0)
                   for fn in ("mckean_gap", "epsilon_nash_probe",
                              "simulate_nplayer"))
    steps = values.get("simulator.player_steps", 0.0)
    values["simulator.player_steps_per_s"] = steps / sim_busy if sim_busy else 0.0
    wall = traced_wall_s / passes
    for module, self_s in module_self.items():
        values[f"{module}.self_s"] = self_s
        values[f"{module}.share"] = self_s / wall
    values["trace.outside_share"] = 1.0 - tr.top_level_ns(tracer.spans) / 1e9 / traced_wall_s
    values["trace.spans"] = len(tracer.spans) / passes
    values["trace.overhead_frac"] = overhead_frac
    values.update(extra)
    return {name: float(values.get(name, 0.0)) for name, _ in PER_LAYER}
