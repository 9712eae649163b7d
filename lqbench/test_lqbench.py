"""Tests of the benchmark's own machinery: self time, wrapping, input
generation and the correctness checks."""

import subprocess
import sys
import time
import types
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks as ck
import tracer as tr
from speed import SpeedSampler
from workloads import make_det_specs


def test_self_time_on_synthetic_span_tree():
    # a(0..100) holds b(10..40) holding c(15..25), and b(50..70); a(200..210)
    names = ["a", "b", "c"]
    spans = [[0, 0, 100, -1], [1, 10, 40, 0], [2, 15, 25, 1],
             [1, 50, 70, 0], [0, 200, 210, -1]]
    assert tr.self_times(spans) == [50, 20, 10, 20, 10]
    summary = tr.summarize(names, spans)
    assert summary["a"] == (2, pytest.approx(60e-9))
    assert summary["b"] == (2, pytest.approx(40e-9))
    assert summary["c"] == (1, pytest.approx(10e-9))
    assert tr.top_level_ns(spans) == 110


def test_reference_time_removes_probe_overhead_and_scales_by_speed():
    sampler = SpeedSampler()
    sampler.samples = [(0.1, 0.001, 0.5), (0.2, 0.001, 0.5), (1.5, 0.001, 2.0)]
    assert sampler.at_reference(0.0, 1.0) == pytest.approx(0.998 * 0.5)
    assert sampler.at_reference(0.0, 1.0, margin=1.0) == pytest.approx(
        0.998 * 1.0)
    with pytest.raises(ValueError):
        sampler.at_reference(0.5, 1.0)


def test_sampler_probes_while_work_runs():
    with SpeedSampler(interval=0.01) as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 5
    assert all(speed > 0 for _, _, speed in sampler.samples)


def _fake_package(name):
    """Package whose `outer` module imports `inner.leaf` by name."""
    pkg = types.ModuleType(name)
    inner = types.ModuleType(f"{name}.inner")
    outer = types.ModuleType(f"{name}.outer")
    exec("def leaf(x):\n    return x + 1\n"
         "def _private(x):\n    return x\n", inner.__dict__)
    outer.leaf = inner.leaf
    exec("def top(x):\n    return leaf(x) * 2\n", outer.__dict__)
    sys.modules.update({name: pkg, inner.__name__: inner,
                        outer.__name__: outer})
    return inner, outer


def test_wrappers_rebind_cross_module_imports_and_uninstall():
    inner, outer = _fake_package("lqbench_fakepkg")
    original_leaf = inner.leaf
    seen = []
    tracer = tr.Tracer({"inner.leaf": lambda t, a, r, e: seen.append(
        (a["x"], r, e))})
    try:
        tracer.install([inner, outer])
        assert outer.top(3) == 8
        assert inner._private(1) == 1
    finally:
        tracer.uninstall()
        for key in ("lqbench_fakepkg", "lqbench_fakepkg.inner",
                    "lqbench_fakepkg.outer"):
            sys.modules.pop(key)
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert names == ["outer.top", "inner.leaf"]
    assert tracer.spans[1][3] == 0  # leaf's parent is top
    assert "inner._private" not in tracer.names
    assert seen == [(3, 4, None)]
    assert inner.leaf is original_leaf and outer.leaf is original_leaf


def _spec_arrays(spec):
    parts = [np.array([spec.n, spec.m, spec.T, spec.delta]), spec.QT,
             spec.QbarT, spec.ST, spec.x0_mean]
    for sched in spec.schedules().values():
        for t, M in sched.values:
            parts += [np.array([t]), M]
    return parts


def test_det_sweep_specs_depend_only_on_the_seed():
    first, again, other = (make_det_specs(seed, 4) for seed in (7, 7, 8))
    assert [s[:2] for s in first] == [s[:2] for s in other]
    same = all(np.array_equal(a, b)
               for (_, _, x), (_, _, y) in zip(first, again)
               for a, b in zip(_spec_arrays(x), _spec_arrays(y)))
    differ = any(not np.array_equal(a, b)
                 for (_, _, x), (_, _, y) in zip(first, other)
                 for a, b in zip(_spec_arrays(x), _spec_arrays(y)))
    assert same and differ


def _failing(found):
    return {c.name for c in found if not c.ok}


def _rates(**over):
    base = dict(gap_mean=np.array([1e-2, 2e-3, 4e-4, 8e-5]),
                gap_stderr=np.full(4, 1e-5), cost_gap_mean=np.ones(4),
                cost_gap_stderr=np.full(4, 1e-3), gap_slope=-1.0,
                cost_gap_slope=-0.5)
    base.update(over)
    return SimpleNamespace(**base)


def _probe(diff):
    diff = np.asarray(diff, float)
    return SimpleNamespace(cost_diff=diff, stderr=np.full(diff.size, 0.01),
                           min_gap=float(diff.min()))


def test_mc_checks_flag_perturbed_estimates():
    assert _failing(ck.mc_checks(_rates(), _probe([0.5, 0.0]))) == set()
    cases = {
        "mc.gap_slope": (_rates(gap_slope=-0.5), _probe([0.5, 0.0])),
        "mc.cost_slope": (_rates(cost_gap_slope=-0.9), _probe([0.5, 0.0])),
        "mc.probe_min_gap": (_rates(), _probe([0.5, -0.04])),
        "mc.finite": (_rates(gap_mean=np.array([1.0, np.nan, 1.0, 1.0])),
                      _probe([0.5, 0.0])),
    }
    for name, (rates, probe) in cases.items():
        assert _failing(ck.mc_checks(rates, probe)) == {name}
    assert _failing(ck.mc_checks(RuntimeError("boom"), _probe([0.0]))) == {
        "mc.run"}


def _solution(xi, eta, residual=1e-12):
    return SimpleNamespace(xi=xi, eta=eta, boundary_residual=residual)


def test_spec_checks_flag_each_perturbed_route():
    rng = np.random.default_rng(0)
    K, n = 11, 2
    gamma = rng.normal(size=(K, n, n))
    xi = rng.normal(size=(K, n))
    eta = np.einsum("kij,kj->ki", gamma, xi)
    shoot = _solution(xi, eta)
    path = SimpleNamespace(gamma=gamma)

    def run(shoot=shoot, fp=_solution(xi.copy(), eta.copy()), radon=path,
            direct=path, sym=SimpleNamespace(gamma=gamma.copy()),
            kind="classical"):
        return _failing(ck.spec_checks("s", kind, shoot, fp, radon, direct,
                                       sym))

    bumped = gamma.copy()
    bumped[3, 0, 1] += 1e-5
    assert run() == set()
    assert run(shoot=_solution(xi, eta, residual=1e-6)) == {"s.boundary"}
    assert run(fp=_solution(xi + 1e-5, eta)) == {"s.fixed_point"}
    assert run(fp=_solution(xi, eta - 1e-5)) == {"s.fixed_point"}
    assert run(fp=RuntimeError("no convergence")) == {"s.fixed_point"}
    assert run(radon=SimpleNamespace(gamma=bumped)) == {"s.eta_gamma_xi"}
    assert run(radon=SimpleNamespace(gamma=bumped),
               kind="scalar") == {"s.eta_gamma_xi"}
    # Piecewise: recorded as a metric, not checked.
    assert run(radon=SimpleNamespace(gamma=bumped), kind="piecewise") == set()
    assert ck.eta_gamma_xi_gap(shoot, SimpleNamespace(gamma=bumped)) > 1e-6
    assert run(radon=RuntimeError("singular")) == set()  # not attempted
    assert run(direct=SimpleNamespace(gamma=bumped)) == {"s.direct_vs_xi"}
    assert run(shoot=RuntimeError("singular")) == {"s.shooting"}


def test_cli_checks_flag_wrong_exit_codes_and_outputs():
    expected = {"a.solve": 0, "b.compare": 1}
    assert _failing(ck.exit_code_checks(expected, {"a.solve": 0,
                                                   "b.compare": 1})) == set()
    assert _failing(ck.exit_code_checks(expected, {"a.solve": 3,
                                                   "b.compare": 1})) == {
        "exit.a.solve"}

    conv = "solve: ... fixed-point agreement (sup norm) 1e-13 after 9"
    unav = "solve: ... fixed-point cross-check unavailable (...)"
    expect = {"x.solve": True, "y.solve": False}
    assert _failing(ck.fixed_point_outcome_checks(
        expect, {"x.solve": conv, "y.solve": unav})) == set()
    assert _failing(ck.fixed_point_outcome_checks(
        expect, {"x.solve": unav, "y.solve": unav})) == {"fixed_point.x.solve"}

    def scan(rows):
        return "t,det_phi22,det_phi21\n" + "".join(
            f"{t!r},{d!r},0.0\n" for t, d in rows)

    good = {name: scan(points) for name, points in ck.SCAN_REFERENCE.items()}
    assert _failing(ck.scan_checks(good)) == set()
    bad = dict(good, counterexample_2d_2=scan([(1.0, -0.3572768)]))
    assert _failing(ck.scan_checks(bad)) == {"scan.counterexample_2d_2@1"}
    gone = dict(good, counterexample_2d_2=scan([(0.99, -0.3582768)]))
    assert _failing(ck.scan_checks(gone)) == {"scan.counterexample_2d_2@1"}

    first = {"a.csv": "00", "b.csv": "11"}
    assert _failing(ck.repeat_checks(first, dict(first), "r")) == set()
    assert _failing(ck.repeat_checks(first, {"a.csv": "00", "b.csv": "12"},
                                     "r")) == {"r.b.csv"}


def test_run_refuses_a_directory_without_the_source_tree(tmp_path):
    run = Path(__file__).with_name("run.py")
    done = subprocess.run([sys.executable, str(run), "--workload",
                           "det_sweep", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
