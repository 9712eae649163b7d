import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import scalar_spec
from lqmfg import simulator
from lqmfg.coeffs import ProblemSpec, Schedule, sample, uniform_grid
from lqmfg.fbsolver import FeedbackLaw
from lqmfg.simulator import (DEFAULT_THETAS, SimConfig, best_response_law,
                             draw_initials_and_noise, epsilon_nash_probe,
                             equilibrium_law, mckean_gap,
                             probe_csv, rate_csv, replication_stream,
                             simulate_nplayer)


def zero_law(grid, n, m):
    K = grid.size
    return FeedbackLaw(grid=grid, k=np.zeros((K, n)), gain=np.zeros((K, m, n)),
                       shift=np.zeros((K, m)))


def make_cfg(spec, **overrides):
    kwargs = dict(N_values=(4, 8), paths=3, seed=7, dt=0.1,
                  x0_mean=spec.x0_mean, x0_cov=np.zeros((spec.n, spec.n)))
    kwargs.update(overrides)
    return SimConfig(**kwargs)


def test_config_invariants(spec_benchmark):
    with pytest.raises(ValueError, match="at least 2"):
        make_cfg(spec_benchmark, N_values=(1,))
    with pytest.raises(ValueError, match="replication"):
        make_cfg(spec_benchmark, paths=0)
    cfg = make_cfg(spec_benchmark, dt=0.3)
    with pytest.raises(ValueError, match="divide"):
        simulate_nplayer(spec_benchmark,
                         zero_law(uniform_grid(1.0, 10), 1, 1), cfg, N=4)


def test_all_zero_problem_stays_at_rest():
    spec = scalar_spec(a=0.3, abar=0.2, b=1.0, sigma=0.0, q=1.0, qT=1.0,
                       x0=0.0, delta=0.5)
    cfg = make_cfg(spec)
    law = zero_law(uniform_grid(1.0, 10), 1, 1)
    out = simulate_nplayer(spec, law, cfg, N=4)
    assert np.all(out.states == 0.0)
    assert np.all(out.costs == 0.0)


def test_no_noise_players_are_identical(spec_benchmark):
    cfg = make_cfg(spec_benchmark)  # zero covariance, sigma in spec is 0.4
    spec = scalar_spec(a=0.2, abar=0.3, b=1.0, sigma=0.0, q=1.0, qbar=0.5,
                       s=0.5, qT=0.5, sT=1.0, x0=1.0, delta=0.5)
    grid = uniform_grid(1.0, 10)
    law, _ = equilibrium_law(spec, grid)
    out = simulate_nplayer(spec, law, cfg, N=5)
    spread = np.max(np.abs(out.states - out.states[:, :1, :]))
    assert spread == 0.0
    assert np.max(np.abs(out.costs - out.costs[0])) == 0.0


def test_single_euler_step_hand_computed():
    # N=2, one step of size dt=1, scalar: x^i = x0 + (a x^i + b v^i
    # + abar x^j) dt, v = -(g x + s); costs by one trapezoid interval
    a, abar, b, q, qbar, s_weight, r = 0.5, 0.25, 1.0, 1.0, 0.5, 0.3, 1.0
    spec = scalar_spec(a=a, abar=abar, b=b, sigma=0.0, q=q, qbar=qbar, r=r,
                       s=s_weight, qT=0.4, qbarT=0.2, sT=0.1, T=1.0, x0=1.0,
                       delta=0.5)
    grid = uniform_grid(1.0, 1)
    gain = np.full((2, 1, 1), 0.7)
    shift = np.full((2, 1), 0.2)
    law = FeedbackLaw(grid=grid, k=np.zeros((2, 1)), gain=gain, shift=shift)
    cfg = make_cfg(spec, dt=1.0, N_values=(2,))
    out = simulate_nplayer(spec, law, cfg, N=2)

    x0 = np.array([1.0, 1.0])  # deterministic: x0_mean, zero covariance
    v0 = -(0.7 * x0 + 0.2)
    mean0 = x0[::-1]
    x1 = x0 + (a * x0 + b * v0 + abar * mean0) * 1.0
    assert np.max(np.abs(out.states[1, :, 0] - x1)) < 1e-12

    v1 = -(0.7 * x1 + 0.2)
    mean1 = x1[::-1]
    def running(x, v, m):
        return q * x * x + r * v * v + qbar * (x - s_weight * m) ** 2
    c0 = running(x0, v0, mean0)
    c1 = running(x1, v1, mean1)
    terminal = 0.4 * x1 * x1 + 0.2 * (x1 - 0.1 * mean1) ** 2
    expected = 0.5 * (0.5 * (c0 + c1) * 1.0 + terminal)
    assert np.max(np.abs(out.costs - expected)) < 1e-12


def test_streams_are_deterministic_and_distinct():
    a = replication_stream(42, 3).standard_normal(4)
    b = replication_stream(42, 3).standard_normal(4)
    c = replication_stream(42, 4).standard_normal(4)
    d = replication_stream(43, 3).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_draws_do_not_depend_on_player_count(spec_benchmark):
    cfg = make_cfg(spec_benchmark)
    x0_small, dW_small = draw_initials_and_noise(spec_benchmark, cfg, 4, 10, 0)
    x0_big, dW_big = draw_initials_and_noise(spec_benchmark, cfg, 8, 10, 0)
    assert np.array_equal(x0_small, x0_big[:4])
    assert np.array_equal(dW_small, dW_big[:, :4, :])


def test_mckean_gap_deterministic(spec_benchmark):
    cfg = make_cfg(spec_benchmark, N_values=(4, 8, 16), paths=4,
                   x0_cov=[[0.25]])
    r1 = mckean_gap(spec_benchmark, cfg)
    r2 = mckean_gap(spec_benchmark, cfg)
    assert np.array_equal(r1.gap_mean, r2.gap_mean)
    assert np.array_equal(r1.cost_gap_mean, r2.cost_gap_mean)
    assert r1.gap_slope == r2.gap_slope


def test_mckean_gap_zero_without_noise():
    spec = scalar_spec(a=0.2, abar=0.3, b=1.0, sigma=0.0, q=1.0, qbar=0.5,
                       s=0.5, qT=0.5, sT=1.0, x0=1.0, delta=0.5)
    cfg = make_cfg(spec, N_values=(3, 5, 9), paths=2)
    report = mckean_gap(spec, cfg)
    assert np.all(report.gap_mean == 0.0)
    assert np.all(report.cost_gap_mean == 0.0)


@pytest.mark.parametrize("N_values", [(3, 5, 9), (10, 50, 250)])
@pytest.mark.parametrize("x0", [0.1, 0.7, 1.0, 1.7, 2.9, 3.3])
def test_mckean_gap_zero_without_noise_at_any_start(x0, N_values):
    # equal players see exactly their own state as the others' mean, so
    # the coupled players sit on the limit path bit for bit from any x0
    spec = scalar_spec(a=0.2, abar=0.3, b=1.0, sigma=0.0, q=1.0, qbar=0.5,
                       s=0.5, qT=0.5, sT=1.0, x0=x0, delta=0.5)
    cfg = make_cfg(spec, N_values=N_values, paths=2)
    report = mckean_gap(spec, cfg)
    assert np.all(report.gap_mean == 0.0)
    assert np.all(report.cost_gap_mean == 0.0)


def test_exchangeability_of_player_costs(spec_benchmark):
    cfg = make_cfg(spec_benchmark, N_values=(8,), paths=60, x0_cov=[[0.25]])
    grid = uniform_grid(spec_benchmark.T, 10)
    law, _ = equilibrium_law(spec_benchmark, grid)
    diffs = []
    for k in range(cfg.paths):
        out = simulate_nplayer(spec_benchmark, law, cfg, N=8, replication=k)
        diffs.append(out.costs[0] - out.costs[1])
    diffs = np.array(diffs)
    se = diffs.std(ddof=1) / np.sqrt(len(diffs))
    assert abs(diffs.mean()) <= 3.0 * se + 1e-12


def test_probe_theta_one_gap_is_zero(spec_benchmark):
    cfg = make_cfg(spec_benchmark, N_values=(6,), paths=3, x0_cov=[[0.25]])
    report = epsilon_nash_probe(spec_benchmark, cfg, N=6,
                                deviation_thetas=(1.0,),
                                include_best_response=False)
    assert report.labels == ("1",)
    assert np.all(report.cost_diff == 0.0)


def test_probe_gross_overcontrol_costs_significantly(spec_benchmark):
    # theta = 2 doubles the control effort; coercivity of the cost in v
    # makes the deviation strictly worse, far beyond Monte Carlo noise
    cfg = make_cfg(spec_benchmark, N_values=(16,), paths=40, x0_cov=[[0.25]])
    report = epsilon_nash_probe(spec_benchmark, cfg, N=16,
                                deviation_thetas=(2.0,),
                                include_best_response=False)
    assert report.cost_diff[0] > 5.0 * report.stderr[0]


def test_weak_error_stable_under_dt_halving(spec_benchmark):
    # law on the finer grid; the coarser run subsamples it with stride 2
    grid = uniform_grid(spec_benchmark.T, 40)
    law, _ = equilibrium_law(spec_benchmark, grid)
    costs = {}
    for dt, reps in ((0.05, 40), (0.025, 40)):
        cfg = make_cfg(spec_benchmark, dt=dt, paths=reps, x0_cov=[[0.25]])
        vals = [simulate_nplayer(spec_benchmark, law, cfg, N=6,
                                 replication=k).costs.mean()
                for k in range(reps)]
        costs[dt] = (np.mean(vals), np.std(vals, ddof=1) / np.sqrt(reps))
    drift = abs(costs[0.05][0] - costs[0.025][0])
    assert drift < costs[0.05][1] + costs[0.025][1]


def test_rate_and_probe_csv_render(spec_benchmark):
    cfg = make_cfg(spec_benchmark, N_values=(4, 8, 16), paths=3,
                   x0_cov=[[0.25]])
    rates = mckean_gap(spec_benchmark, cfg)
    text = rate_csv(rates)
    assert text.splitlines()[0] == "N,gap_mean,gap_stderr,cost_gap_mean,cost_gap_stderr"
    assert len(text.strip().splitlines()) == 4
    probe = epsilon_nash_probe(spec_benchmark, cfg, N=4,
                               deviation_thetas=(0.0, 2.0))
    ptext = probe_csv(probe)
    assert ptext.splitlines()[0] == "theta,cost_diff,stderr"
    assert ptext.strip().splitlines()[-1].startswith("best_response,")


def test_nonfinite_states_reported():
    # Euler factor (1 + a dt) = 1e4 per step overflows double near step 77
    spec = scalar_spec(a=1e5, abar=0.0, b=0.0, sigma=0.0, q=1.0, qT=0.0,
                       x0=1.0, T=10.0, delta=0.5)
    grid = uniform_grid(10.0, 100)
    law = zero_law(grid, 1, 1)
    cfg = make_cfg(spec, dt=0.1)
    with pytest.raises(FloatingPointError, match="non-finite"):
        simulate_nplayer(spec, law, cfg, N=3)


def piecewise_2d_spec() -> ProblemSpec:
    """n = 2, m = 1, A and Qbar switching mid-horizon, correlated noise."""
    c = Schedule.constant
    return ProblemSpec(
        n=2, m=1, T=1.0,
        A=Schedule.piecewise([(0.0, [[0.2, 0.1], [-0.1, 0.3]]),
                              (0.4, [[-0.3, 0.2], [0.0, 0.1]])]),
        Abar=c([[0.2, 0.0], [0.1, 0.15]]), B=c([[1.0], [0.5]]),
        sigma=c([[0.3, 0.0], [0.1, 0.2]]), Q=c([[1.0, 0.2], [0.2, 0.8]]),
        Qbar=Schedule.piecewise([(0.0, [[0.5, 0.0], [0.0, 0.3]]),
                                 (0.65, [[0.2, 0.1], [0.1, 0.4]])]),
        R=c([[1.0]]), S=c([[0.5, 0.0], [0.2, 0.4]]),
        QT=np.array([[0.5, 0.0], [0.0, 0.3]]),
        QbarT=np.array([[0.2, 0.0], [0.0, 0.1]]), ST=np.eye(2),
        x0_mean=np.array([1.0, -0.5]), delta=0.5)


def piecewise_2d_cfg(spec):
    return SimConfig(N_values=(3, 5, 9), paths=5, seed=11, dt=0.05,
                     x0_mean=spec.x0_mean,
                     x0_cov=[[0.25, 0.05], [0.05, 0.1]])


def full_n_reduction(spec, cfg, N, steps):
    """The probe's draws reduced from the full N-player game's: x0
    (paths, 2, n) and dW (steps, paths, 2, n), row 0 player 1's draws and
    row 1 the mean of the other N - 1 players' own draws."""
    x0 = np.empty((cfg.paths, 2, spec.n))
    dW = np.empty((steps, cfg.paths, 2, spec.n))
    for k in range(cfg.paths):
        x0_k, dW_k = draw_initials_and_noise(spec, cfg, N, steps, k)
        x0[k, 0], x0[k, 1] = x0_k[0], x0_k[1:].mean(axis=0)
        dW[:, k, 0], dW[:, k, 1] = dW_k[:, 0], dW_k[:, 1:].mean(axis=1)
    return x0, dW


def reference_run(spec, law, x0, dW, lead=None, xi=None):
    """One replication, one run, stepped as plainly as possible: the
    reference the batched Euler core is checked against.  Returns the
    states (steps+1, N, n) and costs (N,)."""
    grid = law.grid
    co = {name: sample(getattr(spec, name), grid)
          for name in ("A", "Abar", "B", "sigma", "Q", "Qbar", "R", "S")}
    dt = grid[1] - grid[0]
    N = x0.shape[0]
    quad = lambda y, M: np.einsum("ij,jl,il->i", y, M, y)
    x, states, costs, prev = x0, [x0], np.zeros(N), None
    for k in range(grid.size):
        if xi is None:
            m = (x.sum(axis=0) - x) / (N - 1)
        else:
            m = np.tile(xi[k], (N, 1))
        v = -(x @ law.gain[k].T + law.shift[k])
        if lead is not None:
            v[0] = -(lead.gain[k] @ x[0] + lead.shift[k])
        dev = x - m @ co["S"][k].T
        integrand = (quad(x, co["Q"][k]) + quad(v, co["R"][k])
                     + quad(dev, co["Qbar"][k]))
        if prev is not None:
            costs = costs + 0.5 * dt * (prev + integrand)
        prev = integrand
        if k == grid.size - 1:
            break
        drift = x @ co["A"][k].T + v @ co["B"][k].T + m @ co["Abar"][k].T
        x = x + drift * dt + dW[k] @ co["sigma"][k].T
        states.append(x)
    devT = x - m @ spec.ST.T
    costs = costs + quad(x, spec.QT) + quad(devT, spec.QbarT)
    return np.array(states), 0.5 * costs


def reference_mean_path(spec, law):
    grid = law.grid
    A, Abar, B = (sample(s, grid) for s in (spec.A, spec.Abar, spec.B))
    xi = [spec.x0_mean]
    for k in range(grid.size - 1):
        v = -(law.gain[k] @ xi[k] + law.shift[k])
        xi.append(xi[k] + (A[k] @ xi[k] + B[k] @ v + Abar[k] @ xi[k])
                  * (grid[1] - grid[0]))
    return np.array(xi)


def mean_and_stderr(samples):
    return (samples.mean(axis=0),
            samples.std(axis=0, ddof=1) / np.sqrt(len(samples)))


def test_batched_core_matches_per_replication_reference(monkeypatch):
    spec = piecewise_2d_spec()
    cfg = piecewise_2d_cfg(spec)
    steps = 20
    grid = uniform_grid(spec.T, steps)
    law, sol = equilibrium_law(spec, grid)
    xi = reference_mean_path(spec, law)
    N_max = max(cfg.N_values)

    gaps, cost_gaps = [], []
    for k in range(cfg.paths):
        x0, dW = draw_initials_and_noise(spec, cfg, N_max, steps, k)
        row, cost_row = [], []
        for N in cfg.N_values:
            st_c, c_c = reference_run(spec, law, x0[:N], dW[:, :N])
            st_l, c_l = reference_run(spec, law, x0[:N], dW[:, :N], xi=xi)
            sup_sq = (np.linalg.norm(st_c - st_l, axis=2) ** 2).max(axis=0)
            row.append(sup_sq.mean())
            cost_row.append(np.abs(c_c - c_l).mean())
        gaps.append(row)
        cost_gaps.append(cost_row)
    report = mckean_gap(spec, cfg)
    for got, want in zip(
            (report.gap_mean, report.gap_stderr, report.cost_gap_mean,
             report.cost_gap_stderr),
            mean_and_stderr(np.array(gaps)) + mean_and_stderr(np.array(cost_gaps))):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.all(report.gap_mean > 0.0)

    N = 6
    deviations = [law.scaled(theta) for theta in DEFAULT_THETAS]
    deviations.append(best_response_law(spec, grid, sol.xi))
    diffs, base_costs = [], []
    for k in range(cfg.paths):
        x0, dW = draw_initials_and_noise(spec, cfg, N, steps, k)
        _, base = reference_run(spec, law, x0, dW)
        base_costs.append(base[0])
        diffs.append([reference_run(spec, law, x0, dW, lead=dev)[1][0] - base[0]
                      for dev in deviations])
    # the probe's stepping, fed the full N-player game's draws
    monkeypatch.setattr(simulator, "_player_one_and_others_mean",
                        full_n_reduction)
    probe = epsilon_nash_probe(spec, cfg, N)
    # the best response's diff cancels to ~5e-7 of costs of order 1, so
    # its rounding is relative to the costs it is the difference of
    scale = np.mean(np.abs(base_costs))
    for got, want in zip((probe.cost_diff, probe.stderr),
                         mean_and_stderr(np.array(diffs))):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
    same = epsilon_nash_probe(spec, cfg, N, deviation_thetas=(1.0,),
                              include_best_response=False)
    assert np.all(same.cost_diff == 0.0)


@pytest.mark.parametrize("budget", [1, 2 * 9 * 21 * 2 * 8])
def test_reports_do_not_depend_on_block_size(monkeypatch, budget):
    # one replication per block, then blocks of 2, 2 and 1 (a replication
    # of 9 players draws 21 steps of 2 normals), against one single block
    spec = piecewise_2d_spec()
    cfg = piecewise_2d_cfg(spec)
    monkeypatch.setattr(simulator, "_BLOCK_BYTES", 2**40)
    rates = mckean_gap(spec, cfg)
    probe = epsilon_nash_probe(spec, cfg, 9)
    monkeypatch.setattr(simulator, "_BLOCK_BYTES", budget)
    for got, want in ((mckean_gap(spec, cfg), rates),
                      (epsilon_nash_probe(spec, cfg, 9), probe)):
        for field in dataclasses.fields(want):
            np.testing.assert_array_equal(getattr(got, field.name),
                                          getattr(want, field.name))


def test_blocks_hold_each_replications_unscaled_draws(monkeypatch):
    # blocks of 2, 2 and 1: row j of a block is replication k's stream in
    # its own order, and it gives draw_initials_and_noise's x0 and, once
    # scaled by sqrt(dt), its increments, bit for bit
    spec = piecewise_2d_spec()
    cfg = piecewise_2d_cfg(spec)
    N, steps = 9, 20
    monkeypatch.setattr(simulator, "_BLOCK_BYTES", 2 * N * (steps + 1) * 2 * 8)
    seen = []
    for block, z in simulator._replication_blocks(spec, cfg, N, steps):
        assert z.shape == (block.stop - block.start, N, steps + 1, spec.n)
        for j, k in enumerate(range(block.start, block.stop)):
            x0, dW = draw_initials_and_noise(spec, cfg, N, steps, k)
            np.testing.assert_array_equal(simulator._initials(cfg, z[j]), x0)
            np.testing.assert_array_equal(
                np.moveaxis(z[j, :, 1:], 1, 0) * np.sqrt(spec.T / steps), dW)
            seen.append(k)
    assert seen == list(range(cfg.paths))


def test_gap_estimate_memory_stays_within_the_block_budget(spec_benchmark):
    # the mc_rates inputs: the block is the draws' only copy, so one call
    # peaks near _BLOCK_BYTES, not at a multiple of it.  A first call
    # makes the one-time imports (numpy.random's, ~1 MB), which are not
    # the call's to count.
    cfg = make_cfg(spec_benchmark, N_values=(10, 50, 250, 1250), paths=8,
                   dt=0.01, x0_cov=[[0.25]])
    mckean_gap(spec_benchmark, cfg)
    tracemalloc.start()
    try:
        mckean_gap(spec_benchmark, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * simulator._BLOCK_BYTES


@pytest.mark.parametrize("case", ["piecewise_2d", "benchmark_scalar"])
def test_gap_rows_do_not_depend_on_their_neighbours(spec_benchmark, case):
    # every N of a block shares one ragged player axis; each N's row must
    # be the same bit for bit whatever order, neighbours or duplicates
    # the player counts come in
    if case == "piecewise_2d":
        spec = piecewise_2d_spec()
        cfg = piecewise_2d_cfg(spec)
    else:
        spec = spec_benchmark
        cfg = make_cfg(spec, N_values=(4, 8, 16), paths=4, x0_cov=[[0.25]])

    def rows(report):
        return [(N, report.gap_mean[j], report.gap_stderr[j],
                 report.cost_gap_mean[j], report.cost_gap_stderr[j])
                for j, N in enumerate(report.N_values)]

    want = {row[0]: row for row in rows(mckean_gap(spec, cfg))}
    a, b, c = cfg.N_values
    for N_values in ((c, b, a), (2, b, c, 2 * c + 3), (b, a, b, c)):
        got = rows(mckean_gap(spec, dataclasses.replace(cfg,
                                                        N_values=N_values)))
        assert [row[0] for row in got] == list(N_values)
        for row in got:
            if row[0] in want:
                assert row == want[row[0]]


def stacked_probe(spec, cfg, N, thetas):
    """The probe as a full N-player simulation: the base run and one run
    per candidate, stacked over (runs, replications, N, n), every player
    stepped, player 1's costs read.  Returns the differences
    (candidates, replications) and the base costs (replications,)."""
    steps = round(spec.T / cfg.dt)
    grid = uniform_grid(spec.T, steps)
    law, sol = equilibrium_law(spec, grid)
    leads = [law] + [law.scaled(theta) for theta in thetas]
    leads.append(best_response_law(spec, grid, sol.xi))
    lead_gain = np.stack([lw.gain for lw in leads])[:, :, None]
    lead_shift = np.stack([lw.shift for lw in leads])[:, :, None]
    draws = [draw_initials_and_noise(spec, cfg, N, steps, k)
             for k in range(cfg.paths)]
    x0 = np.stack([d[0] for d in draws])              # (R, N, n)
    dW = np.stack([d[1] for d in draws], axis=1)      # (steps, R, N, n)
    co = {name: sample(getattr(spec, name), grid)
          for name in ("A", "Abar", "B", "sigma", "Q", "Qbar", "R", "S")}
    mv = lambda M, y: np.einsum("...ij,...j->...i", M, y)
    quad = lambda M, y: (y * mv(M, y)).sum(axis=-1)
    dt = grid[1] - grid[0]
    x = np.broadcast_to(x0, (len(leads),) + x0.shape).copy()
    costs, prev = 0.0, None
    for k in range(steps + 1):
        m = (x.sum(axis=-2, keepdims=True) - x) / (N - 1)
        v = -(mv(law.gain[k], x) + law.shift[k])
        v[..., 0, :] = -(mv(lead_gain[:, k], x[..., 0, :]) + lead_shift[:, k])
        x1, v1, m1 = x[..., 0, :], v[..., 0, :], m[..., 0, :]
        integrand = (quad(co["Q"][k], x1) + quad(co["R"][k], v1)
                     + quad(co["Qbar"][k], x1 - mv(co["S"][k], m1)))
        if prev is not None:
            costs = costs + 0.5 * dt * (prev + integrand)
        prev = integrand
        if k == steps:
            break
        drift = mv(co["A"][k], x) + mv(co["B"][k], v) + mv(co["Abar"][k], m)
        x = x + drift * dt + mv(co["sigma"][k], dW[k])
    x1, m1 = x[..., 0, :], m[..., 0, :]
    costs = 0.5 * (costs + quad(spec.QT, x1)
                   + quad(spec.QbarT, x1 - mv(spec.ST, m1)))
    return costs[1:] - costs[0], costs[0]


@pytest.mark.parametrize("N", [2, 3, 9])
@pytest.mark.parametrize("n", [1, 2])
def test_probe_recursion_matches_full_n_player_simulation(monkeypatch,
                                                          spec_benchmark,
                                                          N, n):
    # the others' mean recursion against every player stepped, both fed
    # the full N-player game's draws; at N = 2 the others' mean is the
    # one other player
    monkeypatch.setattr(simulator, "_player_one_and_others_mean",
                        full_n_reduction)
    if n == 1:
        spec = spec_benchmark
        cfg = make_cfg(spec, N_values=(N,), paths=6, x0_cov=[[0.25]])
    else:
        spec = piecewise_2d_spec()
        cfg = piecewise_2d_cfg(spec)
    thetas = (0.0, 0.5, 0.9, 1.5, 2.0)
    diffs, base = stacked_probe(spec, cfg, N, thetas)
    probe = epsilon_nash_probe(spec, cfg, N, deviation_thetas=thetas)
    assert probe.labels == ("0", "0.5", "0.9", "1.5", "2", "best_response")
    mean, stderr = mean_and_stderr(diffs.T)
    np.testing.assert_allclose(probe.cost_diff[:-1], mean[:-1], rtol=1e-12,
                               atol=0.0)
    np.testing.assert_allclose(probe.stderr[:-1], stderr[:-1], rtol=1e-12,
                               atol=0.0)
    # the best response's diff is rounding-sized: compare on the costs' scale
    scale = np.mean(np.abs(base))
    np.testing.assert_allclose(probe.cost_diff[-1], mean[-1], rtol=0.0,
                               atol=1e-12 * scale)
    np.testing.assert_allclose(probe.stderr[-1], stderr[-1], rtol=0.0,
                               atol=1e-12 * scale)


@pytest.mark.parametrize("N", [2, 3, 9, 1250])
def test_probe_draws_player_one_and_the_exact_law_of_the_others_mean(N):
    # row 0 is player 1's row of the N-player draws, bit for bit; row 1 is
    # the stream's second row of normals over sqrt(N - 1)
    spec = piecewise_2d_spec()
    cfg = piecewise_2d_cfg(spec)
    steps = 20
    x0, dW = simulator._player_one_and_others_mean(spec, cfg, N, steps)
    assert x0.shape == (cfg.paths, 2, 2)
    assert dW.shape == (steps, cfg.paths, 2, 2)
    for k in range(cfg.paths):
        x0_N, dW_N = draw_initials_and_noise(spec, cfg, N, steps, k)
        assert np.array_equal(x0[k, 0], x0_N[0])
        assert np.array_equal(dW[:, k, 0], dW_N[:, 0])
        z = replication_stream(cfg.seed, k).standard_normal(
            (2, (steps + 1) * 2))[1].reshape(steps + 1, 2) / np.sqrt(N - 1)
        root = cfg.x0_root
        assert np.array_equal(
            x0[k, 1], cfg.x0_mean + (root[:, 0] * z[0, 0]
                                     + root[:, 1] * z[0, 1]))
        assert np.array_equal(dW[:, k, 1], z[1:] * np.sqrt(spec.T / steps))


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("n", [1, 2])
def test_exact_law_probe_agrees_with_the_full_n_player_draws(
        monkeypatch, spec_benchmark, n, seed):
    # the others' mean drawn from its exact law and reduced from the N
    # players' own draws are the same in law, so every candidate's mean
    # difference agrees within Monte Carlo error
    N = 5
    if n == 1:
        spec = spec_benchmark
        cfg = make_cfg(spec, N_values=(N,), paths=300, seed=seed,
                       x0_cov=[[0.25]])
    else:
        spec = piecewise_2d_spec()
        cfg = dataclasses.replace(piecewise_2d_cfg(spec), paths=300,
                                  seed=seed)
    exact = epsilon_nash_probe(spec, cfg, N)
    monkeypatch.setattr(simulator, "_player_one_and_others_mean",
                        full_n_reduction)
    full = epsilon_nash_probe(spec, cfg, N)
    assert exact.labels == full.labels
    combined = np.hypot(exact.stderr, full.stderr)
    assert np.all(combined > 0.0)
    assert np.all(np.abs(exact.cost_diff - full.cost_diff) <= 4.0 * combined)


@pytest.mark.parametrize("stack", [(), (3,)])
def test_affine_steps_match_the_euler_step_and_the_running_cost(stack):
    # n = 2, m = 1, S and ST nonsymmetric, QbarT != 0 and not diagonal, B
    # and R not the identity, laws stacked on `stack`: the fused map and
    # quadratic form against the plain Euler step and the Q/R/Qbar cost at
    # random (x, m)
    spec = dataclasses.replace(piecewise_2d_spec(),
                               R=Schedule.constant([[1.7]]),
                               QbarT=np.array([[0.2, 0.05], [0.05, 0.1]]),
                               ST=np.array([[0.9, 0.3], [-0.2, 0.7]]))
    rng = np.random.default_rng(5)
    steps = 20
    grid = uniform_grid(spec.T, steps)
    dt = grid[1] - grid[0]
    gain = rng.normal(size=(grid.size,) + stack + (1, 2))
    shift = rng.normal(size=(grid.size,) + stack + (1,))
    affine = simulator._AffineSteps(spec, grid, gain, shift)
    co = {name: sample(getattr(spec, name), grid)
          for name in ("A", "Abar", "B", "Q", "Qbar", "R", "S")}
    mv = lambda M, y: np.einsum("...ij,...j->...i", M, y)
    quad = lambda M, y: np.einsum("...i,...ij,...j->...", y, M, y)
    for k in range(grid.size):
        x = rng.normal(size=(4,) + stack + (2,))
        m = rng.normal(size=(4,) + stack + (2,))
        v = -(mv(gain[k], x) + shift[k])
        running = (quad(co["Q"][k], x) + quad(co["R"][k], v)
                   + quad(co["Qbar"][k], x - mv(co["S"][k], m)))
        weight = 0.5 * dt * (0.5 if k in (0, steps) else 1.0)
        want = weight * running
        if k == steps:
            want = want + 0.5 * (quad(spec.QT, x)
                                 + quad(spec.QbarT, x - mv(spec.ST, m)))
        got = affine.cost(k, x, m)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-13,
                                   atol=1e-13 * np.max(np.abs(want)))
        if k == steps:
            break
        step = x + dt * (mv(co["A"][k], x) + mv(co["B"][k], v)
                         + mv(co["Abar"][k], m))
        np.testing.assert_allclose(affine.step(k, x, m), step, rtol=1e-13,
                                   atol=1e-13 * np.max(np.abs(step)))
