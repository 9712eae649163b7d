"""N-player Monte Carlo under the mean-field feedback law.

Simulates the coupled game dx^i = (A x^i + B v^i + Abar mean_{j!=i} x^j) dt
+ sigma dW^i by Euler-Maruyama, alongside the decoupled limit system in
which the empirical mean is replaced by the precomputed deterministic
path xi.  Both consume identical Wiener increments per player (common
random numbers), so the sigma = 0 gap is exactly zero.

Randomness comes from the counter-based Philox generator; the stream for
(player i, replication k) is derived statelessly from (seed, k, i), so
results are reproducible and independent of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import ProblemSpec, csv_text, sample, uniform_grid
from .fbsolver import (FeedbackLaw, equilibrium_control_law,
                       solve_equilibrium_shooting)
from .odecore import psd_sqrt
from .riccati import solve_symmetric

DEFAULT_THETAS = (0.0, 0.5, 0.9, 1.1, 1.5, 2.0)


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo settings: player counts, replication count, master seed,
    Euler step, and the Gaussian initial distribution (mean, covariance)."""

    N_values: tuple[int, ...]
    paths: int
    seed: int
    dt: float
    x0_mean: np.ndarray
    x0_cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "N_values",
                           tuple(int(N) for N in self.N_values))
        object.__setattr__(self, "x0_mean",
                           np.asarray(self.x0_mean, float).reshape(-1))
        cov = np.atleast_2d(np.asarray(self.x0_cov, float))
        object.__setattr__(self, "x0_cov", cov)
        if any(N < 2 for N in self.N_values):
            raise ValueError("all N values must be at least 2")
        if self.paths < 1:
            raise ValueError("need at least one replication")
        if not self.dt > 0:
            raise ValueError("dt must be positive")


@dataclass
class NPlayerResult:
    grid: np.ndarray
    states: np.ndarray   # (steps+1, N, n)
    costs: np.ndarray    # (N,)


@dataclass
class RateReport:
    """Per-N gap estimates with log-log slopes and standard errors."""

    N_values: tuple[int, ...]
    gap_mean: np.ndarray
    gap_stderr: np.ndarray
    cost_gap_mean: np.ndarray
    cost_gap_stderr: np.ndarray
    gap_slope: float
    gap_slope_stderr: float
    cost_gap_slope: float
    cost_gap_slope_stderr: float


@dataclass
class ProbeReport:
    """Cost change when player 1 unilaterally deviates, per candidate."""

    labels: tuple[str, ...]
    cost_diff: np.ndarray
    stderr: np.ndarray

    @property
    def min_gap(self) -> float:
        return float(self.cost_diff.min())


def _steps_for(spec: ProblemSpec, dt: float) -> int:
    steps = round(spec.T / dt)
    if steps < 1 or abs(steps * dt - spec.T) > 1e-9 * max(1.0, spec.T):
        raise ValueError(f"dt={dt} does not divide the horizon T={spec.T}")
    return steps


def player_stream(seed: int, replication: int, player: int) -> np.random.Generator:
    """Counter-based stream for (player, replication), derived statelessly."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replication, player))
    return np.random.Generator(np.random.Philox(ss))


def draw_initials_and_noise(spec: ProblemSpec, cfg: SimConfig, N: int,
                            steps: int, replication: int):
    """x0 samples (N, n) and Wiener increments (steps, N, n), one stream
    per player so the draws do not depend on N or on scheduling."""
    n = spec.n
    dt = spec.T / steps
    L = psd_sqrt(cfg.x0_cov)
    x0 = np.empty((N, n))
    dW = np.empty((steps, N, n))
    root = np.sqrt(dt)
    for i in range(N):
        g = player_stream(cfg.seed, replication, i)
        x0[i] = cfg.x0_mean + L @ g.standard_normal(n)
        dW[:, i, :] = root * g.standard_normal((steps, n))
    return x0, dW


class _SampledCoeffs:
    """Coefficient matrices sampled once per grid index."""

    def __init__(self, spec: ProblemSpec, grid: np.ndarray):
        self.A = sample(spec.A, grid)
        self.Abar = sample(spec.Abar, grid)
        self.B = sample(spec.B, grid)
        self.sigma = sample(spec.sigma, grid)
        self.Q = sample(spec.Q, grid)
        self.Qbar = sample(spec.Qbar, grid)
        self.R = sample(spec.R, grid)
        self.S = sample(spec.S, grid)


def _law_on_grid(law: FeedbackLaw, grid: np.ndarray) -> FeedbackLaw:
    if law.grid.size == grid.size and np.max(np.abs(law.grid - grid)) <= 1e-9:
        return law
    stride, rem = divmod(law.grid.size - 1, grid.size - 1)
    if rem or np.max(np.abs(law.grid[::stride] - grid)) > 1e-9:
        raise ValueError("feedback law grid is not compatible with the "
                         "simulation grid")
    return FeedbackLaw(grid, law.Xi[::stride], law.k[::stride],
                       law.gain[::stride], law.shift[::stride])


def _simulate_once(spec: ProblemSpec, co: _SampledCoeffs, grid: np.ndarray,
                   law: FeedbackLaw, x0: np.ndarray, dW: np.ndarray,
                   player1_law: FeedbackLaw | None = None,
                   mean_path: np.ndarray | None = None):
    """One Euler-Maruyama pass; returns (states, costs).

    mean_path = None couples the players through the empirical mean of
    the others; otherwise every player sees the deterministic mean_path
    (the McKean-Vlasov limit system).
    """
    steps = dW.shape[0]
    N, n = x0.shape
    dt = grid[1] - grid[0]
    states = np.empty((steps + 1, N, n))
    states[0] = x0
    costs = np.zeros(N)
    x = x0.copy()
    prev = None
    # overflow is a reported outcome (non-finite states), not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            if mean_path is None:
                m = (x.sum(axis=0) - x) / (N - 1)
            else:
                m = np.broadcast_to(mean_path[k], (N, n))
            v = -(x @ law.gain[k].T + law.shift[k])
            if player1_law is not None:
                v[0] = -(player1_law.gain[k] @ x[0] + player1_law.shift[k])
            dev = x - m @ co.S[k].T
            integrand = (np.einsum("ij,jl,il->i", x, co.Q[k], x)
                         + np.einsum("ij,jl,il->i", v, co.R[k], v)
                         + np.einsum("ij,jl,il->i", dev, co.Qbar[k], dev))
            if prev is not None:
                costs += 0.5 * dt * (prev + integrand)
            prev = integrand
            if k == steps:
                break
            drift = (x @ co.A[k].T + v @ co.B[k].T + m @ co.Abar[k].T)
            x = x + drift * dt + dW[k] @ co.sigma[k].T
            states[k + 1] = x
        devT = x - m @ spec.ST.T
        costs += (np.einsum("ij,jl,il->i", x, spec.QT, x)
                  + np.einsum("ij,jl,il->i", devT, spec.QbarT, devT))
    costs *= 0.5
    return states, costs


def equilibrium_law(spec: ProblemSpec, grid: np.ndarray):
    """Equilibrium feedback on the grid plus the mean path xi it generates."""
    sol = solve_equilibrium_shooting(spec, grid)
    ric = solve_symmetric(spec, grid)
    law = equilibrium_control_law(spec, sol, ric)
    return law, sol


def _euler_mean_path(spec: ProblemSpec, co: _SampledCoeffs, grid: np.ndarray,
                     law: FeedbackLaw) -> np.ndarray:
    """Mean path of the limit system under the same Euler scheme the
    players use, so that with sigma = 0 and deterministic x0 the coupled
    and limit systems coincide exactly step by step."""
    steps = grid.size - 1
    dt = grid[1] - grid[0]
    m = np.empty((steps + 1, spec.n))
    m[0] = spec.x0_mean
    for k in range(steps):
        v = -(law.gain[k] @ m[k] + law.shift[k])
        m[k + 1] = m[k] + dt * (co.A[k] @ m[k] + co.B[k] @ v
                                + co.Abar[k] @ m[k])
    return m


def best_response_law(spec: ProblemSpec, grid: np.ndarray,
                      xi: np.ndarray) -> FeedbackLaw:
    """Best response to the frozen mean path xi, through the Riccati pair
    (Xi, zeta) rather than through the adjoint path."""
    ric = solve_symmetric(spec, grid, z=xi)
    return FeedbackLaw.from_paths(spec, grid, ric.gamma, ric.aux)


def simulate_nplayer(spec: ProblemSpec, law: FeedbackLaw, cfg: SimConfig,
                     N: int, replication: int = 0) -> NPlayerResult:
    """Coupled N-player simulation under a common feedback law.

    Fully deterministic given (seed, N, replication).  Raises on
    non-finite states with the offending step index.
    """
    steps = _steps_for(spec, cfg.dt)
    grid = uniform_grid(spec.T, steps)
    law = _law_on_grid(law, grid)
    co = _SampledCoeffs(spec, grid)
    x0, dW = draw_initials_and_noise(spec, cfg, N, steps, replication)
    states, costs = _simulate_once(spec, co, grid, law, x0, dW)
    if not np.all(np.isfinite(states)):
        bad = int(np.flatnonzero(~np.isfinite(states).all(axis=(1, 2)))[0])
        raise FloatingPointError(
            f"simulation produced non-finite states at step {bad}")
    return NPlayerResult(grid=grid, states=states, costs=costs)


def _loglog_slope(N_values, estimates) -> tuple[float, float]:
    x = np.log(np.asarray(N_values, float))
    estimates = np.asarray(estimates, float)
    if x.size < 3:
        raise ValueError("slope fit needs at least 3 player counts")
    if np.any(estimates <= 0.0):
        return float("nan"), float("nan")  # exact-zero gaps have no rate
    y = np.log(estimates)
    X = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    dof = x.size - 2
    var = float(resid @ resid) / dof if dof > 0 else float("nan")
    se = np.sqrt(var / float(((x - x.mean()) ** 2).sum()))
    return float(coef[0]), float(se)


def mckean_gap(spec: ProblemSpec, cfg: SimConfig,
               law: FeedbackLaw | None = None) -> RateReport:
    """Estimate E[sup_t ||y^i - yhat^i||^2] and the mean absolute realized
    cost gap for each N, with fitted log-log slopes.

    The limit system replaces the empirical mean by the deterministic
    equilibrium mean, discretized by the same Euler scheme.  Coupled and
    limit runs share increments per player, so the gap isolates the
    empirical-mean fluctuation (theoretical rates 1/N for the state gap
    and 1/sqrt(N) for the cost gap).
    """
    steps = _steps_for(spec, cfg.dt)
    grid = uniform_grid(spec.T, steps)
    if law is None:
        law, _ = equilibrium_law(spec, grid)
    else:
        law = _law_on_grid(law, grid)
    co = _SampledCoeffs(spec, grid)
    xi = _euler_mean_path(spec, co, grid, law)

    gap_mean = np.empty(len(cfg.N_values))
    gap_stderr = np.empty(len(cfg.N_values))
    cost_mean = np.empty(len(cfg.N_values))
    cost_stderr = np.empty(len(cfg.N_values))
    for j, N in enumerate(cfg.N_values):
        gaps = np.empty(cfg.paths)
        cgaps = np.empty(cfg.paths)
        for k in range(cfg.paths):
            x0, dW = draw_initials_and_noise(spec, cfg, N, steps, k)
            st_c, cost_c = _simulate_once(spec, co, grid, law, x0, dW)
            st_l, cost_l = _simulate_once(spec, co, grid, law, x0, dW,
                                          mean_path=xi)
            sup_sq = (np.linalg.norm(st_c - st_l, axis=2) ** 2).max(axis=0)
            gaps[k] = sup_sq.mean()
            cgaps[k] = np.abs(cost_c - cost_l).mean()
        root = np.sqrt(cfg.paths)
        gap_mean[j] = gaps.mean()
        gap_stderr[j] = gaps.std(ddof=1) / root if cfg.paths > 1 else 0.0
        cost_mean[j] = cgaps.mean()
        cost_stderr[j] = cgaps.std(ddof=1) / root if cfg.paths > 1 else 0.0

    g_slope, g_se = _loglog_slope(cfg.N_values, gap_mean)
    c_slope, c_se = _loglog_slope(cfg.N_values, cost_mean)
    return RateReport(N_values=cfg.N_values, gap_mean=gap_mean,
                      gap_stderr=gap_stderr, cost_gap_mean=cost_mean,
                      cost_gap_stderr=cost_stderr, gap_slope=g_slope,
                      gap_slope_stderr=g_se, cost_gap_slope=c_slope,
                      cost_gap_slope_stderr=c_se)


def epsilon_nash_probe(spec: ProblemSpec, cfg: SimConfig, N: int,
                       deviation_thetas: tuple[float, ...] = DEFAULT_THETAS,
                       include_best_response: bool = True) -> ProbeReport:
    """Cost change for player 1 under unilateral deviations.

    Candidates are the equilibrium law scaled by each theta plus the
    frozen-mean best response from the Riccati route.  All runs share the
    replication's increments, so theta = 1 would give exactly zero.
    """
    steps = _steps_for(spec, cfg.dt)
    grid = uniform_grid(spec.T, steps)
    law, sol = equilibrium_law(spec, grid)
    co = _SampledCoeffs(spec, grid)
    deviations = [(f"{theta:g}", law.scaled(theta))
                  for theta in deviation_thetas]
    if include_best_response:
        deviations.append(("best_response",
                           best_response_law(spec, grid, sol.xi)))

    diffs = np.empty((cfg.paths, len(deviations)))
    for k in range(cfg.paths):
        x0, dW = draw_initials_and_noise(spec, cfg, N, steps, k)
        _, base = _simulate_once(spec, co, grid, law, x0, dW)
        for d, (_, dev_law) in enumerate(deviations):
            _, costs = _simulate_once(spec, co, grid, law, x0, dW,
                                      player1_law=dev_law)
            diffs[k, d] = costs[0] - base[0]
    mean = diffs.mean(axis=0)
    if cfg.paths > 1:
        stderr = diffs.std(axis=0, ddof=1) / np.sqrt(cfg.paths)
    else:
        stderr = np.zeros_like(mean)
    return ProbeReport(labels=tuple(lbl for lbl, _ in deviations),
                       cost_diff=mean, stderr=stderr)


def rate_csv(report: RateReport) -> str:
    return csv_text("N,gap_mean,gap_stderr,cost_gap_mean,cost_gap_stderr",
                    zip(map(str, report.N_values), report.gap_mean,
                        report.gap_stderr, report.cost_gap_mean,
                        report.cost_gap_stderr))


def probe_csv(report: ProbeReport) -> str:
    return csv_text("theta,cost_diff,stderr",
                    zip(report.labels, report.cost_diff, report.stderr))
