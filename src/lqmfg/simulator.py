"""N-player Monte Carlo under the mean-field feedback law.

Simulates the coupled game dx^i = (A x^i + B v^i + Abar mean_{j!=i} x^j) dt
+ sigma dW^i by Euler-Maruyama, alongside the decoupled limit system in
which the empirical mean is replaced by the precomputed deterministic
path xi.  Both consume identical Wiener increments per player (common
random numbers).  Each player's mean of the others is formed from offsets
to one player, so equal players see exactly their own state: at sigma = 0
with deterministic x0 every player of the coupled system sits on the limit
path bit for bit, and the gap is exactly zero.

Under a linear feedback law each Euler step is one affine map of a
player's state and the mean it sees, and its trapezoid-weighted cost one
quadratic form in the two, with coefficients built once per law for the
whole grid (_AffineSteps).

Randomness comes from the counter-based Philox generator (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11), one stream per
replication k derived statelessly from (seed, k).  A replication draws
one block of standard normals in player-major order: row i holds player
i's initial-state normals, then its increments.  The stream is
sequential, so a smaller draw is a prefix of a larger one: the first N
players' draws do not depend on N, and each replication is drawn once,
at the largest N, for every N.

The gap estimate steps, per block of replications, one stacked state of
shape (2, replications, sum of N, n): the coupled and limit runs, each
holding every player count side by side on one ragged player axis, where
group j is the block's first N_j players and shares their draws.  Each
group sees only its own players' mean, so its estimates do not depend on
the other player counts.  Replications are processed in blocks whose
draws, made once at the largest N, fit in _BLOCK_BYTES, so memory does
not grow with the replication count and results do not depend on the
block size.  Each replication's stream fills its rows of the block in
place, in the stream's own player-major order, and the Euler loop reads
the unscaled normals of one step at a time with sqrt(dt) folded into
the noise coefficient: the block is the draws' only copy, and the
budget counts it.  The epsilon-Nash probe steps no N-player state: it
steps the exact 2n-dimensional recursion of player 1 and the others'
mean, drawing that mean from its exact law (see epsilon_nash_probe).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coeffs import ProblemSpec, csv_text, sample, uniform_grid
from .fbsolver import (FeedbackLaw, equilibrium_control_law,
                       solve_equilibrium_shooting)
from .odecore import psd_sqrt
from .riccati import solve_symmetric

DEFAULT_THETAS = (0.0, 0.5, 0.9, 1.1, 1.5, 2.0)

_BLOCK_BYTES = 4 * 2**20  # standard normals held per block of replications


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo settings: player counts, replication count, master seed,
    Euler step, and the Gaussian initial distribution (mean, covariance).
    x0_root is the covariance's PSD square root, formed once here."""

    N_values: tuple[int, ...]
    paths: int
    seed: int
    dt: float
    x0_mean: np.ndarray
    x0_cov: np.ndarray
    x0_root: np.ndarray = field(init=False, repr=False, compare=False)

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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        n = self.x0_mean.size
        if cov.shape != (n, n):
            raise ValueError(f"x0_cov must be {n}x{n}, got shape {cov.shape}")
        try:
            object.__setattr__(self, "x0_root", psd_sqrt(cov))
        except ValueError as exc:
            raise ValueError(f"x0_cov: {exc}") from None


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


def replication_stream(seed: int, replication: int) -> np.random.Generator:
    """Counter-based stream for one replication, derived statelessly."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replication,))
    return np.random.Generator(np.random.Philox(ss))


def draw_initials_and_noise(spec: ProblemSpec, cfg: SimConfig, N: int,
                            steps: int, replication: int):
    """x0 samples (N, n) and Wiener increments (steps, N, n) of one
    replication.

    One (N, steps+1, n) standard-normal block is drawn from the
    replication's stream in player-major order: row i holds player i's
    x0 normals, then its increments.  A larger N only appends rows, so
    the first N players' draws do not depend on N."""
    return _initials_and_noise(spec, cfg, replication_stream(
        cfg.seed, replication).standard_normal((N, steps + 1, spec.n)))


def _initials_and_noise(spec: ProblemSpec, cfg: SimConfig, z: np.ndarray):
    """x0 (..., n) and Wiener increments (steps, ..., n) from standard
    normals z (..., steps+1, n)."""
    dW = np.moveaxis(z[..., 1:, :], -2, 0)
    dW *= np.sqrt(spec.T / (z.shape[-2] - 1))
    return _initials(cfg, z), dW


def _initials(cfg: SimConfig, z: np.ndarray) -> np.ndarray:
    """x0 (..., n) from the initial-state normals of z (..., steps+1, n)."""
    return cfg.x0_mean + _mv(cfg.x0_root, z[..., 0, :])


def _replication_blocks(spec: ProblemSpec, cfg: SimConfig, N: int,
                        steps: int):
    """Yield (replication slice, z (R, N, steps+1, n)) for consecutive
    blocks of R replications whose draws fit in _BLOCK_BYTES (at least one
    each).  Row z[j] is replication k's stream drawn in place in its own
    player-major order, the standard normals of draw_initials_and_noise
    before any scaling; the block is reused, so it is the only copy."""
    per_replication = N * (steps + 1) * spec.n * 8
    size = min(cfg.paths, max(1, _BLOCK_BYTES // per_replication))
    z = np.empty((size, N, steps + 1, spec.n))
    for start in range(0, cfg.paths, size):
        reps = range(start, min(start + size, cfg.paths))
        for j, k in enumerate(reps):
            replication_stream(cfg.seed, k).standard_normal(out=z[j])
        yield slice(reps.start, reps.stop), z[:len(reps)]


class _PlayerRows:
    """Standard normals z (R, N, steps+1, n) read as the increments of the
    given player rows: step k gathers z[:, players, k+1] alone, so the
    block is never copied whole."""

    def __init__(self, z: np.ndarray, players: np.ndarray):
        self.z, self.players = z, players

    def __len__(self):
        return self.z.shape[2] - 1

    def __getitem__(self, k):
        return np.take(self.z[:, :, k + 1], self.players, axis=1)


class _AffineSteps:
    """Per grid index k, the Euler step and cost of players who play
    v = -(G_k x + g_k) and see the others' mean m, for a gain G (K, ..., m,
    n) and shift g (K, ..., m) whose middle axes broadcast against the state:

        x' = F_k x + H_k m + c_k + sigma_k dW_k,
        F_k = I + dt (A_k - B_k G_k),  H_k = dt Abar_k,  c_k = -dt B_k g_k,
        cost = sum_k x* (Pxx_k x + Pxm_k m + px_k) + m* Pmm_k m + p0_k.

    With Q, R and Qbar symmetric, x* Q x + v* R v + (x - S m)* Qbar (x - S m)
    gives Pxx = Q + G* R G + Qbar, Pxm = -2 Qbar S, Pmm = S* Qbar S,
    px = 2 G* R g and p0 = g* R g, each times half the trapezoid weight of
    index k; the last index also carries half the terminal cost.  sigma_k
    is stored times noise_scale, so that with noise_scale = sqrt(dt) the
    steps consume standard normals in place of dW_k."""

    def __init__(self, spec: ProblemSpec, grid: np.ndarray, gain: np.ndarray,
                 shift: np.ndarray, noise_scale: float = 1.0):
        axes = tuple(range(1, gain.ndim - 2))
        A, Abar, B, sigma, Q, Qbar, R, S = (
            np.expand_dims(sample(getattr(spec, name), grid), axes)
            for name in ("A", "Abar", "B", "sigma", "Q", "Qbar", "R", "S"))
        self.sigma = sigma * noise_scale
        dt = grid[1] - grid[0]
        half = np.full(A.shape[:-2], 0.5 * dt)
        half[[0, -1]] *= 0.5
        Gt, Rg, w = np.swapaxes(gain, -1, -2), _mv(R, shift), half[..., None]
        self.F = np.eye(spec.n) + dt * (A - B @ gain)
        self.H, self.c = dt * Abar, -dt * _mv(B, shift)
        self.Pxx = w[..., None] * (Q + Qbar + Gt @ R @ gain)
        self.Pxm = w[..., None] * (-2.0 * Qbar @ S)
        self.Pmm = w[..., None] * (np.swapaxes(S, -1, -2) @ Qbar @ S)
        self.px, self.p0 = 2.0 * w * _mv(Gt, Rg), half * _dot(shift, Rg)
        self.Pxx[-1] += 0.5 * (spec.QT + spec.QbarT)
        self.Pxm[-1] -= spec.QbarT @ spec.ST
        self.Pmm[-1] += 0.5 * spec.ST.T @ spec.QbarT @ spec.ST

    def step(self, k: int, x: np.ndarray, m: np.ndarray) -> np.ndarray:
        """F_k x + H_k m + c_k: the step without its noise."""
        y = _mv(self.F[k], x)
        y += _mv(self.H[k], m)
        return np.add(y, self.c[k], out=y)

    def cost(self, k: int, x: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Index k's share of the cost at (x, m)."""
        u = _mv(self.Pxx[k], x)
        u += _mv(self.Pxm[k], m)
        u += self.px[k]
        out = _dot(x, u)
        out += _dot(m, _mv(self.Pmm[k], m))
        return np.add(out, self.p0[k], out=out)


def _law_on_grid(law: FeedbackLaw, grid: np.ndarray) -> FeedbackLaw:
    if law.grid.size == grid.size and np.max(np.abs(law.grid - grid)) <= 1e-9:
        return law
    stride, rem = divmod(law.grid.size - 1, grid.size - 1)
    if rem or np.max(np.abs(law.grid[::stride] - grid)) > 1e-9:
        raise ValueError("feedback law grid is not compatible with the "
                         "simulation grid")
    return FeedbackLaw(grid, law.k[::stride], law.gain[::stride],
                       law.shift[::stride])


def _mv(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M x over the last axis of x, summed in index order.  Leading axes
    of M (..., m, n) broadcast against those of x.  The matrices are tiny,
    so n broadcast multiply-adds beat one BLAS call per stacked matrix,
    and every stacked entry is computed by the same operations."""
    y = M[..., 0] * x[..., :1]
    for j in range(1, x.shape[-1]):
        y += M[..., j] * x[..., j:j + 1]
    return y


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x* y over the last axis, summed in index order like _mv."""
    out = x[..., 0] * y[..., 0]
    for j in range(1, x.shape[-1]):
        out += x[..., j] * y[..., j]
    return out


def _group_starts(sizes: np.ndarray) -> np.ndarray:
    """Index of each group's first player when groups of the given sizes
    lie side by side on one player axis."""
    return np.cumsum(sizes) - sizes


def _empirical_mean(sizes, xi: np.ndarray | None = None):
    """others_mean for games of sizes[j] players laid side by side on the
    player axis: each player sees the mean of the others of its own group,
    x_ref + (D - d)/(N - 1), from its offset d = x - x_ref to the group's
    first player and the group's sum of offsets D (one segment sum), so
    equal players see exactly their own state.  With xi given, the last
    run is the McKean-Vlasov limit system, in which every player sees the
    deterministic mean path xi."""
    sizes = np.asarray(sizes)
    starts = _group_starts(sizes)
    first = np.repeat(starts, sizes)
    divisor = np.repeat(sizes - 1.0, sizes)[:, None]

    def others_mean(k, x):
        m = np.empty_like(x)
        coupled, out = (x, m) if xi is None else (x[:-1], m[:-1])
        ref = np.take(coupled, first, axis=-2)
        d = coupled - ref
        np.subtract(np.repeat(np.add.reduceat(d, starts, axis=-2), sizes,
                              axis=-2), d, out=out)
        out /= divisor
        out += ref
        if xi is not None:
            m[-1] = xi[k]
        return m
    return others_mean


def _euler(steps: _AffineSteps, x0: np.ndarray, dW: np.ndarray, others_mean,
           runs: int = 1, observe=None) -> np.ndarray:
    """Euler-Maruyama on `runs` stacked copies of the players x0 (..., n);
    returns their costs (runs, ...).

    The state starts at x0 broadcast over runs and consumes the increments
    dW[k], k < len(dW), which broadcast against it.  At grid index k each
    player sees the mean of the others others_mean(k, x) and takes the
    affine step of `steps`, whose law axes broadcast against the state.
    observe(k, x) sees the state at every grid index k.
    """
    x = np.broadcast_to(x0, (runs,) + x0.shape).copy()  # later x inherit C order
    costs = np.zeros(x.shape[:-1])
    # overflow is a reported outcome (non-finite states), not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(dW) + 1):
            if observe is not None:
                observe(k, x)
            m = others_mean(k, x)
            costs += steps.cost(k, x, m)
            if k < len(dW):
                x = steps.step(k, x, m)
                x += _mv(steps.sigma[k], dW[k])
    return costs


def equilibrium_law(spec: ProblemSpec, grid: np.ndarray):
    """Equilibrium feedback on the grid plus the mean path xi it generates."""
    sol = solve_equilibrium_shooting(spec, grid)
    ric = solve_symmetric(spec, grid)
    law = equilibrium_control_law(spec, sol, ric)
    return law, sol


def _euler_mean_path(spec: ProblemSpec, steps: _AffineSteps) -> np.ndarray:
    """Mean path of the limit system under the same Euler steps and the
    same operations the players use.  With sigma = 0 and deterministic x0
    the coupled players all see their common state as the others' mean,
    so the coupled and limit systems coincide step by step, bit for bit."""
    m = np.empty((len(steps.F), spec.n))
    m[0] = spec.x0_mean
    for k in range(len(m) - 1):
        m[k + 1] = steps.step(k, m[k], m[k])
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
    x0, dW = draw_initials_and_noise(spec, cfg, N, steps, replication)
    states = np.empty((steps + 1, N, spec.n))

    def record(k, x):
        states[k] = x[0, 0]

    costs = _euler(_AffineSteps(spec, grid, law.gain, law.shift), x0[None],
                   dW[:, None], _empirical_mean((N,)), observe=record)
    if not np.all(np.isfinite(states)):
        bad = int(np.flatnonzero(~np.isfinite(states).all(axis=(1, 2)))[0])
        raise FloatingPointError(
            f"simulation produced non-finite states at step {bad}")
    return NPlayerResult(grid=grid, states=states, costs=costs[0, 0])


def _loglog_slope(N_values, estimates) -> tuple[float, float]:
    x = np.log(np.asarray(N_values, float))
    estimates = np.asarray(estimates, float)
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


def _mean_and_stderr(samples: np.ndarray):
    """Mean and standard error over the last axis (replications)."""
    paths = samples.shape[-1]
    mean = samples.mean(axis=-1)
    if paths > 1:
        return mean, samples.std(axis=-1, ddof=1) / np.sqrt(paths)
    return mean, np.zeros_like(mean)


def mckean_gap(spec: ProblemSpec, cfg: SimConfig) -> RateReport:
    """Estimate E[sup_t ||y^i - yhat^i||^2] and the mean absolute realized
    cost gap for each N, with fitted log-log slopes.

    The limit system replaces the empirical mean by the deterministic
    equilibrium mean, discretized by the same Euler scheme.  Coupled and
    limit runs share increments per player, so the gap isolates the
    empirical-mean fluctuation (theoretical rates 1/N for the state gap
    and 1/sqrt(N) for the cost gap).
    """
    if len(set(cfg.N_values)) < 3:
        raise ValueError("slope fit needs at least 3 distinct player counts")
    steps = _steps_for(spec, cfg.dt)
    grid = uniform_grid(spec.T, steps)
    law, _ = equilibrium_law(spec, grid)
    # the blocks hold standard normals: sqrt(dt) goes into sigma_k
    affine = _AffineSteps(spec, grid, law.gain, law.shift,
                          noise_scale=np.sqrt(spec.T / steps))
    xi = _euler_mean_path(spec, affine)

    # every N of a block on one ragged player axis: group j holds the
    # block's first N_j players
    sizes = np.array(cfg.N_values)
    starts = _group_starts(sizes)
    players = np.concatenate([np.arange(N) for N in sizes])
    others_mean = _empirical_mean(sizes, xi)

    def group_means(v):
        return (np.add.reduceat(v, starts, axis=-1) / sizes).T

    gaps = np.empty((sizes.size, cfg.paths))
    cost_gaps = np.empty_like(gaps)
    for block, z in _replication_blocks(spec, cfg, sizes.max(), steps):
        sup_sq = np.zeros(z.shape[:1] + players.shape)

        def track(k, x):
            d = x[0] - x[1]
            np.maximum(sup_sq, _dot(d, d), out=sup_sq)

        costs = _euler(affine, _initials(cfg, z)[:, players],
                       _PlayerRows(z, players), others_mean, runs=2,
                       observe=track)
        gaps[:, block] = group_means(sup_sq)
        cost_gaps[:, block] = group_means(np.abs(costs[0] - costs[1]))

    gap_mean, gap_stderr = _mean_and_stderr(gaps)
    cost_mean, cost_stderr = _mean_and_stderr(cost_gaps)
    g_slope, g_se = _loglog_slope(cfg.N_values, gap_mean)
    c_slope, c_se = _loglog_slope(cfg.N_values, cost_mean)
    return RateReport(N_values=cfg.N_values, gap_mean=gap_mean,
                      gap_stderr=gap_stderr, cost_gap_mean=cost_mean,
                      cost_gap_stderr=cost_stderr, gap_slope=g_slope,
                      gap_slope_stderr=g_se, cost_gap_slope=c_slope,
                      cost_gap_slope_stderr=c_se)


def _player_one_and_others_mean(spec: ProblemSpec, cfg: SimConfig, N: int,
                                steps: int):
    """x0 (paths, 2, n) and dW (steps, paths, 2, n): row 0 holds player 1's
    draws, row 1 the mean of the other N - 1 players' draws.  The others'
    normals are i.i.d. and independent of player 1's, so their mean is
    exactly N(0, I/(N - 1)): each replication's stream draws two rows and
    divides the second by sqrt(N - 1).  Row 0 is player 1's row of
    draw_initials_and_noise at any N, since the stream is sequential."""
    z = np.stack([replication_stream(cfg.seed, k).standard_normal(
        (2, steps + 1, spec.n)) for k in range(cfg.paths)])
    z[:, 1] /= np.sqrt(N - 1)
    return _initials_and_noise(spec, cfg, z)


def _pair_mean(N: int):
    """others_mean for the pair (x^1, M) of player 1 and the mean of the
    other N - 1 players: player 1 sees M, and the others' mean of the
    others is (x^1 + (N-2) M)/(N-1)."""
    def others_mean(k, y):
        x1, M = y[..., :1, :], y[..., 1:, :]
        return np.concatenate([M, (x1 + (N - 2) * M) / (N - 1)], axis=-2)
    return others_mean


def epsilon_nash_probe(spec: ProblemSpec, cfg: SimConfig, N: int,
                       deviation_thetas: tuple[float, ...] = DEFAULT_THETAS,
                       include_best_response: bool = True) -> ProbeReport:
    """Cost change for player 1 under unilateral deviations.

    Candidates are the equilibrium law scaled by each theta plus the
    frozen-mean best response from the Riccati route.  The others all play
    the equilibrium law v = -(G x + g) and the Euler map is affine, so
    their mean M follows a closed recursion driven by player 1's x^1:

        M' = M + dt (A M + B vbar + Abar (x^1 + (N-2) M)/(N-1)) + sigma dWbar

    with vbar = -(G M + g), and dWbar and M at t = 0 the means of the
    others' draws.  Player 1 sees exactly M, so its costs need only
    (x^1, v^1, M).  The others' draws enter only through their mean, which
    is drawn from its exact law (_player_one_and_others_mean), at a cost
    that does not depend on N.  The base run and one run per candidate take
    the affine steps of this 2n-dimensional state for all replications at
    once, from the same draws, so theta = 1 gives exactly zero.
    """
    steps = _steps_for(spec, cfg.dt)
    grid = uniform_grid(spec.T, steps)
    law, sol = equilibrium_law(spec, grid)
    deviations = [(f"{theta:g}", law.scaled(theta))
                  for theta in deviation_thetas]
    if include_best_response:
        deviations.append(("best_response",
                           best_response_law(spec, grid, sol.xi)))
    # gain and shift per grid index, run, (paths) and pair row: player 1
    # plays the run's candidate, the others' mean the equilibrium law
    laws = [law] + [dev_law for _, dev_law in deviations]
    gain = np.stack([np.stack([lw.gain, law.gain], axis=1) for lw in laws],
                    axis=1)[:, :, None]
    shift = np.stack([np.stack([lw.shift, law.shift], axis=1) for lw in laws],
                     axis=1)[:, :, None]
    x0, dW = _player_one_and_others_mean(spec, cfg, N, steps)
    costs = _euler(_AffineSteps(spec, grid, gain, shift), x0, dW,
                   _pair_mean(N), runs=len(laws))[..., 0]
    mean, stderr = _mean_and_stderr(costs[1:] - costs[0])
    return ProbeReport(labels=tuple(lbl for lbl, _ in deviations),
                       cost_diff=mean, stderr=stderr)


def rate_csv(report: RateReport) -> str:
    return csv_text("N,gap_mean,gap_stderr,cost_gap_mean,cost_gap_stderr",
                    zip(map(str, report.N_values), report.gap_mean.tolist(),
                        report.gap_stderr.tolist(),
                        report.cost_gap_mean.tolist(),
                        report.cost_gap_stderr.tolist()))


def probe_csv(report: ProbeReport) -> str:
    return csv_text("theta,cost_diff,stderr",
                    zip(report.labels, report.cost_diff.tolist(),
                        report.stderr.tolist()))
