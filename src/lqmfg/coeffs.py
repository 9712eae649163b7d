"""Problem data model for linear-quadratic mean field games.

Holds the coefficient set (A, Abar, B, sigma, Q, Qbar, R, S, terminal
weights, horizon, initial mean), validates definiteness and dimension
invariants, and evaluates time-varying coefficients on uniform grids.
Coefficients are constant or piecewise-constant in time, evaluated
right-continuously.

`system_blocks` and `hamiltonian` are the one place the blocks shared by
every system of the package are defined: `system_blocks` the coefficient
blocks B R^-1 B*, R^-1 B*, Seff = Qbar (I - S), Q + Seff and the terminal
weight QT + QbarT (I - ST), and `hamiltonian` the 2n x 2n layout
[[F, -B R^-1 B*], [-W, -G*]] of the linear Hamiltonian system they fill.
The CSV writer all modules use lives here as well.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from bisect import bisect_right

import numpy as np

# Tolerances shared across the package.
PSD_TOL = 1e-10          # slack on smallest eigenvalue in PSD checks
SYM_TOL = 1e-9           # asymmetry beyond this triggers a warning
GRID_UNIFORM_RTOL = 1e-9  # allowed relative wobble in grid spacing


class ConfigError(ValueError):
    """Raised for malformed problem config files (carries a line number)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _as_matrix(value) -> np.ndarray:
    M = np.atleast_2d(np.asarray(value, dtype=float))
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {M.shape}")
    return M


@dataclass(frozen=True)
class Schedule:
    """A matrix-valued step function of time, right-continuous.

    ``values`` is an ordered tuple of (start time, matrix) pairs; the
    matrix starting at time s applies on [s, next start).  A single pair
    starting at 0 is a constant schedule.
    """

    values: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("schedule needs at least one (time, matrix) pair")
        pairs = tuple((float(t), _as_matrix(M)) for t, M in self.values)
        shape = pairs[0][1].shape
        for t, M in pairs:
            if M.shape != shape:
                raise ValueError(
                    f"schedule pieces have mixed shapes {shape} vs {M.shape}")
        for M in (M for _, M in pairs):
            M.setflags(write=False)
        object.__setattr__(self, "values", pairs)
        object.__setattr__(self, "_starts", tuple(t for t, _ in pairs))
        pieces = np.stack([M for _, M in pairs])
        pieces.setflags(write=False)
        object.__setattr__(self, "_pieces", pieces)

    @classmethod
    def constant(cls, M) -> "Schedule":
        return cls(((0.0, _as_matrix(M)),))

    @classmethod
    def piecewise(cls, pairs) -> "Schedule":
        return cls(tuple((float(t), _as_matrix(M)) for t, M in pairs))

    @property
    def is_constant(self) -> bool:
        return len(self.values) == 1

    @property
    def shape(self) -> tuple[int, int]:
        return self.values[0][1].shape

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Interior switch times (the leading start at 0 is not one)."""
        return self._starts[1:]

    def at(self, t: float) -> np.ndarray:
        """Right-continuous evaluation: the piece whose start is <= t."""
        return self.values[max(bisect_right(self._starts, t) - 1, 0)][1]

    def map(self, fn) -> "Schedule":
        """New schedule with fn applied to every piece matrix."""
        return Schedule(tuple((t, fn(M)) for t, M in self.values))

    @classmethod
    def combine(cls, fn, *schedules: "Schedule") -> "Schedule":
        """Schedule of fn(*pieces) on the merged breakpoints of schedules,
        where pieces are the schedules' matrices in force on each interval."""
        starts = sorted({0.0, *(b for s in schedules for b in s.breakpoints)})
        return cls(tuple((t, fn(*(s.at(t) for s in schedules)))
                         for t in starts))


def check_uniform_grid(grid: np.ndarray) -> float:
    """Return the grid step, raising if spacing is not uniform to 1e-9."""
    diffs = np.diff(grid)
    h = diffs[0]
    if h <= 0 or np.any(np.abs(diffs - h) > GRID_UNIFORM_RTOL * max(abs(h), 1.0)):
        raise ValueError("grid spacing is not uniform to within 1e-9")
    return float(h)


def uniform_grid(T: float, steps: int) -> np.ndarray:
    if steps < 1:
        raise ValueError("need at least one step")
    return np.linspace(0.0, float(T), steps + 1)


def build_grid(spec: "ProblemSpec", steps: int) -> np.ndarray:
    """Uniform grid on [0, T] whose points include all schedule breakpoints.

    Starting from the requested resolution, the step count is increased
    until every breakpoint lies within 1e-9*T of a grid point, so that
    piecewise-constant coefficients switch exactly at grid points.
    """
    points = sorted({b for sched in spec.schedules().values()
                     for b in sched.breakpoints})
    T = spec.T
    tol = 1e-9 * max(T, 1.0)
    for K in range(steps, 16 * steps + 1):
        h = T / K
        if all(abs(b / h - round(b / h)) * h <= tol for b in points):
            return uniform_grid(T, K)
    raise ConfigError(
        "no uniform grid up to 16x the requested resolution hits all "
        f"schedule breakpoints {points}")


def _symmetrized(name: str, M: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):  # inf - inf: `validate` reports it
        skew = float(np.max(np.abs(M - M.T))) if M.size else 0.0
    if skew > SYM_TOL:
        warnings.warn(
            f"{name} is asymmetric by {skew:.3e}; symmetrizing (M+M^T)/2",
            stacklevel=4)
    return (M + M.T) / 2.0


@dataclass(frozen=True)
class ProblemSpec:
    """Full coefficient set of an LQMFG problem.

    Q, Qbar, R (and the terminal QT, QbarT) are symmetrized on
    construction; asymmetry beyond 1e-9 triggers a warning.  delta is the
    assumed lower bound R >= delta*I used by validation.
    """

    n: int
    m: int
    T: float
    A: Schedule
    Abar: Schedule
    B: Schedule
    sigma: Schedule
    Q: Schedule
    Qbar: Schedule
    R: Schedule
    S: Schedule
    QT: np.ndarray
    QbarT: np.ndarray
    ST: np.ndarray
    x0_mean: np.ndarray
    delta: float = 1e-6

    def __post_init__(self):
        for name in ("Q", "Qbar", "R"):
            sched: Schedule = getattr(self, name)
            object.__setattr__(
                self, name, sched.map(lambda M, _n=name: _symmetrized(_n, M)))
        for name in ("QT", "QbarT"):
            object.__setattr__(
                self, name, _symmetrized(name, _as_matrix(getattr(self, name))))
        object.__setattr__(self, "ST", _as_matrix(self.ST))
        x0 = np.asarray(self.x0_mean, dtype=float).reshape(-1)
        object.__setattr__(self, "x0_mean", x0)
        for arr in (self.QT, self.QbarT, self.ST, self.x0_mean):
            arr.setflags(write=False)

    def schedules(self) -> dict[str, Schedule]:
        return {name: getattr(self, name)
                for name in ("A", "Abar", "B", "sigma", "Q", "Qbar", "R", "S")}

    @property
    def is_constant(self) -> bool:
        """Every coefficient schedule is constant in time."""
        return all(s.is_constant for s in self.schedules().values())

    @property
    def terminal_effective_S(self) -> np.ndarray:
        """S_T^eff = QbarT (I - ST)."""
        return self.QbarT @ (np.eye(self.n) - self.ST)


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid: all invariants hold"
        return "\n".join("violation: " + v for v in self.violations)


_EXPECTED_SHAPES = {
    "A": ("n", "n"), "Abar": ("n", "n"), "B": ("n", "m"),
    "sigma": ("n", "n"), "Q": ("n", "n"), "Qbar": ("n", "n"),
    "R": ("m", "m"), "S": ("n", "n"),
}


def _min_eig(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((M + M.T) / 2.0).min())


def validate(spec: ProblemSpec) -> ValidationReport:
    """Check every spec invariant; violations are reported, never raised.

    Eigenvalue conditions (Q, Qbar PSD; R >= delta*I; terminal weights
    PSD) are tested on each piece with slack 1e-10 on the smallest
    eigenvalue; a schedule that fails is reported once, at the start of
    its first failing piece.
    """
    report = ValidationReport()
    v = report.violations

    if spec.n < 1 or spec.m < 1:
        v.append(f"dimensions must be positive, got n={spec.n}, m={spec.m}")
        return report
    if not 0 < spec.T < np.inf:
        v.append(f"horizon T must be positive and finite, got {spec.T}")
    if not 0 < spec.delta < np.inf:
        v.append(f"delta must be positive and finite, got {spec.delta}")

    dims = {"n": spec.n, "m": spec.m}
    for name, (r, c) in _EXPECTED_SHAPES.items():
        want = (dims[r], dims[c])
        got = getattr(spec, name).shape
        if got != want:
            v.append(f"{name} has shape {got}, expected {want}")
    for name in ("QT", "QbarT", "ST"):
        got = getattr(spec, name).shape
        if got != (spec.n, spec.n):
            v.append(f"{name} has shape {got}, expected {(spec.n, spec.n)}")
    if spec.x0_mean.shape != (spec.n,):
        v.append(f"x0_mean has length {spec.x0_mean.size}, expected n={spec.n}")
    for name in ("QT", "QbarT", "ST", "x0_mean"):
        if not np.all(np.isfinite(getattr(spec, name))):
            v.append(f"{name} contains non-finite entries")

    for name, sched in spec.schedules().items():
        starts = [t for t, _ in sched.values]
        if starts[0] != 0.0:
            v.append(f"{name} schedule must start at time 0, got {starts[0]}")
        if any(b >= spec.T for b in sched.breakpoints):
            v.append(f"{name} schedule has a breakpoint at or past T={spec.T}")
        if any(t1 >= t2 for t1, t2 in zip(starts, starts[1:])):
            v.append(f"{name} schedule start times are not strictly increasing")
        if any(not np.all(np.isfinite(M)) for _, M in sched.values):
            v.append(f"{name} schedule contains non-finite entries")

    if v:
        return report  # definiteness checks need consistent shapes

    for name, floor in (("Q", 0.0), ("Qbar", 0.0), ("R", spec.delta)):
        for start, M in getattr(spec, name).values:
            lam = _min_eig(M)
            if lam < floor - PSD_TOL:
                bound = "PSD fails" if floor == 0.0 else "R >= delta*I fails"
                v.append(f"{name} at t={start:g}: {bound} "
                         f"(min eigenvalue {lam:.3e}, required >= {floor:g})")
                break  # one violation per coefficient is enough
    for name in ("QT", "QbarT"):
        lam = _min_eig(getattr(spec, name))
        if lam < -PSD_TOL:
            v.append(f"{name} PSD fails (min eigenvalue {lam:.3e})")
    return report


@dataclass(frozen=True)
class SystemBlocks:
    """Coefficient blocks of the equilibrium system and its relatives.

    BRB = B R^-1 B*, RinvBt = R^-1 B*, Seff = Qbar (I - S) and
    QS = Q + Seff are piecewise-constant schedules; GT = QT + QbarT (I - ST)
    is the terminal weight.
    """

    BRB: Schedule
    RinvBt: Schedule
    Seff: Schedule
    QS: Schedule
    GT: np.ndarray


def system_blocks(spec: ProblemSpec) -> SystemBlocks:
    """Build every block once, inverting R once per piece."""
    eye = np.eye(spec.n)
    Rinv = spec.R.map(np.linalg.inv)
    Seff = Schedule.combine(lambda Qbar, S: Qbar @ (eye - S),
                            spec.Qbar, spec.S)
    return SystemBlocks(
        BRB=Schedule.combine(lambda B, Ri: B @ Ri @ B.T, spec.B, Rinv),
        RinvBt=Schedule.combine(lambda B, Ri: Ri @ B.T, spec.B, Rinv),
        Seff=Seff,
        QS=Schedule.combine(np.add, spec.Q, Seff),
        GT=spec.QT + spec.terminal_effective_S)


def hamiltonian(drift: Schedule, BRB: Schedule, weight: Schedule,
                adjoint: Schedule | None = None) -> Schedule:
    """The linear Hamiltonian system [[drift, -BRB], [-weight, -adjoint*]]
    of d/dt (x; p), on the merged breakpoints; adjoint defaults to drift."""
    return Schedule.combine(
        lambda F, BRB, W, G: np.block([[F, -BRB], [-W, -G.T]]),
        drift, BRB, weight, drift if adjoint is None else adjoint)


def sample(schedule: Schedule, grid: np.ndarray) -> np.ndarray:
    """Right-continuous evaluation at each grid point, stacked on axis 0:
    the pieces `Schedule.at` picks, found by one vectorised binary search."""
    idx = np.searchsorted(schedule._starts, grid, side="right") - 1
    return schedule._pieces[np.maximum(idx, 0)]


def csv_text(header: str, rows) -> str:
    """CSV text: the header line, then one line per row.  Each cell is a
    string, written as given, or a Python float, written as its repr (which
    is its str) so that values round-trip."""
    lines = [header]
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Problem config files: line-oriented key-value text with [section] headers.
# ---------------------------------------------------------------------------

_MATRIX_SECTIONS = ("A", "Abar", "B", "sigma", "Q", "Qbar", "R", "S")
_TERMINAL_SECTIONS = ("QT", "QbarT", "ST")


def _parse_matrix(text: str, line: int) -> np.ndarray:
    rows = []
    for row in text.split(";"):
        entries = [e for e in (x.strip() for x in row.split(",")) if e]
        if not entries:
            raise ConfigError("empty matrix row", line)
        try:
            rows.append([float(e) for e in entries])
        except ValueError as exc:
            raise ConfigError(f"bad matrix entry: {exc}", line) from None
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ConfigError("matrix rows have unequal lengths", line)
    return np.array(rows, dtype=float)


def _parse_vector(text: str, line: int) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",") if x.strip()],
                        dtype=float)
    except ValueError as exc:
        raise ConfigError(f"bad vector entry: {exc}", line) from None


def config_sections(text: str, known: tuple[str, ...] | None = None
                    ) -> dict[str, list[tuple[int, str, str]]]:
    """The (lineno, key, value) entries of each `[section]` of a config,
    in file order.  `#` starts a comment.  Raises ConfigError, with the
    line number, for a section outside `known` (when given), content
    before any header, or a line that is not `key = value`."""
    sections: dict[str, list[tuple[int, str, str]]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if known is not None and section not in known:
                raise ConfigError(f"unknown section [{section}]", lineno)
            sections.setdefault(section, [])
            continue
        if section is None:
            raise ConfigError("content before any [section] header", lineno)
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        sections[section].append((lineno, key, value))
    return sections


def parse_config(text: str) -> ProblemSpec:
    """Parse a problem config into a ProblemSpec.

    Format: a `[problem]` section with keys n, m, T, delta (optional) and
    x0_mean; one section per coefficient with either `const = <matrix>`
    or repeated `at <time> = <matrix>` lines.  Matrix rows split on `;`,
    entries on `,`.  `#` starts a comment.
    """
    problem: dict[str, str] = {}
    pieces: dict[str, list[tuple[float, np.ndarray, int]]] = {}
    consts: dict[str, tuple[np.ndarray, int]] = {}
    sections = config_sections(
        text, ("problem",) + _MATRIX_SECTIONS + _TERMINAL_SECTIONS)

    for section, lineno, key, value in (
            (section, *row) for section, rows in sections.items()
            for row in rows):
        if section == "problem":
            problem[key] = value
        elif key == "const":
            if section in consts or section in pieces:
                raise ConfigError(f"[{section}] defined more than once", lineno)
            consts[section] = (_parse_matrix(value, lineno), lineno)
        elif key.startswith("at"):
            if section in _TERMINAL_SECTIONS:
                raise ConfigError(
                    f"[{section}] is a terminal matrix; only 'const =' applies",
                    lineno)
            if section in consts:
                raise ConfigError(f"[{section}] already given as const", lineno)
            try:
                t = float(key[2:].strip())
            except ValueError:
                raise ConfigError(f"bad time in '{key}'", lineno) from None
            pieces.setdefault(section, []).append(
                (t, _parse_matrix(value, lineno), lineno))
        else:
            raise ConfigError(f"unknown key '{key}' in [{section}]", lineno)

    for key in ("n", "m", "T", "x0_mean"):
        if key not in problem:
            raise ConfigError(f"[problem] is missing key '{key}'")
    try:
        n = int(problem["n"])
        m = int(problem["m"])
        T = float(problem["T"])
        delta = float(problem.get("delta", "1e-6"))
    except ValueError as exc:
        raise ConfigError(f"bad [problem] value: {exc}") from None
    x0_mean = _parse_vector(problem["x0_mean"], 0)

    def schedule_for(name: str) -> Schedule:
        if name in consts:
            return Schedule.constant(consts[name][0])
        if name in pieces:
            entries = sorted(pieces[name], key=lambda p: p[0])
            if entries[0][0] != 0.0:
                raise ConfigError(
                    f"[{name}] piecewise schedule must start at time 0",
                    entries[0][2])
            return Schedule.piecewise([(t, M) for t, M, _ in entries])
        raise ConfigError(f"missing section [{name}]")

    def terminal_for(name: str) -> np.ndarray:
        if name not in consts:
            raise ConfigError(f"missing section [{name}]")
        return consts[name][0]

    return ProblemSpec(
        n=n, m=m, T=T, delta=delta, x0_mean=x0_mean,
        A=schedule_for("A"), Abar=schedule_for("Abar"), B=schedule_for("B"),
        sigma=schedule_for("sigma"), Q=schedule_for("Q"),
        Qbar=schedule_for("Qbar"), R=schedule_for("R"), S=schedule_for("S"),
        QT=terminal_for("QT"), QbarT=terminal_for("QbarT"),
        ST=terminal_for("ST"))


def load_config(path) -> ProblemSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
