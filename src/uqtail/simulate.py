"""Embedded-chain simulation, empirical occupation laws, extraction of rare
upward excursions with their phase occupancy, and the exact law of those
excursions' slopes at a finite target level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .params import (DOWN, UP, InvalidParameters, Model, ModelParams,
                     UnstableParameters, check_state)
from .kernels import row_classes
from .qbd import ConvergenceError, LatticeLaw, exact_stationary_model1, qbd_blocks
from .spectral import stability

_BLOCK = 1 << 16
_MAX_LAW_CELLS = 1 << 24    # largest box an empirical law holds densely: 128 MiB of float64
_SLOPE_TOL = 1e-13          # excursion-length mass left unsummed
_SLOPE_MAX_STEPS = 10 ** 6


@dataclass(frozen=True)
class Trajectory:
    params: ModelParams
    seed: int
    x: np.ndarray
    status: np.ndarray
    y: np.ndarray | None = None

    @property
    def steps(self) -> int:
        return len(self.x) - 1

    def state(self, i: int) -> tuple:
        if self.y is None:
            return (int(self.x[i]), int(self.status[i]))
        return (int(self.x[i]), int(self.y[i]), int(self.status[i]))

    def to_csv(self) -> str:
        from . import __version__
        out = [f"# version={__version__}\n", "# rng=numpy.random.Generator(PCG64)\n"]
        out += [f"# {key}={value:.17g}\n" if isinstance(value, float) else f"# {key}={value}\n"
                for key, value in self.params.to_dict().items()]
        out.append(f"# seed={self.seed}\n")
        if self.y is None:
            out.append("step,x,status\n")
            columns = (self.x, self.status)
        else:
            out.append("step,x,y,status\n")
            columns = (self.x, self.y, self.status)
        for first in range(0, len(self.x), _BLOCK):
            last = min(first + _BLOCK, len(self.x))
            out.append(_csv_lines([np.arange(first, last)]
                                  + [column[first:last] for column in columns]))
        return "".join(out)


def _csv_lines(columns: list[np.ndarray]) -> str:
    """Lines "a,b,...\\n" of non-negative integer columns, as f-strings print them.

    Each field's decimal digits go right-aligned into a uint8 matrix, with
    byte 0 as padding, followed by its "," or "\\n"; dropping the padding
    leaves the text.
    """
    if any(column.min() < 0 for column in columns):
        raise ValueError("trajectory columns must be non-negative")
    widths = [len(str(int(column.max()))) for column in columns]
    text = np.zeros((len(columns[0]), sum(widths) + len(columns)), dtype=np.uint8)
    end = 0
    for column, width in zip(columns, widths):
        rest, digit = np.divmod(column.astype(np.int64), 10)
        text[:, end + width - 1] = 48 + digit
        for pos in range(end + width - 2, end - 1, -1):
            text[:, pos] = (48 + rest % 10) * (rest > 0)
            rest //= 10
        end += width + 1
        text[:, end - 1] = ord(",")
    text[:, -1] = ord("\n")
    flat = text.ravel()
    return flat[flat != 0].tobytes().decode("ascii")


@dataclass(frozen=True)
class Excursion:
    start_step: int
    end_step: int   # first step at or above the target level
    peak: int
    down_fraction: float
    slope_estimate: float  # levels per embedded step


@dataclass(frozen=True)
class ConditionedSlope:
    """Exact slope law of Model 1 excursions from base_level up to level_k.

    ``h[x - base_level - 1, sigma]`` is the probability of reaching level_k
    before base_level from (x, sigma), for base_level < x < level_k.
    """
    level_k: int
    base_level: int
    mean_slope: float           # E[(K - base) / T], what slope_estimate averages to
    ratio_slope: float          # (K - base) / E[T]
    success_probability: float  # P(reach K before base | a step up from base)
    h_residual: float           # max relative residual of h's harmonic equations
    steps: int                  # excursion lengths summed exactly, 1..steps
    remaining_mass: float       # P(T > steps), below the stated tolerance
    h: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution(LatticeLaw):
    steps_used: int
    notes: tuple[str, ...] = field(default_factory=tuple)


def _phase_rows(params: ModelParams):
    """Per phase, the interior class row (origin (1, [1,] sigma)) as thresholds
    cum and moves with columns dx, [dy,] target phase.

    cum is made non-decreasing by a running maximum, which leaves the first
    j with u < cum[j] unchanged, so np.searchsorted finds it.  A blocked move
    keeps the phase, so a row with a move that changes a coordinate and the
    phase, or a coordinate by more than one, raises.
    """
    classes = row_classes(params)
    interior = (1,) if params.model is Model.MODEL1 else (1, 1)
    rows = []
    for sigma in (UP, DOWN):
        origin = (*interior, sigma)
        row = classes[origin]
        moves = np.array([(*(t - o for t, o in zip(target[:-1], origin)), target[-1])
                          for target, _ in row.targets])
        cum = np.cumsum([prob for _, prob in row.targets])
        cum[-1] = 1.0
        delta = moves[:, :-1]
        if np.any(np.abs(delta) > 1) or np.any(delta.any(axis=1) & (moves[:, -1] != sigma)):
            raise ValueError(f"row at {origin} has a move that blocking would distort")
        rows.append((np.maximum.accumulate(cum), moves))
    return rows


def simulate(params: ModelParams, steps: int, seed: int = 0,
             start: tuple | None = None) -> Trajectory:
    """Sample a path of the embedded chain, recording every state.

    Each step draws u and takes the first move j with u < cum[j] in the
    interior class row of the current phase (`_phase_rows`).  A move that
    would take a coordinate below 0 is blocked and the chain stays: each
    boundary row is the interior row with those moves folded into its
    self-loop.
    """
    if steps < 1:
        raise InvalidParameters("steps must be positive")
    if seed < 0:
        raise InvalidParameters(f"seed must be >= 0, got {seed}")
    if start is None:
        start = (0, UP) if params.model is Model.MODEL1 else (0, 0, UP)
    check_state(start, params.model)
    rows = _phase_rows(params)
    rng = np.random.default_rng(seed)
    # x[, y] as int32, then the phase as int8
    columns = [np.empty(steps + 1, dtype=np.int32) for _ in start[:-1]]
    columns.append(np.empty(steps + 1, dtype=np.int8))
    for column, value in zip(columns, start):
        column[0] = value
    state, i = start, 0
    while i < steps:
        block = rng.random(min(_BLOCK, steps - i))
        for column, path in zip(columns, _block_path(rows, block, state)):
            column[i + 1:i + 1 + len(block)] = path
        i += len(block)
        state = tuple(int(column[i]) for column in columns)
    y = columns[1] if len(columns) == 3 else None
    return Trajectory(params=params, seed=seed, x=columns[0], status=columns[-1], y=y)


def _block_path(rows, u, start):
    """Coordinates and phase after each uniform of u, from state start.

    The phases come first (`_phase_path`): blocked moves keep the phase, so
    the phase chain sees no coordinate.  When every move that lowers x
    leaves y unchanged, x never blocks y.  y then follows the Lindley
    recursion y_k = max(y_{k-1} + dy_k, 0), which is the blocking rule for
    unit steps, and x follows it too once the moves that y blocked are
    removed.  Otherwise (the feedback move (x - 1, y + 1)) a per-step loop
    applies the rule.
    """
    up, down = (moves[np.searchsorted(cum, u, side="right")] for cum, moves in rows)
    phase = _phase_path(start[-1], up[:, -1], down[:, -1])
    delta = np.where((phase[:-1] == UP)[:, None], up[:, :-1], down[:, :-1])
    if delta.shape[1] == 1:
        return _lindley(start[0], delta[:, 0]), phase[1:]
    if any(np.any((moves[:, 0] < 0) & (moves[:, 1] != 0)) for _, moves in rows):
        return (*_blocked_walk(start[0], start[1], delta[:, 0].tolist(),
                               delta[:, 1].tolist()), phase[1:])
    y = _lindley(start[1], delta[:, 1])
    dx = np.where(np.concatenate(([start[1]], y[:-1])) + delta[:, 1] < 0, 0, delta[:, 0])
    return _lindley(start[0], dx), y, phase[1:]


def _lindley(x, dx):
    """x_k = max(x_{k-1} + dx_k, 0) from x_0 = x >= 0, for every k >= 1."""
    level = x + np.cumsum(dx)
    return level - np.minimum(np.minimum.accumulate(level), 0)


def _blocked_walk(x, y, dx, dy):
    """x and y after each step (dx_k, dy_k), skipping a step that would take
    either below 0."""
    xs, ys = [], []
    for a, b in zip(dx, dy):
        if x + a >= 0 and y + b >= 0:
            x += a
            y += b
        xs.append(x)
        ys.append(y)
    return xs, ys


def _phase_path(s, to_up, to_down):
    """Phases before the first step and after each step, from phase s.

    Step k leads to to_up[k] from Up and to to_down[k] from Down.  A step
    whose two targets agree sets the phase; one that keeps Up and Down keeps
    it, and one that swaps them flips it.  So the phase is the one set last,
    flipped once per swap since (UP = 0, DOWN = 1).
    """
    sets = np.concatenate(([True], to_up == to_down))
    last = np.maximum.accumulate(np.where(sets, np.arange(len(sets)), 0))
    swaps = np.concatenate(([0], np.cumsum((to_up == DOWN) & (to_down == UP))))
    phase = np.concatenate(([s], to_up))[last]
    return (phase ^ ((swaps - swaps[last]) & 1)).astype(np.int8)


def empirical_distribution(trajectory: Trajectory, burn_in: int = 0) -> EmpiricalDistribution:
    """State-occupation frequencies after a burn-in, with a drift diagnostic."""
    if not 0 <= burn_in < trajectory.steps:
        raise InvalidParameters("burn_in must fall inside the trajectory")
    x = trajectory.x[burn_in:]
    s = trajectory.status[burn_in:]
    notes = []
    half = len(x) // 2
    m1, m2 = float(np.mean(x[:half])), float(np.mean(x[half:]))
    if m2 > 2.0 * m1 + 5.0:
        notes.append("first-queue mean keeps growing; the path looks transient")
    coords = (x, s) if trajectory.y is None else (x, trajectory.y[burn_in:], s)
    shape = tuple(int(c.max()) + 1 for c in coords[:-1]) + (2,)   # the visited box
    if math.prod(shape) > _MAX_LAW_CELLS:   # a path on which x and y both grow
        raise ValueError(f"the visited box {shape} has more than {_MAX_LAW_CELLS} cells")
    counts = np.bincount(np.ravel_multi_index(coords, shape), minlength=math.prod(shape))
    return EmpiricalDistribution(pi=(counts / len(x)).reshape(shape), steps_used=len(x),
                                 notes=tuple(notes))


def ld_excursions(trajectory: Trajectory, level_k: int,
                  base_level: int = 2) -> list[Excursion]:
    """Excursions from the last low-level visit up to the first passage of level_k.

    Each excursion runs from the final visit at or below base_level preceding
    a first passage of level_k to the step where level_k is first reached.
    After a passage the search resumes at the first return to base_level or
    below, so every excursion starts at or below base_level.  A passage with
    no earlier visit at or below base_level (the path starts above it) is
    skipped.
    """
    if base_level < 0:
        raise InvalidParameters("base_level must be >= 0")
    if level_k <= base_level:
        raise InvalidParameters("level_k must exceed base_level")
    x = trajectory.x
    status = trajectory.status
    hits = np.flatnonzero(x >= level_k)
    lows = np.flatnonzero(x <= base_level)
    excursions = []
    i = 0
    while True:
        h = np.searchsorted(hits, i)
        if h == len(hits):
            break
        end = int(hits[h])
        low = np.searchsorted(lows, end) - 1
        if low >= 0:   # lows[low] >= i, as i is 0 or a low visit
            start = int(lows[low])
            seg = status[start:end + 1]
            down_fraction = float(np.mean(seg == DOWN))
            slope = (int(x[end]) - int(x[start])) / (end - start)
            peak = int(x[end])
            excursions.append(Excursion(start_step=start, end_step=end, peak=peak,
                                        down_fraction=down_fraction,
                                        slope_estimate=slope))
        back = low + 1
        if back == len(lows):
            break
        i = int(lows[back])
    return excursions


def conditioned_excursion_slope(params: ModelParams, level_k: int,
                                base_level: int = 2) -> ConditionedSlope:
    """Exact expectation of ld_excursions' slope estimates for Model 1.

    An excursion leaves (base, sigma) by a step up and reaches level_k = K
    before returning to base, which it does in T steps.  h, the probability
    of reaching K before base, solves the harmonic equations of the
    `qbd_blocks` on levels base+1..K-1.  The excursion starts in phase sigma
    with weight pi(base, sigma) P((base, sigma) -> (base+1, sigma)) h(base+1, sigma)
    (pi stationary), and then moves by the Doob transform
    Q^_ij = Q_ij h_j / h_i, the chain conditioned on reaching K first.  The
    law of T is iterated under Q^ until P(T > steps) < 1e-13, which gives
    E[(K - base)/T] to within 1e-13; E[T] comes from one linear solve.

    The mean of ratios E[(K - base)/T] exceeds the ratio of means
    (K - base)/E[T] by Jensen's inequality; both fall towards the twisted
    drift twist_summary(params).drift.value as K grows.  Raises
    InvalidParameters off Model 1 and UnstableParameters off stability.
    """
    if base_level < 0:
        raise InvalidParameters("base_level must be >= 0")
    if level_k <= base_level:
        raise InvalidParameters("level_k must exceed base_level")
    if params.model is not Model.MODEL1:
        raise InvalidParameters("the excursion slope needs a Model 1 parameter set")
    if not stability(params).stable:
        raise UnstableParameters("stationary distribution requires stability")
    rise = level_k - base_level
    if rise == 1:   # the step up from base is the whole excursion
        return ConditionedSlope(level_k=level_k, base_level=base_level,
                                mean_slope=1.0, ratio_slope=1.0,
                                success_probability=1.0, h_residual=0.0, steps=1,
                                remaining_mass=0.0, h=np.ones((0, 2)))
    levels = rise - 1
    blocks = qbd_blocks(params)
    lift = exact_stationary_model1(params, k_max=base_level).pi[base_level] * np.diag(blocks.p0)
    # unknowns (x, sigma) -> 2 (x - base - 1) + sigma on the interior levels,
    # block-tridiagonal; moves to K feed `hit`, moves to base are killed
    q = (np.kron(np.eye(levels, k=1), blocks.p0) + np.kron(np.eye(levels), blocks.p1)
         + np.kron(np.eye(levels, k=-1), blocks.p2))
    exit_up = blocks.p0.sum(axis=1)
    hit = np.zeros(2 * levels)
    hit[-2:] = exit_up
    free = np.eye(2 * levels) - q
    h = np.linalg.solve(free, hit)
    if not np.all(np.isfinite(h) & (h > 0.0)):
        raise ArithmeticError(f"reach probabilities underflow below level {level_k}")
    h_residual = float(np.max(np.abs(q @ h + hit - h) / h))
    reach = float(lift @ h[:2])
    success = reach / float(lift.sum())
    # T = 1 + the steps from base+1 to K.  Under Q^ the law at time t - 1 is
    # h * w, where the row vector w starts at lift / reach on level base+1
    # and moves by Q itself: level l of w Q is w[l-1] P0 + w[l] P1 + w[l+1] P2,
    # a window of the zero-padded w times the stacked blocks.  E[T] follows
    # from (I - Q^)^-1 1 = (I - Q)^-1 h / h.
    mean_t = 1.0 + float(lift @ np.linalg.solve(free, h)[:2]) / reach
    padded = np.zeros(2 * levels + 4)
    w = padded[2:-2]
    w[:2] = lift / reach
    windows = sliding_window_view(padded, 6)[::2]
    stacked = np.vstack([blocks.p0, blocks.p1, blocks.p2])
    mean_inv, t, remaining = 0.0, 1, 1.0
    while remaining >= _SLOPE_TOL:
        if t >= _SLOPE_MAX_STEPS:
            raise ConvergenceError(f"conditioned excursion law keeps mass "
                                   f"{remaining:.3g} beyond {t} steps")
        t += 1
        mean_inv += float(w[-2:] @ exit_up) / t
        w[:] = (windows @ stacked).ravel()
        remaining = float(h @ w)
    return ConditionedSlope(level_k=level_k, base_level=base_level,
                            mean_slope=rise * mean_inv, ratio_slope=rise / mean_t,
                            success_probability=success, h_residual=h_residual,
                            steps=t, remaining_mass=remaining,
                            h=h.reshape(levels, 2))


def regime_prediction(params: ModelParams) -> str:
    """Predicted phase occupancy of rare upward excursions.

    The twisted path climbs mostly Up when mu*p < lambda + beta and mostly
    Down otherwise; the split point is rejected.
    """
    split = params.mu * params.p - (params.lam + params.beta)
    if split == 0.0:
        raise InvalidParameters("degenerate regime boundary: mu*p = lambda+beta")
    return "UpDominated" if split < 0.0 else "DownDominated"


def excursion_verdict(excursions: list[Excursion]) -> str:
    """Majority vote over the excursions' phase occupancy."""
    if not excursions:
        raise ValueError("no excursions reached the target level")
    down = sum(1 for e in excursions if e.down_fraction > 0.5)
    return "DownDominated" if 2 * down > len(excursions) else "UpDominated"
