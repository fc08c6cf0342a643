"""Embedded-chain simulation, empirical occupation laws, extraction of rare
upward excursions with their phase occupancy, and the exact law of those
excursions' slopes at a finite target level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .params import (DOWN, UP, InvalidParameters, Model, ModelParams,
                     check_state)
from .kernels import row_classes
from .qbd import ConvergenceError, exact_stationary_model1, qbd_blocks

_BLOCK = 1 << 16
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
        out += [f"# {key}={value}\n" for key, value in self.params.to_dict().items()]
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


@dataclass(frozen=True)
class EmpiricalDistribution:
    entries: dict
    steps_used: int
    notes: tuple[str, ...] = field(default_factory=tuple)

    def prob(self, state: tuple) -> float:
        return self.entries.get(state, 0.0)

    def total_variation(self, other) -> float:
        keys = set(self.entries) | set(getattr(other, "entries", {}))
        return 0.5 * sum(abs(self.prob(k) - other.prob(k)) for k in keys)


def _move_table(params: ModelParams):
    """Rows keyed by (min(x,1), [min(y,1),] sigma); moves as state deltas."""
    table = {}
    for origin, row in row_classes(params).items():
        moves = tuple((*(t - o for t, o in zip(target[:-1], origin)), target[-1])
                      for target, _ in row.targets)
        cum = np.cumsum([prob for _, prob in row.targets])
        cum[-1] = 1.0
        table[origin] = (tuple(cum), moves)
    return table


def simulate(params: ModelParams, steps: int, seed: int = 0,
             start: tuple | None = None) -> Trajectory:
    """Sample a path of the embedded chain, recording every state."""
    if steps < 1:
        raise InvalidParameters("steps must be positive")
    if start is None:
        start = (0, UP) if params.model is Model.MODEL1 else (0, 0, UP)
    check_state(start, params.model)
    table = _move_table(params)
    rng = np.random.default_rng(seed)
    xs = np.empty(steps + 1, dtype=np.int32)
    ss = np.empty(steps + 1, dtype=np.int8)
    if params.model is Model.MODEL1:
        rows = _model1_rows(table)
        xs[0], ss[0] = start
        i = 1
        while i <= steps:
            block = rng.random(min(_BLOCK, steps + 1 - i))
            xs[i:i + len(block)], ss[i:i + len(block)] = _model1_path(
                rows, block, int(xs[i - 1]), int(ss[i - 1]))
            i += len(block)
        return Trajectory(params=params, seed=seed, x=xs, status=ss)
    ys = np.empty(steps + 1, dtype=np.int32)
    x, y, s = start
    xs[0], ys[0], ss[0] = x, y, s
    i = 1
    while i <= steps:
        block = rng.random(min(_BLOCK, steps + 1 - i))
        for u in block:
            cum, moves = table[(1 if x else 0, 1 if y else 0, s)]
            j = 0
            while u >= cum[j]:
                j += 1
            dx, dy, s = moves[j]
            x += dx
            y += dy
            xs[i], ys[i], ss[i] = x, y, s
            i += 1
    return Trajectory(params=params, seed=seed, x=xs, status=ss, y=ys)


def _model1_rows(table):
    """Model 1 rows of _move_table as arrays: thresholds, x deltas, phases."""
    return {key: (np.maximum.accumulate(cum), np.array([m[0] for m in moves]),
                  np.array([m[1] for m in moves], dtype=np.int8))
            for key, (cum, moves) in table.items()}


def _model1_move(row, u):
    """x deltas and phases that the row's per-step rule gives the uniforms u.

    The rule takes the first move j with u < cum[j]; cum was made
    non-decreasing by a running maximum, which leaves that j unchanged, so
    np.searchsorted finds it.
    """
    cum, dx, phase = row
    j = np.searchsorted(cum, u, side="right")
    return dx[j], phase[j]


def _model1_path(rows, u, x, s):
    """Model 1 states after each uniform of u, from (x, s), as the per-step
    rule of the (min(x, 1), sigma) rows of _move_table gives them.

    Every uniform is classified under the (1, sigma) rows.  The phase chain
    does not see x there, so the phases come first; x then follows the
    Lindley recursion x_k = max(x_{k-1} + dx_k, 0).  At x = 0 that turns an
    Up service into row (0, Up)'s self-loop, whose interval is the union of
    row (1, Up)'s service and self-loop intervals.  The sums behind a
    threshold differ between the two rows, so the same threshold can sit an
    ulp apart (0.67524115755627 vs 0.6752411575562702 on A).  Each step
    taken from x = 0 is therefore checked against the (0, sigma) row; at the
    first that disagrees the path takes that row's move and is recomputed
    from there.
    """
    xs = np.empty(len(u), dtype=np.int32)
    ss = np.empty(len(u), dtype=np.int8)
    done = 0
    while done < len(u):
        v = u[done:]
        dx_up, to_up = _model1_move(rows[1, UP], v)
        dx_down, to_down = _model1_move(rows[1, DOWN], v)
        phase = _phase_path(s, to_up, to_down)
        before = phase[:-1]
        level = x + np.cumsum(np.where(before == UP, dx_up, dx_down))
        level -= np.minimum(np.minimum.accumulate(level), 0)
        zero = np.flatnonzero(np.concatenate(([x], level[:-1])) == 0)
        up = before[zero] == UP
        dx0_up, to0_up = _model1_move(rows[0, UP], v[zero])
        dx0_down, to0_down = _model1_move(rows[0, DOWN], v[zero])
        differ = ((np.where(up, dx0_up, dx0_down) != level[zero])
                  | (np.where(up, to0_up, to0_down) != phase[1:][zero]))
        k = int(zero[differ][0]) if differ.any() else len(v)
        xs[done:done + k], ss[done:done + k] = level[:k], phase[1:k + 1]
        if k == len(v):
            break
        dx, to = _model1_move(rows[0, int(before[k])], v[k])
        x, s = int(dx), int(to)
        xs[done + k], ss[done + k] = x, s
        done += k + 1
    return xs, ss


def _phase_path(s, to_up, to_down):
    """Model 1 phases before the first step and after each step, from phase s.

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
    if trajectory.y is None:
        code = x.astype(np.int64) * 2 + s
        values, counts = np.unique(code, return_counts=True)
        entries = {(int(v // 2), int(v % 2)): c / len(x)
                   for v, c in zip(values, counts)}
    else:
        y = trajectory.y[burn_in:]
        span = int(y.max()) + 1
        code = (x.astype(np.int64) * span + y) * 2 + s
        entries = {}
        values, counts = np.unique(code, return_counts=True)
        for v, c in zip(values, counts):
            entries[(int(v // (2 * span)), int((v // 2) % span), int(v % 2))] = c / len(x)
    return EmpiricalDistribution(entries=entries, steps_used=len(x), notes=tuple(notes))


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
    drift horizontal_drift(params).value as K grows.  Raises
    InvalidParameters off Model 1, from `qbd_blocks`.
    """
    if base_level < 0:
        raise InvalidParameters("base_level must be >= 0")
    if level_k <= base_level:
        raise InvalidParameters("level_k must exceed base_level")
    rise = level_k - base_level
    n = 2 * (rise - 1)
    blocks = qbd_blocks(params)
    pi_base = exact_stationary_model1(params, k_max=base_level)
    lift = np.array([pi_base.prob((base_level, s)) for s in (UP, DOWN)]) * np.diag(blocks.p0)
    if n == 0:
        return ConditionedSlope(level_k=level_k, base_level=base_level,
                                mean_slope=1.0, ratio_slope=1.0,
                                success_probability=1.0, h_residual=0.0, steps=1,
                                remaining_mass=0.0, h=np.ones((0, 2)))
    # unknowns (x, sigma) -> 2 (x - base - 1) + sigma on the interior levels,
    # block-tridiagonal; moves to K feed `hit`, moves to base are killed
    q = (sp.kron(sp.eye(rise - 1, k=1), blocks.p0) + sp.kron(sp.eye(rise - 1), blocks.p1)
         + sp.kron(sp.eye(rise - 1, k=-1), blocks.p2)).tocsr()
    hit = np.zeros(n)
    hit[-2:] = blocks.p0.sum(axis=1)
    eye = sp.identity(n, format="csc")
    h = spla.spsolve((eye - q).tocsc(), hit)
    if not np.all(np.isfinite(h) & (h > 0.0)):
        raise ArithmeticError(f"reach probabilities underflow below level {level_k}")
    h_residual = float(np.max(np.abs(q @ h + hit - h) / h))
    q_hat = (sp.diags(1.0 / h) @ q @ sp.diags(h)).tocsr()
    hit_hat = hit / h
    start = np.zeros(n)
    start[:2] = lift * h[:2]
    success = float(start.sum() / lift.sum())
    start /= start.sum()
    # T = 1 + the steps from base+1 to K; `mass` is the law at time t - 1
    step_t = q_hat.T.tocsr()
    mass = start
    mean_inv = 0.0
    t = 1
    remaining = 1.0
    while remaining >= _SLOPE_TOL:
        if t >= _SLOPE_MAX_STEPS:
            raise ConvergenceError(f"conditioned excursion law keeps mass "
                                   f"{remaining:.3g} beyond {t} steps")
        t += 1
        mean_inv += float(mass @ hit_hat) / t
        mass = step_t @ mass
        remaining = float(mass.sum())
    mean_t = 1.0 + float(start @ spla.spsolve((eye - q_hat).tocsc(), np.ones(n)))
    return ConditionedSlope(level_k=level_k, base_level=base_level,
                            mean_slope=rise * mean_inv, ratio_slope=rise / mean_t,
                            success_probability=success, h_residual=h_residual,
                            steps=t, remaining_mass=remaining,
                            h=h.reshape(rise - 1, 2))


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
