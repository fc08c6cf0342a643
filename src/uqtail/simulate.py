"""Embedded-chain simulation, empirical occupation laws, extraction of rare
upward excursions with their phase occupancy, and the exact law of those
excursions' slopes at a finite target level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .params import DOWN, UP, InvalidParameters, Model, ModelParams, check_state
from .kernels import _fold, _moves, level_blocks
from .qbd import ConvergenceError, LatticeLaw, _model1_levels
from .spectral import _require_stable, characteristic_roots

_RNG_IDENTITY = "numpy.random.Generator(PCG64)"
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

    def to_csv(self, file=None) -> str | None:
        """The path as CSV: the header, then "step,x[,y],status" lines.

        Given a binary file, writes the text to it one block of lines at a
        time, so it is never held whole, and returns None; given none,
        returns it as a str.
        """
        chunks = self._csv_chunks()
        if file is None:
            return b"".join(chunks).decode()
        for chunk in chunks:
            file.write(chunk)
        return None

    def _csv_chunks(self):
        if self.y is None:
            head, columns = "step,x,status\n", (self.x, self.status)
        else:
            head, columns = "step,x,y,status\n", (self.x, self.y, self.status)
        yield (_csv_header(self.params, seed=self.seed) + head).encode()
        # a chunk ends at each _BLOCK and where the step gains a digit, so that its
        # steps have one width, written by `_csv_lines` as periodic digits; below
        # 10**4 the extra chunks would cost more than they save
        n = len(self.x)
        ends = sorted({*range(_BLOCK, n, _BLOCK), *(10 ** j for j in range(4, len(str(n - 1)))),
                       n} - {0})   # an empty path writes the header alone
        for first, end in zip([0, *ends], ends):
            yield _csv_lines([column[first:end] for column in columns], first)


def _csv_header(params: ModelParams, seed: int | None = None, **extra) -> str:
    """The "# key=value" lines that open every CSV output: version, RNG,
    parameters, then the seed and `extra`, floats with 17 significant digits."""
    from . import __version__   # the package sets it after importing this module
    items = [("version", __version__), ("rng", _RNG_IDENTITY), *params.to_dict().items()]
    if seed is not None:
        items.append(("seed", seed))
    items += extra.items()
    return "".join(f"# {key}={value:.17g}\n" if isinstance(value, float) else f"# {key}={value}\n"
                   for key, value in items)


def _csv_lines(columns: list[np.ndarray], first: int | None = None) -> np.ndarray:
    """Lines "a,b,...\\n" of non-negative integer columns, as f-strings print
    them, each after its step first, first + 1, ... when `first` is given:
    the uint8 array of their ASCII bytes.

    The lines are laid out with no padding (`_text`), each column at its
    narrowest width, that of its least value; steps of more than one width
    are one more column.  The few off lines, where a value needs more
    digits, are formatted apart at their own widths, with padding, and moved
    into place in the same buffer, so the block is copied once.  Where they
    form dense runs, more than one per 64 lines, or fill over a seventh of the
    block, where padding turns faster, the whole block takes the padded layout.
    """
    n = len(columns[0])
    if first is not None and len(str(first)) < len(str(first + n - 1)):
        columns, first = [np.arange(first, first + n), *columns], None   # steps of two widths
    lows = [int(column.min()) for column in columns]
    if min(lows) < 0:
        raise ValueError("trajectory columns must be non-negative")
    tops = [int(column.max()) for column in columns]
    narrow = [len(str(low)) for low in lows]
    masks = [column >= 10 ** width for column, width, top in zip(columns, narrow, tops)
             if top >= 10 ** width]
    if not masks:
        return _text(columns, narrow, lows, first)
    off = masks[0]
    for mask in masks[1:]:
        off |= mask
    off = np.flatnonzero(off)
    breaks = np.flatnonzero(np.diff(off) != 1)   # the last line of each run but the last
    if 64 * (len(breaks) + 1) > n or 7 * len(off) > n:
        return _text(columns, [len(str(top)) for top in tops], lows, first)
    part = [column[off] for column in columns]
    if first is not None:
        part.insert(0, off + first)
    apart = _text(part, [len(str(int(column.max()))) for column in part],
                  [int(column.min()) for column in part])
    stops = np.flatnonzero(apart == ord("\n")) + 1   # each off line's end in apart
    firsts, lasts = np.append(0, breaks + 1), np.append(breaks, len(off) - 1)   # in off
    runs = zip(off[firsts].tolist(), off[lasts].tolist(),
               np.append(0, stops[:-1])[firsts].tolist(), stops[lasts].tolist())
    # the narrow lines, wrong on the off lines alone, with room after them for the
    # bytes that the off lines gain; from the last run of off lines to the first,
    # the narrow lines after the run move right by what the runs up to it gain,
    # and the run's lines from apart go in just before them
    text = _text(columns, narrow, lows, first, room=len(apart))
    size = (len(text) - len(apart)) // n   # bytes per narrow line
    end = at = len(text) - len(off) * size
    lines, apart, after = memoryview(text), memoryview(apart), n
    for head, tail, start, stop in reversed(list(runs)):
        moved = (after - tail - 1) * size
        lines[at - moved:at] = lines[(tail + 1) * size:after * size]   # a memmove
        at -= moved + stop - start
        lines[at:at + stop - start] = apart[start:stop]
        after = head
    return text[:end]


def _text(columns: list[np.ndarray], widths: list[int], lows: list[int],
          first: int | None = None, room: int = 0) -> np.ndarray:
    """The lines of `_csv_lines` with each column written at `widths`, the
    digits of values below 10 ** (width - 1) right-aligned and padding
    dropped, as a uint8 array; where no line has padding, `room` unset
    bytes follow the lines.

    Each field's digits are made one uint8 row per byte position, then
    copied one row to one byte column of the line-major text, with byte 0
    as padding; its "," or "\\n" is filled in that way too.  Copying rows to
    columns costs 40-70% of a strided transpose, which walks each line's few
    bytes in its inner loop.  `bytes.translate` drops the padding,
    faster than a boolean mask; where no column's least value is narrower
    than its width, none is made.  A value too wide for its width leaves
    garbage digits on its line.
    """
    n = len(columns[0])
    fields = [] if first is None else [(None, first, len(str(first + n - 1)))]
    fields += zip(columns, lows, widths)
    size = sum(width + 1 for *_, width in fields)
    text = np.empty(n * size + room, dtype=np.uint8)   # the lines, then `room` bytes unset
    lines = text[:n * size].reshape(n, size)
    rows = np.empty((max(width for *_, width in fields), n), dtype=np.uint8)
    end = 0
    for column, low, width in fields:
        if column is None:   # the steps, low and on
            _step_digits(rows[:width], low)
        else:
            _digits(rows[:width], column, low)
        for k in range(width):
            lines[:, end + k] = rows[k]
        end += width + 1
        lines[:, end - 1] = ord(",")
    lines[:, -1] = ord("\n")
    if any(len(str(low)) < width for low, width in zip(lows, widths)):
        return np.frombuffer(lines.tobytes().translate(None, b"\0"), dtype=np.uint8)
    return text


def _digits(rows: np.ndarray, column: np.ndarray, low: int) -> None:
    """The decimal digits of a non-negative integer column, right-aligned in
    `rows`, one uint8 row per byte position, with byte 0 before a value
    shorter than len(rows); low is the column's least value.

    Each digit is rest - 10 * (rest // 10), one `//` and one subtraction in
    the narrowest unsigned dtype that holds the width: numpy divides by a
    scalar on a fast path, but has none for the remainder.  A one-digit
    column is a single add of 48.
    """
    width = len(rows)
    if width == 1:
        np.add(column, 48, out=rows[0], casting="unsafe")
        return
    rest = column.astype(np.min_scalar_type(10 ** width - 1))
    quot = np.empty_like(rest)   # two buffers in turn: a new array costs page faults
    for k in range(width):   # rest = column // 10**k
        row = rows[width - 1 - k]
        np.floor_divide(rest, 10, out=quot)
        np.subtract(rest, quot * 10, out=row, casting="unsafe")
        row += 48
        if k and low < 10 ** k:   # some values have at most k digits
            row *= rest > 0
        rest, quot = quot, rest


def _step_digits(rows: np.ndarray, first: int) -> None:
    """The digits of first, first + 1, ..., all len(rows) digits long, as
    `_digits` lays them out.

    The k-th digit from the right repeats with period 10 ** (k + 1): its row
    is one period, rolled to start at `first`, copied over the block, or,
    where the period is longer than the block, a few constant runs.
    """
    n = rows.shape[1]
    for k, row in enumerate(rows[::-1]):   # the digit (first + i) // 10**k % 10 of line i
        unit = 10 ** k
        if 10 * unit <= n:
            period = np.repeat(np.arange(48, 58, dtype=np.uint8), unit)
            start = first % len(period)
            # tiled to 1,000 bytes at least: a short inner loop costs more than the copy
            period = np.tile(np.concatenate((period[start:], period[:start])), -(-100 // unit))
            whole = n - n % len(period)
            row[:whole].reshape(-1, len(period))[:] = period
            row[whole:] = period[:n - whole]
        else:
            cuts = [first, *range((first // unit + 1) * unit, first + n, unit), first + n]
            for a, b in zip(cuts, cuts[1:]):
                row[a - first:b - first] = 48 + a // unit % 10


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
    notes: tuple[str, ...] = field(default_factory=tuple)


def _phase_rows(params: ModelParams):
    """Both phases' interior class rows (origin (1, [1,] sigma)) merged into
    one interval table (cuts, to_up, to_down, moves).

    u falls in interval k, the number of cuts (both rows' thresholds cum[j]
    but the last, sorted) at or below it, where each row's first j with
    u < cum[j] is constant: from phase sigma it leads to to_up[k] (Up) or
    to_down[k] (Down) and moves the coordinates by moves[:, 2k + sigma].  A
    blocked move keeps the phase, so a row with a move that changes a
    coordinate and the phase, or a coordinate by more than one, raises.
    """
    table = _moves(params)
    interior = (1,) if params.model is Model.MODEL1 else (1, 1)
    rows = []
    for sigma in (UP, DOWN):
        origin = (*interior, sigma)
        steps = _fold(table, origin)
        moves = np.array([(*step[:-1], sigma + step[-1]) for step, _ in steps], dtype=np.int8)
        delta = moves[:, :-1]
        if np.any(np.abs(delta) > 1) or np.any(delta.any(axis=1) & (moves[:, -1] != sigma)):
            raise ValueError(f"row at {origin} has a move that blocking would distort")
        rows.append((np.cumsum([prob for _, prob in steps])[:-1], moves))
    cuts = np.array(sorted({c for cum, _ in rows for c in cum}))   # np.unique loads numpy.ma
    left = np.concatenate(([0.0], cuts))   # each interval's left end
    up, down = (moves[np.searchsorted(cum, left, side="right")] for cum, moves in rows)
    moves = np.stack([up[:, :-1], down[:, :-1]], axis=1).reshape(2 * len(left), -1)
    return cuts, up[:, -1], down[:, -1], np.ascontiguousarray(moves.T)


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
    table = _phase_rows(params)
    rng = np.random.default_rng(seed)
    # x[, y] as int32, then the phase as int8
    columns = [np.empty(steps + 1, dtype=np.int32) for _ in start[:-1]]
    columns.append(np.empty(steps + 1, dtype=np.int8))
    for column, value in zip(columns, start):
        column[0] = value
    state, i = start, 0
    while i < steps:
        block = rng.random(min(_BLOCK, steps - i))
        for column, path in zip(columns, _block_path(table, block, state)):
            column[i + 1:i + 1 + len(block)] = path
        i += len(block)
        state = tuple(int(column[i]) for column in columns)
    y = columns[1] if len(columns) == 3 else None
    return Trajectory(params=params, seed=seed, x=columns[0], status=columns[-1], y=y)


def _block_path(table, u, start):
    """Coordinates and phase after each uniform of u, from state start.

    Each step reads the move of its current phase alone (`_block_moves`).
    When every move that lowers x leaves y unchanged, x never blocks y.  y
    then follows the Lindley recursion y_k = max(y_{k-1} + dy_k, 0), which
    is the blocking rule for unit steps, and x follows it too once the moves
    that y blocked are removed.  Otherwise (the feedback move (x - 1, y + 1))
    a per-step loop applies the rule.
    """
    moves = table[-1]
    delta, phase = _block_moves(table, u, start[-1])
    status = phase[1:].view(np.int8)
    if len(delta) == 1:
        return _lindley(start[0], delta[0]), status
    if np.any((moves[0] < 0) & (moves[1] != 0)):
        return (*_blocked_walk(*start[:2], delta[0].tolist(), delta[1].tolist()), status)
    y = _lindley(start[1], delta[1])
    dx = np.where(np.concatenate(([start[1]], y[:-1])) + delta[1] < 0, 0, delta[0])
    return _lindley(start[0], dx), y, status


def _block_moves(table, u, s):
    """Each uniform's coordinate move, and the phases (bool, DOWN = True)
    before the first step and after each step, from phase s.

    One pass per cut of the `_phase_rows` table gives each uniform's
    interval.  Blocked moves keep the phase, so the phase chain sees no
    coordinate, and it changes only at an event: a step whose interval does
    not lead Up to Up and Down to Down.  Whether an interval leads a phase
    Down changes at a few cuts, so the xor of the comparisons at those cuts
    gives it at each uniform, for less than reading it by interval (`take`
    turns uint8 indices into intp first).  `_phase_path` scans the events
    alone for the phase after each.  Where the phase after an event
    differs from the one before it, a zeroed column gets a flip, and its
    running xor is the path's phases.  The temporaries die on return, before
    the coordinates are walked: a larger heap top costs page faults.
    """
    cuts, to_up, to_down, moves = table
    k = np.zeros(len(u), dtype=np.uint8)
    leads = np.stack([to_up, to_down]) == DOWN   # by interval, from Up and from Down
    targets = np.repeat(leads[:, :1], len(u), axis=1)
    for cut, toggles in zip(cuts, (leads[:, 1:] != leads[:, :-1]).T):
        above = u >= cut
        k += above
        for row in np.flatnonzero(toggles):
            targets[row] ^= above
    events = np.flatnonzero(targets[0] >= targets[1])   # not Up to Up and Down to Down
    after = _phase_path(s, *targets.take(events, axis=1).view(np.int8))
    phase = np.zeros(len(u) + 1, dtype=bool)
    phase[0] = after[0]
    phase[1:][events] = after[1:] != after[:-1]
    np.logical_xor.accumulate(phase, out=phase)   # in place: a new array costs page faults
    return moves.take(2 * k + phase[:-1], axis=1), phase


def _lindley(x, dx):
    """x_k = max(x_{k-1} + dx_k, 0) from x_0 = x >= 0, for every k >= 1."""
    level = np.cumsum(dx, dtype=np.int32)   # int32 like the x and y columns
    level += x
    low = np.minimum.accumulate(level)
    np.minimum(low, 0, out=low)
    level -= low
    return level


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
    it, and one that swaps them (to_up > to_down) flips it.  So after a step
    that sets, the phase is its target, and after a step in a run of steps
    that do not, it is the phase before the run xor the parity of the run's
    swaps so far (UP = 0, DOWN = 1).  Past one comparison and one
    `flatnonzero`, the work is on those runs alone: the events that
    `_block_moves` passes all set the phase, but in a swap interval, which
    only a C below the rate sum leaves (validate admits 1e-14 below it).
    """
    phase = np.concatenate(([s], to_up), dtype=np.int8)   # right after each step that sets
    free = np.flatnonzero(to_up != to_down)   # keeps and swaps
    swaps = to_up.take(free).view(np.uint8)   # a free step leads Up to Down where it swaps
    parity = np.bitwise_xor.accumulate(swaps)
    first = np.maximum.accumulate(np.where(np.diff(free, prepend=-2) != 1,
                                           np.arange(len(free)), 0))   # of each one's run
    phase[free + 1] = phase[free.take(first)] ^ parity ^ (parity ^ swaps).take(first)
    return phase


def _check_burn_in(burn_in: int, steps: int) -> None:
    if not 0 <= burn_in < steps:
        raise InvalidParameters("burn_in must fall inside the trajectory")


def _check_levels(level_k: int, base_level: int) -> None:
    if base_level < 0:
        raise InvalidParameters("base_level must be >= 0")
    if level_k <= base_level:
        raise InvalidParameters("level_k must exceed base_level")


def empirical_distribution(trajectory: Trajectory, burn_in: int = 0) -> EmpiricalDistribution:
    """State-occupation frequencies after a burn-in, with a drift diagnostic."""
    _check_burn_in(burn_in, trajectory.steps)
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
    if min(int(c.min()) for c in coords) < 0 or int(s.max()) > DOWN:
        raise ValueError("trajectory coordinates must be non-negative, with status UP or DOWN")
    counts = np.zeros(math.prod(shape), np.intp)   # counted one _BLOCK of steps at a time
    for first in range(0, len(x), _BLOCK):
        index = x[first:first + _BLOCK].astype(np.intp)   # C order: (x n_y + y) 2 + status
        for c, n in zip(coords[1:], shape[1:]):
            index *= n
            index += c[first:first + _BLOCK]
        counts += np.bincount(index, minlength=counts.size)
    return EmpiricalDistribution(pi=(counts / len(x)).reshape(shape), notes=tuple(notes))


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
    _check_levels(level_k, base_level)
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
            down_fraction = np.count_nonzero(seg) / len(seg)   # UP = 0, DOWN = 1
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
    interior blocks (`level_blocks` at x0 = 1) on levels
    base+1..K-1.  The excursion starts in phase sigma
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
    _check_levels(level_k, base_level)
    if params.model is not Model.MODEL1:
        raise InvalidParameters("the excursion slope needs a Model 1 parameter set")
    _require_stable(params, "the excursion slope")
    rise = level_k - base_level
    if rise == 1:   # the step up from base is the whole excursion
        return ConditionedSlope(level_k=level_k, base_level=base_level,
                                mean_slope=1.0, ratio_slope=1.0,
                                success_probability=1.0, h_residual=0.0, steps=1,
                                remaining_mass=0.0, h=np.ones((0, 2)))
    levels = rise - 1
    a0, a1, a2 = level_blocks(params)
    lift = _model1_levels(characteristic_roots(params), base_level)[0][base_level] * np.diag(a0)
    # unknowns (x, sigma) -> 2 (x - base - 1) + sigma on the interior levels,
    # block-tridiagonal; moves to K feed `hit`, moves to base are killed
    q = (np.kron(np.eye(levels, k=1), a0) + np.kron(np.eye(levels), a1)
         + np.kron(np.eye(levels, k=-1), a2))
    exit_up = a0.sum(axis=1)
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
    # and moves by Q itself: level l of w Q is w[l-1] A0 + w[l] A1 + w[l+1] A2,
    # a window of the zero-padded w times the stacked blocks.  E[T] follows
    # from (I - Q^)^-1 1 = (I - Q)^-1 h / h.
    mean_t = 1.0 + float(lift @ np.linalg.solve(free, h)[:2]) / reach
    padded = np.zeros(2 * levels + 4)
    w = padded[2:-2]
    w[:2] = lift / reach
    windows = sliding_window_view(padded, 6)[::2]
    stacked = np.vstack([a0, a1, a2])
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
