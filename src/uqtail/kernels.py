"""One-step transition rows of the uniformized embedded chains.

Three chains are covered: the full chains (with their boundary at x = 0),
the free processes (boundary removed, shift invariant in x), and the
rerouting comparison network used as a product-form reference.  Each
chain's dynamics are one table of interior moves (`_moves`), and every row
is folded from it by one rule (`_fold`) into steps sorted by step, which
`_row` turns into targets and the layouts read as they are.  Rows are
sparse per-state distributions, so the infinite state space never needs
truncation here.  `level_blocks` lays class rows out in level form, the
(up, local, down) blocks that the QBD solvers and the tilted kernel read.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

import numpy as np

from .params import DOWN, UP, InvalidParameters, Model, ModelParams, _require, check_state

_ROW_TOL = 1e-12


@dataclass(frozen=True)
class TransitionRow:
    origin: tuple
    targets: tuple[tuple[tuple, float], ...]

    def as_dict(self) -> dict:
        return dict(self.targets)

    def prob(self, state: tuple) -> float:
        return self.as_dict().get(state, 0.0)

    def total(self) -> float:
        return sum(p for _, p in self.targets)


def _moves(params: ModelParams) -> tuple:
    """Interior moves of each phase, indexed by sigma: (step over (x, [y,]
    sigma), probability, the coordinate the move lowers or None), in the order
    the self-loop sums them.  A move of probability 0 in every set (the
    tandem's feedback at p = 1) is left out.

    RS-RD's Up row is the tandem's.  While Down, a server-2 completion cannot
    enter server 1: the customer is rerouted by server 1's routing row, so it
    leaves the network with probability p (the y-1 move keeps x fixed) and
    rejoins server 2 otherwise (a self-loop).  This is the unique reading
    under which the product-form stationary law of the reference network
    satisfies global balance.
    """
    lam, mu, alpha, beta, p, C = (params.lam, params.mu, params.alpha,
                                  params.beta, params.p, params.C)
    if params.model is Model.MODEL1:
        table = ((((1, 0), lam / C, None), ((-1, 0), mu / C, 0), ((0, 1), alpha / C, None)),
                 (((1, 0), lam / C, None), ((0, -1), beta / C, None)))
    else:
        up = (((0, 1, 0), lam / C, None), ((1, -1, 0), mu / C, 1), ((-1, 0, 0), mu * p / C, 0),
              ((-1, 1, 0), mu * (1.0 - p) / C, 0), ((0, 0, 1), alpha / C, None))
        rsrd = params.model is Model.RSRD
        down = ((((0, 0, -1), beta / C, None), ((0, -1, 0), mu * p / C, 1)) if rsrd else
                (((1, -1, 0), mu / C, 1), ((0, 0, -1), beta / C, None)))
        table = up, (((0, 1, 0), lam / C, None), *down)
    probs = np.array([move[1] for row in table for move in row])   # one comparison for all
    kept = iter((probs != 0.0).reshape(len(probs), -1).any(axis=1).tolist())
    return tuple(tuple(move for move in row if next(kept)) for row in table)


def _origins(model: Model, x0: int) -> tuple:
    """Class origins (x0, [y0,] sigma) at one x0, y0 and sigma in 0..1, in
    lexicographic order."""
    if model is Model.MODEL1:
        return (x0, UP), (x0, DOWN)
    return tuple((x0, y0, sigma) for y0 in (0, 1) for sigma in (UP, DOWN))


def _fold(moves: tuple, origin: tuple, h=None) -> list:
    """Row at the class origin `origin` as (step, probability) pairs sorted
    by step, folded from the interior moves: a move that lowers a coordinate
    already at 0 is dropped, and the self-loop, at the zero step, is 1 minus
    the kept moves summed in table order.  Sorting the steps sorts the
    targets origin + step.  With a harmonic function h, each probability is
    multiplied by h(origin + step) / h(origin)."""
    kept = []
    used = 0.0
    for step, prob, low in moves[origin[-1]]:
        if low is not None and origin[low] == 0:
            continue
        kept.append((step, prob))
        used += prob
    diag = 1.0 - used
    _require([(diag >= -_ROW_TOL, "row at {} has negative diagonal {}{where}; C too small",
               origin, diag)])
    kept.append(((0,) * len(origin), np.maximum(diag, 0.0)))
    kept.sort()
    if h is None:
        return kept
    return [(step, prob * h.ratio(origin, tuple(map(add, origin, step)))) for step, prob in kept]


def _row(moves: tuple, state: tuple, free: bool = False) -> TransitionRow:
    """Row at `state`: the `_fold` steps of its class row, at (min(x, 1),
    [min(y, 1),] sigma) and at x0 = 1 on the free chain, added to `state`."""
    x0 = 1 if free else min(state[0], 1)
    origin = (x0, state[1]) if len(state) == 2 else (x0, min(state[1], 1), state[2])
    return TransitionRow(state, tuple([(tuple(map(add, state, step)), prob)
                                       for step, prob in _fold(moves, origin)]))


def free_kernel(params: ModelParams, state: tuple) -> TransitionRow:
    """Row of the boundary-free, x-shift-invariant chain."""
    check_state(state, params.model, free=True)
    if params.model is Model.RSRD:
        raise InvalidParameters("free process is defined for Model 1 and Model 2 only")
    return _row(_moves(params), state, free=True)


def full_kernel(params: ModelParams, state: tuple) -> TransitionRow:
    """Row of the full chain; moves leaving the state space fold into the diagonal."""
    check_state(state, params.model)
    return _row(_moves(params), state)


def level_blocks(params: ModelParams, y_cut: int = 0, x0: int = 1,
                 h=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(up, local, down) blocks, with x as the level, of the class rows at x0
    (0 or 1), reweighted by h when given (the twisted rows); a stack's
    blocks have shape (..., n, n), its sets leading.

    Phases are sigma, or (y, sigma) -> 2y + sigma for y <= y_cut: a row at
    y0 = 1 stands for every y in 1..y_cut, and a move past y_cut stays at
    y_cut.  At x0 = 0 the local block is that of level 0.
    """
    n = 2 * (y_cut + 1)
    sets = (slice(None),) * np.ndim(params.lam)   # a stack's axes; `...` would be slower
    blocks = np.zeros((3, *np.shape(params.lam), n, n))
    ys = np.arange(1, y_cut + 1)
    moves = _moves(params)
    for origin in _origins(params.model, x0):
        sigma = origin[-1]
        y0 = origin[1] if len(origin) == 3 else 0
        for step, prob in _fold(moves, origin, h=h):
            k, to = 1 - step[0], sigma + step[-1]
            dy = step[1] if len(step) == 3 else 0
            if y0:   # one numpy update for all y, whose axis leads a stack's: prob broadcasts
                blocks[(k, *sets, 2 * ys + sigma, 2 * np.minimum(ys + dy, y_cut) + to)] += prob
            else:    # scalar indexing; numpy's per-call cost would dominate 2x2 blocks
                blocks[(k, *sets, sigma, 2 * min(dy, y_cut) + to)] += prob
    return blocks[0], blocks[1], blocks[2]
