"""One-step transition rows of the uniformized embedded chains.

Three chains are covered: the full chains (with their boundary at x = 0),
the free processes (boundary removed, shift invariant in x), and the
rerouting comparison network used as a product-form reference.  Each
chain's dynamics are one table of interior moves (`_moves`), and every row
is folded from it by one rule (`_row`).  Rows are sparse per-state
distributions, so the infinite state space never needs truncation here.
`level_blocks` lays class rows out in level form, the (up, local, down)
blocks that the QBD solvers and the tilted kernel read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add

import numpy as np

from .params import DOWN, UP, InvalidParameters, Model, ModelParams, check_state

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

    def mean_x_increment(self) -> float:
        x0 = self.origin[0]
        return sum(p * (s[0] - x0) for s, p in self.targets)


def _moves(params: ModelParams) -> tuple:
    """Interior moves of each phase, indexed by sigma: (step over (x, [y,]
    sigma), probability, the coordinate the move lowers or None), in the order
    the self-loop sums them.

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
        return ((((1, 0), lam / C, None), ((-1, 0), mu / C, 0), ((0, 1), alpha / C, None)),
                (((1, 0), lam / C, None), ((0, -1), beta / C, None)))
    up = (((0, 1, 0), lam / C, None), ((1, -1, 0), mu / C, 1), ((-1, 0, 0), mu * p / C, 0),
          ((-1, 1, 0), mu * (1.0 - p) / C, 0), ((0, 0, 1), alpha / C, None))
    if params.model is Model.RSRD:
        return up, (((0, 1, 0), lam / C, None), ((0, 0, -1), beta / C, None),
                    ((0, -1, 0), mu * p / C, 1))
    return up, (((0, 1, 0), lam / C, None), ((1, -1, 0), mu / C, 1),
                ((0, 0, -1), beta / C, None))


def _row(moves: tuple, state: tuple, free: bool = False) -> TransitionRow:
    """Row at `state` folded from the interior moves: a move of probability 0
    (p = 1) or one that lowers a coordinate already at 0 (only y when `free`)
    is dropped, and the self-loop is 1 minus the kept moves summed in table
    order."""
    acc = {}
    used = 0.0
    for step, prob, low in moves[state[-1]]:
        if prob == 0.0 or (low is not None and state[low] == 0 and (low or not free)):
            continue
        acc[tuple(map(add, state, step))] = prob
        used += prob
    diag = 1.0 - used
    if diag < -_ROW_TOL:
        raise InvalidParameters(f"row at {state} has negative diagonal {diag}; C too small")
    acc[state] = max(diag, 0.0)
    return TransitionRow(state, tuple(sorted(acc.items())))


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


def rs_rd_kernel(params: ModelParams, state: tuple) -> TransitionRow:
    """Row of the rerouting comparison network (random-selection /
    random-destination); its moves are listed in `_moves`."""
    if params.model is not Model.RSRD:
        raise InvalidParameters("the rerouting kernel needs an RS-RD parameter set")
    return full_kernel(params, state)


def row_classes(params: ModelParams) -> dict[tuple, TransitionRow]:
    """Full-chain rows at the class origins (min(x, 1), [min(y, 1),] sigma),
    keyed by origin in lexicographic order.

    The row at any state is its class row shifted by (state - origin), with
    the same probabilities; the free row at any x is the x0 = 1 class row
    shifted the same way.
    """
    moves = _moves(params)
    corners = [(0, 1)] * (1 if params.model is Model.MODEL1 else 2)
    return {origin: _row(moves, origin)
            for origin in itertools.product(*corners, (UP, DOWN))}


def level_blocks(rows, y_cut: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(up, local, down) blocks, with x as the level, of class rows at one x0.

    Phases are sigma, or (y, sigma) -> 2y + sigma for y <= y_cut: a row at
    y0 = 1 stands for every y in 1..y_cut, and a move past y_cut stays at
    y_cut.  At x0 = 0 the local block is that of level 0.
    """
    n = 2 * (y_cut + 1)
    blocks = np.zeros((3, n, n))
    ys = np.arange(1, y_cut + 1)
    for row in rows:
        x0, sigma = row.origin[0], row.origin[-1]
        y0 = row.origin[1] if len(row.origin) == 3 else 0
        for target, prob in row.targets:
            k, to = x0 + 1 - target[0], target[-1]
            dy = target[1] - y0 if len(target) == 3 else 0
            if y0:   # one numpy update for all y; a Python loop over y is slower
                blocks[k, 2 * ys + sigma, 2 * np.minimum(ys + dy, y_cut) + to] += prob
            else:    # scalar indexing; numpy's per-call cost would dominate 2x2 blocks
                blocks[k, sigma, 2 * min(dy, y_cut) + to] += prob
    return blocks[0], blocks[1], blocks[2]
