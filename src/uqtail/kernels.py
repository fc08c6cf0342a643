"""One-step transition rows of the uniformized embedded chains.

Three chains are covered: the full chains (with their boundary at x = 0),
the free processes (boundary removed, shift invariant in x), and the
rerouting comparison network used as a product-form reference.  Rows are
sparse per-state distributions, so the infinite state space never needs
truncation here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .params import (DOWN, UP, InvalidParameters, Model, ModelParams,
                     check_state, state_to_json)

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

    def to_json(self) -> dict:
        return {"from": state_to_json(self.origin),
                "to": [[state_to_json(s), p] for s, p in self.targets]}


def _build_row(origin: tuple, moves: list[tuple[tuple, float]]) -> TransitionRow:
    acc: dict[tuple, float] = {}
    used = 0.0
    for target, prob in moves:
        if prob == 0.0:
            continue
        acc[target] = acc.get(target, 0.0) + prob
        used += prob
    diag = 1.0 - used
    if diag < -_ROW_TOL:
        raise InvalidParameters(f"row at {origin} has negative diagonal {diag}; C too small")
    acc[origin] = acc.get(origin, 0.0) + max(diag, 0.0)
    return TransitionRow(origin, tuple(sorted(acc.items())))


def _model1_moves(params: ModelParams, x: int, sigma: int, bounded: bool):
    lam, mu, alpha, beta, C = params.lam, params.mu, params.alpha, params.beta, params.C
    moves = [((x + 1, sigma), lam / C)]
    if sigma == UP:
        if not (bounded and x == 0):
            moves.append(((x - 1, UP), mu / C))
        moves.append(((x, DOWN), alpha / C))
    else:
        moves.append(((x, UP), beta / C))
    return moves


def _model2_moves(params: ModelParams, x: int, y: int, sigma: int, bounded: bool):
    lam, mu, alpha, beta, p, C = (params.lam, params.mu, params.alpha,
                                  params.beta, params.p, params.C)
    moves = [((x, y + 1, sigma), lam / C)]
    if y >= 1:
        moves.append(((x + 1, y - 1, sigma), mu / C))
    if sigma == UP:
        if not (bounded and x == 0):
            moves.append(((x - 1, y, UP), mu * p / C))
            moves.append(((x - 1, y + 1, UP), mu * (1.0 - p) / C))
        moves.append(((x, y, DOWN), alpha / C))
    else:
        moves.append(((x, y, UP), beta / C))
    return moves


def free_kernel(params: ModelParams, state: tuple) -> TransitionRow:
    """Row of the boundary-free, x-shift-invariant chain."""
    check_state(state, params.model, free=True)
    if params.model is Model.MODEL1:
        x, sigma = state
        return _build_row(state, _model1_moves(params, x, sigma, bounded=False))
    if params.model is Model.MODEL2:
        x, y, sigma = state
        return _build_row(state, _model2_moves(params, x, y, sigma, bounded=False))
    raise InvalidParameters("free process is defined for Model 1 and Model 2 only")


def full_kernel(params: ModelParams, state: tuple) -> TransitionRow:
    """Row of the full chain; moves leaving the state space fold into the diagonal."""
    check_state(state, params.model)
    if params.model is Model.MODEL1:
        x, sigma = state
        return _build_row(state, _model1_moves(params, x, sigma, bounded=True))
    if params.model is Model.MODEL2:
        x, y, sigma = state
        return _build_row(state, _model2_moves(params, x, y, sigma, bounded=True))
    return rs_rd_kernel(params, state)


def row_classes(params: ModelParams) -> dict[tuple, TransitionRow]:
    """Full-chain rows at the class origins (min(x, 1), [min(y, 1),] sigma),
    keyed by origin in lexicographic order.

    The row at any state is its class row shifted by (state - origin), with
    the same probabilities; the free row at any x is the x0 = 1 class row
    shifted the same way.
    """
    corners = [(0, 1)] * (1 if params.model is Model.MODEL1 else 2)
    return {origin: full_kernel(params, origin)
            for origin in itertools.product(*corners, (UP, DOWN))}


def rs_rd_kernel(params: ModelParams, state: tuple) -> TransitionRow:
    """Rerouting comparison network (random-selection / random-destination).

    Identical to the two-server full chain while Up.  While Down, a server-2
    completion cannot enter server 1: the customer is rerouted by server 1's
    routing row, so it leaves the network with probability p (the y-1 move
    keeps x fixed) and rejoins server 2 otherwise (a self-loop).  This is the
    unique reading under which the product-form stationary law of the
    reference network satisfies global balance.
    """
    if params.model is not Model.RSRD:
        raise InvalidParameters("the rerouting kernel needs an RS-RD parameter set")
    check_state(state, Model.RSRD)
    x, y, sigma = state
    lam, mu, beta, p, C = params.lam, params.mu, params.beta, params.p, params.C
    if sigma == UP:
        return _build_row(state, _model2_moves(params, x, y, UP, bounded=True))
    moves = [((x, y + 1, DOWN), lam / C), ((x, y, UP), beta / C)]
    if y >= 1:
        moves.append(((x, y - 1, DOWN), mu * p / C))
    return _build_row(state, moves)
