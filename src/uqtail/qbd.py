"""Matrix-geometric machinery for the single-server model and the truncated
linear-solve oracle shared by every model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .kernels import row_classes
from .params import (DOWN, UP, InvalidParameters, InvalidState, Model, ModelParams,
                     UnstableParameters)
from .spectral import stability

if TYPE_CHECKING:   # scipy loads in the sparse solves only; most verbs never run one
    import scipy.sparse as sp

_BLOCK_TOL = 1e-12
_FIRST_PASSAGE_TOL = 1e-16  # largest entry of the last doubling's increment
_FIRST_PASSAGE_DOUBLINGS = 64
_FIRST_PASSAGE_RESIDUAL = 1e-12
# G of a recurrent QBD is stochastic, and rounding in the doublings leaves its
# row sums above 1 by up to about 1e-14 / (1 - load) on Model 1's blocks: 4e-14
# over the stable grid, 2e-10 and 1.3e-8 over grid sets moved to 0.9999 and
# 0.999999 load.  Row sums past this bound mean the blocks are not a QBD's (rows
# of A0 + A1 + A2 summing above 1); transient chains keep theirs below 1.
_FIRST_PASSAGE_ROW_EXCESS = 1e-8


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge."""


class TruncationError(ValueError):
    """Truncated lattice too small for the requested accuracy."""


@dataclass(frozen=True)
class QbdBlocks:
    p1_boundary: np.ndarray
    p0: np.ndarray
    p1: np.ndarray
    p2: np.ndarray


@dataclass(frozen=True, eq=False)
class LatticeLaw:
    """A law held as one read-only array in `_lattice_shape` layout, pi[x, [y,] sigma]."""
    pi: np.ndarray

    def __post_init__(self):
        self.pi.setflags(write=False)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    def prob(self, state: tuple) -> float:
        """pi(state), 0.0 off the box; InvalidState for a wrong number of coordinates."""
        if len(state) != self.pi.ndim:
            raise InvalidState(f"state {state} needs {self.pi.ndim} coordinates")
        inside = all(0 <= c < n for c, n in zip(state, self.pi.shape))
        return float(self.pi[tuple(state)]) if inside else 0.0

    def levels(self, sigma: int, k_min: int, k_max: int, y: int = 0) -> np.ndarray:
        """pi(k, [y,] sigma) for k = k_min..k_max, 0.0 outside the box; y is
        ignored on an (x, sigma) box."""
        out = np.zeros(max(k_max - k_min + 1, 0))
        rest = (y, sigma) if self.pi.ndim == 3 else (sigma,)
        lo, hi = max(k_min, 0), min(k_max, len(self.pi) - 1)
        if lo <= hi and all(0 <= c < n for c, n in zip(rest, self.pi.shape[1:])):
            out[lo - k_min:hi - k_min + 1] = self.pi[(slice(lo, hi + 1),) + rest]
        return out

    def total(self) -> float:
        return float(self.pi.sum())

    def total_variation(self, other: LatticeLaw) -> float:
        """Half the l1 distance; mass one box holds and the other lacks counts in full."""
        diff = np.zeros(np.maximum(self.pi.shape, other.pi.shape))
        diff[tuple(map(slice, self.pi.shape))] += self.pi
        diff[tuple(map(slice, other.pi.shape))] -= other.pi
        return 0.5 * float(np.abs(diff).sum())

    @property
    def entries(self) -> dict:
        """{state: pi(state)} over the box, built on each read.  It exists only
        because perfbench/ reads it: `len(res.entries)` in spans.py and
        `set(table.entries)` in workloads._total_variation."""
        return dict(zip(np.ndindex(*self.pi.shape), self.pi.ravel().tolist()))


@dataclass(frozen=True, eq=False)
class StationaryTable(LatticeLaw):
    model: Model
    residual: float
    tail_mass_bound: float
    truncation_warning: bool = False


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


def qbd_blocks(params: ModelParams) -> QbdBlocks:
    """Level-structured 2x2 blocks of the single-server embedded chain."""
    if params.model is not Model.MODEL1:
        raise InvalidParameters("the QBD blocks need a Model 1 parameter set")
    rows = list(row_classes(params).values())   # x0 = 0, then x0 = 1
    p0, p1, p2 = level_blocks(rows[2:])
    return QbdBlocks(p1_boundary=level_blocks(rows[:2])[1], p0=p0, p1=p1, p2=p2)


def rate_matrix_closed_form(params: ModelParams) -> np.ndarray:
    """Minimal solution of R = R^2 P2 + R P1 + P0 in closed form."""
    lam, mu, alpha, beta = params.lam, params.mu, params.alpha, params.beta
    return lam / mu * np.array([[1.0, alpha / (lam + beta)],
                                [1.0, (alpha + mu) / (lam + beta)]])


def first_passage(a0: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Minimal solution G of G = A2 + A1 G + A0 G^2 by logarithmic reduction
    (Latouche & Ramaswami, J. Appl. Prob. 30, 1993).

    A0, A1, A2 are the up, local and down blocks of a level-homogeneous QBD;
    G[i, j] is the probability of first entering the level below in phase j
    from phase i.  Blocks of shape (..., n, n) are a stack of QBDs, solved by
    the same doublings until the last step is small for all of them.  Raises
    ArithmeticError, naming the first failing stack index, unless every
    residual is at most 1e-12 and every row sum at most 1 + 1e-8.
    """
    eye = np.eye(a1.shape[-1])
    up = np.linalg.solve(eye - a1, a0)
    down = np.linalg.solve(eye - a1, a2)
    g, reach = down.copy(), up.copy()
    for _ in range(_FIRST_PASSAGE_DOUBLINGS):
        mix = eye - up @ down - down @ up
        up, down = np.linalg.solve(mix, up @ up), np.linalg.solve(mix, down @ down)
        step = reach @ down
        g += step
        reach = reach @ up
        if np.max(step) <= _FIRST_PASSAGE_TOL:
            break
    residual = np.max(np.abs(a2 + a1 @ g + a0 @ g @ g - g), axis=(-2, -1))
    rows = g.sum(axis=-1)
    failed = ~((residual <= _FIRST_PASSAGE_RESIDUAL)
               & np.all(rows <= 1.0 + _FIRST_PASSAGE_ROW_EXCESS, axis=-1))
    if np.any(failed):
        index = tuple(np.argwhere(failed)[0].tolist())
        where = f" at stack index {', '.join(map(str, index))}" if index else ""
        raise ArithmeticError(
            f"first-passage matrix{where} fails: residual {float(residual[index]):.3g} "
            f"(bound {_FIRST_PASSAGE_RESIDUAL:g}), max row sum "
            f"{float(rows[index].max())!r} (must be <= 1 + {_FIRST_PASSAGE_ROW_EXCESS:g})")
    return g


def rate_matrix(a0: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Minimal solution R of R = A0 + R A1 + R^2 A2, as A0 (I - A1 - A0 G)^-1
    with G from `first_passage` (Latouche & Ramaswami, 1999)."""
    g = first_passage(a0, a1, a2)
    return a0 @ np.linalg.inv(np.eye(a1.shape[0]) - a1 - a0 @ g)


def neuts_stability(a0: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> bool:
    """Positive recurrence by the mean-drift test on the level generator
    A0 + A1 + A2 of the 2x2 interior (up, local, down) blocks."""
    gen = a0 + a1 + a2
    up_rate, down_rate = gen[0, 1], gen[1, 0]
    rho = np.array([down_rate, up_rate]) / (up_rate + down_rate)
    ones = np.ones(2)
    return float(rho @ a0 @ ones) < float(rho @ a2 @ ones)


def boundary_vector(params: ModelParams) -> np.ndarray:
    """Stationary probabilities of level 0, (pi(0,U), pi(0,D))."""
    return _boundary(params)[0]


def _boundary(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """`boundary_vector` with the closed-form R it was solved from.

    Level 1 is left downwards only from Up, so level 0's Down balance reads
    pi(0, D)(lambda + beta) = alpha pi(0, U): pi0 is proportional to
    (lambda + beta, alpha), free of the cancellation a null vector of
    P1_boundary + R P2 - I suffers as alpha -> 0, and sums to 1 with its
    levels above, pi0 (I - R)^-1 1.
    """
    if params.model is not Model.MODEL1:
        raise InvalidParameters("the boundary vector needs a Model 1 parameter set")
    if not stability(params).stable:
        raise UnstableParameters("stationary distribution requires stability")
    r = rate_matrix_closed_form(params)
    pi0 = np.array([params.lam + params.beta, params.alpha])
    return pi0 / float(pi0 @ np.linalg.solve(np.eye(2) - r, np.ones(2))), r


def exact_stationary_model1(params: ModelParams, k_max: int) -> StationaryTable:
    """Matrix-geometric stationary table pi(k, sigma) = pi0 R^k for k <= k_max."""
    pi0, r = _boundary(params)
    blocks = qbd_blocks(params)   # for the balance residual only
    level = pi0.copy()
    levels = np.empty((k_max + 1, 2))
    for k in range(k_max + 1):
        levels[k] = level
        level = level @ r
    tail = float(level @ np.linalg.solve(np.eye(2) - r, np.ones(2)))
    # max |pi P - pi| over levels 0..k_max-1 of the full chain
    inflow = levels[:-1] @ blocks.p1 + levels[1:] @ blocks.p2
    inflow[1:] += levels[:-2] @ blocks.p0
    inflow[:1] = levels[:1] @ blocks.p1_boundary + levels[1:2] @ blocks.p2
    residual = float(np.max(np.abs(inflow - levels[:-1]), initial=0.0))
    return StationaryTable(pi=levels, model=Model.MODEL1, residual=residual,
                           tail_mass_bound=tail)


def _lattice_shape(model: Model, x_max: int, y_max: int | None) -> tuple:
    """Array shape of the lattice x <= x_max (y <= y_max) by sigma; a state's
    index is its C-order position.  Raises InvalidParameters on an empty side."""
    if x_max < 1 or (model is not Model.MODEL1 and (y_max is None or y_max < 1)):
        raise InvalidParameters(f"the lattice needs x_max >= 1 and y_max >= 1, "
                                f"got x_max={x_max}, y_max={y_max}")
    return (x_max + 1, 2) if model is Model.MODEL1 else (x_max + 1, y_max + 1, 2)


def _lattice_matrix(params: ModelParams, shape: tuple) -> sp.csr_matrix:
    """Transition matrix of the chain cut to the lattice `shape` (reflecting cut).

    Each `row_classes` row is broadcast over its class's states.  Moves leaving
    the lattice and the self-move fold into the diagonal, added in the row's
    sorted target order.
    """
    import scipy.sparse as sp

    coords = np.indices(shape).reshape(len(shape), -1)
    n = coords.shape[1]
    corner = np.minimum(coords, 1)   # the row class; sigma is 0 or 1 already
    edge = np.array(shape)[:, None] - 1
    diag = np.zeros(n)
    rows, cols, vals = [], [], []
    for origin, row in row_classes(params).items():
        members = np.flatnonzero((corner == np.array(origin)[:, None]).all(axis=0))
        at = coords[:, members]
        for target, prob in row.targets:
            to = at + (np.array(target) - np.array(origin))[:, None]
            fold = (to > edge).any(axis=0) | (target == origin)
            diag[members] += np.where(fold, prob, 0.0)
            rows.append(members[~fold])
            cols.append(np.ravel_multi_index(to[:, ~fold], shape))
            vals.append(np.full(rows[-1].size, prob))
    every = np.arange(n)
    return sp.csr_matrix((np.concatenate(vals + [diag]),
                          (np.concatenate(rows + [every]), np.concatenate(cols + [every]))),
                         shape=(n, n))


def _lattice_inflow(params: ModelParams, pi: np.ndarray) -> np.ndarray:
    """pi P for P = `_lattice_matrix(params, pi.shape)`, without building P.

    Each distinct move (dx, [dy,] sigma -> sigma') of the `row_classes` rows
    carries its probability q over the states of every class that has it, and
    the shifted slice pi q adds into the inflow of its targets.  The diagonal
    move holds the self-move and the moves folded at the far edge.  Moves are
    summed by decreasing offset (target index minus source index), so each
    target adds its sources in increasing index, as P's sparse mat-vec does:
    the sums are bit-identical.
    """
    space = pi.shape[:-1]
    strides = [2 * math.prod(space[k + 1:]) for k in range(len(space))]   # C order
    diag = np.zeros(pi.shape)
    moves = {}   # (d, sigma, to) -> q over the source states
    for origin, row in row_classes(params).items():
        sigma = origin[-1]
        members = tuple(slice(c, None if c else 1) for c in origin[:-1])
        for target, prob in row.targets:
            if target == origin:
                diag[members + (sigma,)] += prob
                continue
            d = tuple(t - o for t, o in zip(target[:-1], origin[:-1]))
            if (d, sigma, target[-1]) not in moves:
                moves[d, sigma, target[-1]] = np.zeros(space)
            moves[d, sigma, target[-1]][members] = prob
            # a move steps up in at most one of x and y; from that coordinate's
            # far edge, which only the class at 1 holds, it folds into the diagonal
            for k in (k for k, step in enumerate(d) if step > 0 and origin[k]):
                diag[members[:k] + (-1,) + members[k + 1:] + (sigma,)] += prob
    for sigma in (UP, DOWN):
        moves[(0,) * len(space), sigma, sigma] = diag[..., sigma]

    def offset(move):   # index of the target minus index of the source
        d, sigma, to = move
        return sum(s * k for s, k in zip(strides, d)) + to - sigma

    inflow = np.zeros(pi.shape)
    for d, sigma, to in sorted(moves, key=offset, reverse=True):
        src = tuple(slice(max(0, -k), n - max(0, k)) for k, n in zip(d, space))
        dst = tuple(slice(max(0, k), n - max(0, -k)) for k, n in zip(d, space))
        inflow[dst + (to,)] += pi[src + (sigma,)] * moves[d, sigma, to][src]
    return inflow


def truncated_stationary(params: ModelParams, model: Model | None = None, *,
                         x_max: int, y_max: int | None = None,
                         tail_error: float = 0.01) -> StationaryTable:
    """Stationary law of the chain truncated to the lattice, by sparse solve.

    Probability leaving the lattice is folded back into the diagonal
    (reflecting cut), which keeps rows stochastic and converges to the true
    law as the cut grows.  The universal oracle for the two-server models.
    P is built from the eight (four for Model 1) row classes of
    `_lattice_matrix`; the solve is SuperLU on P^T - I with row 0 set to ones.
    Raises InvalidParameters unless x_max >= 1 and, off Model 1, y_max >= 1.
    `model` may be omitted; when given (perfbench/run.py passes it), it must
    be params.model.
    """
    if model not in (None, params.model):
        raise InvalidParameters(f"model {model} does not match the parameters' {params.model}")
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    if params.model is Model.MODEL1:
        y_max = None
    elif y_max is None:
        raise InvalidParameters("y_max required for the two-server lattice")
    shape = _lattice_shape(params.model, x_max, y_max)
    p = _lattice_matrix(params, shape)
    n = p.shape[0]
    a = sp.vstack([np.ones((1, n)), (p.T - sp.identity(n, format="csr")).tocsr()[1:]],
                  format="csc")
    b = np.zeros(n)
    b[0] = 1.0
    pi = spla.spsolve(a, b)
    if np.min(pi) < -1e-10:
        raise ArithmeticError("truncated solve produced negative probabilities")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    residual = float(np.max(np.abs(pi @ p - pi)))
    pi = pi.reshape(shape)
    tail = _tail_mass_estimate(pi)
    if tail > tail_error:
        raise TruncationError(
            f"estimated tail mass {tail:.3g} exceeds {tail_error}; enlarge the lattice")
    return StationaryTable(pi=pi, model=params.model, residual=residual,
                           tail_mass_bound=tail, truncation_warning=tail > 1e-8)


def _tail_mass_estimate(pi: np.ndarray) -> float:
    """Geometric extrapolation of the mass beyond the cut from pi's last x and y shells."""
    tail = 0.0
    for axis in range(pi.ndim - 1):
        last, prev = (float(np.take(pi, k, axis=axis).sum()) for k in (-1, -2))
        if last > 0.0:
            ratio = min(last / prev, 0.99) if prev > 0 else 0.5
            tail += last * ratio / (1.0 - ratio)
    return tail
