"""Matrix-geometric machinery for the single-server model and the truncated
linear-solve oracle shared by every model.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .kernels import row_classes
from .params import (DOWN, UP, STATUS_NAMES, InvalidParameters, Model,
                     ModelParams, UnstableParameters)
from .spectral import stability

_BLOCK_TOL = 1e-12
_FIRST_PASSAGE_TOL = 1e-16  # largest entry of the last doubling's increment
_FIRST_PASSAGE_DOUBLINGS = 64
_FIRST_PASSAGE_RESIDUAL = 1e-12


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


@dataclass(frozen=True)
class RateMatrixSolution:
    R: np.ndarray
    eig_large: float
    eig_small: float
    iterations: int
    residual: float


@dataclass
class StationaryTable:
    model: Model
    entries: dict
    x_max: int
    y_max: int | None
    residual: float
    tail_mass_bound: float
    truncation_warning: bool = False
    notes: dict = field(default_factory=dict)

    def prob(self, state: tuple) -> float:
        return self.entries.get(state, 0.0)

    def total(self) -> float:
        return sum(self.entries.values())

    def to_csv(self, path, header_lines: list[str] | None = None) -> None:
        with open(path, "w", newline="") as fh:
            for line in header_lines or []:
                fh.write(f"# {line}\n")
            writer = csv.writer(fh)
            if self.y_max is None:
                writer.writerow(["x", "sigma", "prob"])
                for (x, sigma), prob in sorted(self.entries.items()):
                    writer.writerow([x, STATUS_NAMES[sigma], f"{prob:.17g}"])
            else:
                writer.writerow(["x", "y", "sigma", "prob"])
                for (x, y, sigma), prob in sorted(self.entries.items()):
                    writer.writerow([x, y, STATUS_NAMES[sigma], f"{prob:.17g}"])

    def to_json_dict(self) -> dict:
        key = (lambda s: [s[0], STATUS_NAMES[s[1]]]) if self.y_max is None else \
              (lambda s: [s[0], s[1], STATUS_NAMES[s[2]]])
        return {"model": self.model.value, "x_max": self.x_max, "y_max": self.y_max,
                "residual": self.residual, "tail_mass_bound": self.tail_mass_bound,
                "truncation_warning": self.truncation_warning,
                "entries": [[key(s), p] for s, p in sorted(self.entries.items())]}


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


def rate_matrix_iterate(blocks: QbdBlocks, tol: float = 1e-15,
                        max_iter: int = 10 ** 6) -> RateMatrixSolution:
    """Successive substitution R <- R^2 P2 + R P1 + P0 from R = 0."""
    r = np.zeros((2, 2))
    for iteration in range(1, max_iter + 1):
        r_next = r @ r @ blocks.p2 + r @ blocks.p1 + blocks.p0
        delta = np.max(np.abs(r_next - r))
        r = r_next
        if delta <= tol:
            residual = np.max(np.abs(r - (r @ r @ blocks.p2 + r @ blocks.p1 + blocks.p0)))
            large, small = rate_matrix_spectrum(r)
            return RateMatrixSolution(R=r, eig_large=large, eig_small=small,
                                      iterations=iteration, residual=residual)
    residual = np.max(np.abs(r - (r @ r @ blocks.p2 + r @ blocks.p1 + blocks.p0)))
    raise ConvergenceError(f"rate-matrix iteration did not converge; last residual {residual}")


def first_passage(a0: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Minimal solution G of G = A2 + A1 G + A0 G^2 by logarithmic reduction
    (Latouche & Ramaswami, J. Appl. Prob. 30, 1993).

    A0, A1, A2 are the up, local and down blocks of a level-homogeneous QBD;
    G[i, j] is the probability of first entering the level below in phase j
    from phase i.  Raises ArithmeticError unless the residual is at most
    1e-12 and every row sum is at most 1.
    """
    eye = np.eye(a1.shape[0])
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
    residual = float(np.max(np.abs(a2 + a1 @ g + a0 @ g @ g - g)))
    rows = g.sum(axis=1)
    if not (residual <= _FIRST_PASSAGE_RESIDUAL and np.all(rows <= 1.0)):
        raise ArithmeticError(
            f"first-passage matrix fails: residual {residual:.3g} "
            f"(bound {_FIRST_PASSAGE_RESIDUAL:g}), "
            f"max row sum {float(rows.max())!r} (must be <= 1)")
    return g


def rate_matrix_spectrum(R: np.ndarray) -> tuple[float, float]:
    """Eigenvalues of a 2x2 matrix, descending; complex pairs are rejected."""
    trace = R[0, 0] + R[1, 1]
    det = R[0, 0] * R[1, 1] - R[0, 1] * R[1, 0]
    disc = (trace / 2.0) ** 2 - det
    if disc < 0.0:
        raise ArithmeticError("complex eigenvalues; input is not a valid rate matrix")
    gap = math.sqrt(disc)
    return trace / 2.0 + gap, trace / 2.0 - gap


def neuts_stability(blocks: QbdBlocks) -> bool:
    """Positive recurrence by the mean-drift test on the level generator."""
    gen = blocks.p0 + blocks.p1 + blocks.p2
    up_rate, down_rate = gen[0, 1], gen[1, 0]
    rho = np.array([down_rate, up_rate]) / (up_rate + down_rate)
    ones = np.ones(2)
    return float(rho @ blocks.p0 @ ones) < float(rho @ blocks.p2 @ ones)


def boundary_vector(params: ModelParams) -> np.ndarray:
    """Stationary probabilities of level 0, (pi(0,U), pi(0,D))."""
    blocks = qbd_blocks(params)
    if not stability(params).stable:
        raise UnstableParameters("stationary distribution requires stability")
    r = rate_matrix_closed_form(params)
    n = blocks.p1_boundary + r @ blocks.p2 - np.eye(2)
    pi0 = np.array([n[1, 0], -n[0, 0]])
    if np.max(np.abs(pi0)) < 1e-300:
        pi0 = np.array([n[1, 1], -n[0, 1]])
    if pi0[0] < 0:
        pi0 = -pi0
    norm = float(pi0 @ np.linalg.solve(np.eye(2) - r, np.ones(2)))
    if not norm > 0:
        raise ArithmeticError("singular boundary system")
    return pi0 / norm


def exact_stationary_model1(params: ModelParams, k_max: int) -> StationaryTable:
    """Matrix-geometric stationary table pi(k, sigma) = pi0 R^k for k <= k_max."""
    pi0 = boundary_vector(params)
    r = rate_matrix_closed_form(params)
    entries = {}
    level = pi0.copy()
    levels = np.empty((k_max + 1, 2))
    for k in range(k_max + 1):
        levels[k] = level
        entries[(k, UP)] = float(level[UP])
        entries[(k, DOWN)] = float(level[DOWN])
        level = level @ r
    tail = float(level @ np.linalg.solve(np.eye(2) - r, np.ones(2)))
    # max |pi P - pi| over levels 0..k_max-1 of the full chain
    blocks = qbd_blocks(params)
    inflow = levels[:-1] @ blocks.p1 + levels[1:] @ blocks.p2
    inflow[1:] += levels[:-2] @ blocks.p0
    inflow[:1] = levels[:1] @ blocks.p1_boundary + levels[1:2] @ blocks.p2
    residual = float(np.max(np.abs(inflow - levels[:-1]), initial=0.0))
    return StationaryTable(model=Model.MODEL1, entries=entries, x_max=k_max,
                           y_max=None, residual=residual, tail_mass_bound=tail)


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

    states = itertools.product(*(range(k) for k in shape[:-1]), (UP, DOWN))
    entries = dict(zip(states, pi.tolist()))
    tail = _tail_mass_estimate(params.model, entries, x_max, y_max)
    if tail > tail_error:
        raise TruncationError(
            f"estimated tail mass {tail:.3g} exceeds {tail_error}; enlarge the lattice")
    return StationaryTable(model=params.model, entries=entries, x_max=x_max, y_max=y_max,
                           residual=residual, tail_mass_bound=tail,
                           truncation_warning=tail > 1e-8)


def _tail_mass_estimate(model: Model, entries: dict, x_max: int,
                        y_max: int | None) -> float:
    """Geometric extrapolation of the mass beyond the cut from the last shells."""
    def extrapolate(last, prev):
        if last <= 0.0:
            return 0.0
        ratio = min(last / prev, 0.99) if prev > 0 else 0.5
        return last * ratio / (1.0 - ratio)

    if model is Model.MODEL1:
        shell = lambda k: entries.get((k, UP), 0.0) + entries.get((k, DOWN), 0.0)
        return extrapolate(shell(x_max), shell(x_max - 1))
    x_shell = lambda k: sum(entries.get((k, y, sigma), 0.0)
                            for y in range(y_max + 1) for sigma in (UP, DOWN))
    y_shell = lambda k: sum(entries.get((x, k, sigma), 0.0)
                            for x in range(x_max + 1) for sigma in (UP, DOWN))
    return extrapolate(x_shell(x_max), x_shell(x_max - 1)) \
        + extrapolate(y_shell(y_max), y_shell(y_max - 1))
