"""Matrix-geometric machinery for the single-server model and the truncated
linear-solve oracle shared by every model.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .kernels import full_kernel, rs_rd_kernel
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


def qbd_blocks(params: ModelParams) -> QbdBlocks:
    """Level-structured 2x2 blocks of the single-server embedded chain."""
    lam, mu, alpha, beta, C = params.lam, params.mu, params.alpha, params.beta, params.C
    p1_boundary = np.array([[1.0 - (alpha + lam) / C, alpha / C],
                            [beta / C, 1.0 - (lam + beta) / C]])
    p0 = np.array([[lam / C, 0.0], [0.0, lam / C]])
    p2 = np.array([[mu / C, 0.0], [0.0, 0.0]])
    p1 = np.array([[1.0 - (mu + lam + alpha) / C, alpha / C],
                   [beta / C, 1.0 - (lam + beta) / C]])
    return QbdBlocks(p1_boundary=p1_boundary, p0=p0, p1=p1, p2=p2)


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
    if not stability(params, Model.MODEL1).stable:
        raise UnstableParameters("stationary distribution requires stability")
    blocks = qbd_blocks(params)
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
    residual = _model1_balance_residual(params, levels)
    return StationaryTable(model=Model.MODEL1, entries=entries, x_max=k_max,
                           y_max=None, residual=residual, tail_mass_bound=tail)


def _model1_balance_residual(params: ModelParams, levels: np.ndarray) -> float:
    """Max |pi P - pi| over levels 0..k_max-1 of the full chain."""
    lam, mu, alpha, beta, C = params.lam, params.mu, params.alpha, params.beta, params.C
    k_max = levels.shape[0] - 1
    worst = 0.0
    for k in range(k_max):
        inflow_up = levels[k, UP] * (1.0 - (lam + alpha + (mu if k > 0 else 0.0)) / C) \
            + levels[k, DOWN] * beta / C \
            + levels[k + 1, UP] * mu / C
        inflow_down = levels[k, DOWN] * (1.0 - (lam + beta) / C) \
            + levels[k, UP] * alpha / C
        if k > 0:
            inflow_up += levels[k - 1, UP] * lam / C
            inflow_down += levels[k - 1, DOWN] * lam / C
        worst = max(worst, abs(inflow_up - levels[k, UP]),
                    abs(inflow_down - levels[k, DOWN]))
    return worst


def _lattice_states(model: Model, x_max: int, y_max: int | None):
    if model is Model.MODEL1:
        return [(x, sigma) for x in range(x_max + 1) for sigma in (UP, DOWN)]
    return [(x, y, sigma) for x in range(x_max + 1)
            for y in range(y_max + 1) for sigma in (UP, DOWN)]


def truncated_stationary(params: ModelParams, model: Model, x_max: int,
                         y_max: int | None = None,
                         tail_error: float = 0.01) -> StationaryTable:
    """Stationary law of the chain truncated to the lattice, by sparse solve.

    Probability leaving the lattice is folded back into the diagonal
    (reflecting cut), which keeps rows stochastic and converges to the true
    law as the cut grows.  The universal oracle for the two-server models.
    """
    if model is Model.MODEL1:
        y_max = None
        kernel = lambda s: full_kernel(params, model, s)
    elif model is Model.MODEL2:
        if y_max is None:
            raise InvalidParameters("y_max required for the two-server lattice")
        kernel = lambda s: full_kernel(params, model, s)
    else:
        if y_max is None:
            raise InvalidParameters("y_max required for the two-server lattice")
        kernel = lambda s: rs_rd_kernel(params, s)

    states = _lattice_states(model, x_max, y_max)
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    rows, cols, vals = [], [], []
    for s in states:
        i = index[s]
        diag_extra = 0.0
        for target, prob in kernel(s).targets:
            j = index.get(target)
            if j is None:
                diag_extra += prob
            elif target == s:
                diag_extra += prob
            else:
                rows.append(i)
                cols.append(j)
                vals.append(prob)
        rows.append(i)
        cols.append(i)
        vals.append(diag_extra)
    p = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))

    a = (p.T - sp.identity(n, format="csr")).tolil()
    a[0, :] = 1.0
    b = np.zeros(n)
    b[0] = 1.0
    pi = spla.spsolve(a.tocsc(), b)
    if np.min(pi) < -1e-10:
        raise ArithmeticError("truncated solve produced negative probabilities")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    residual = float(np.max(np.abs(pi @ p - pi)))

    entries = {s: float(pi[index[s]]) for s in states}
    tail = _tail_mass_estimate(model, entries, x_max, y_max)
    if tail > tail_error:
        raise TruncationError(
            f"estimated tail mass {tail:.3g} exceeds {tail_error}; enlarge the lattice")
    return StationaryTable(model=model, entries=entries, x_max=x_max, y_max=y_max,
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
