"""Matrix-geometric machinery for the single-server model, the one builder
of closed-form stationary tables, the truncated linear-solve oracle shared
by every model, and `stationary_table`, the one entry point to every
chain's stationary law.
"""

from __future__ import annotations

import math
import warnings
from collections import defaultdict
from dataclasses import dataclass, fields

import numpy as np

from .kernels import _fold, _moves, _origins
from .params import (DOWN, UP, InvalidParameters, InvalidState, Model, ModelParams,
                     _require, make_params)
from .spectral import SpectralSolution, _require_stable, _stable_roots

_FIRST_PASSAGE_TOL = 1e-16  # largest entry of the last doubling's increment
_FIRST_PASSAGE_DOUBLINGS = 64
_FIRST_PASSAGE_RESIDUAL = 1e-12
# G of a recurrent QBD is stochastic, and rounding in the doublings leaves its
# row sums above 1 by up to about 1e-14 / (1 - load) on Model 1's blocks: 4e-14
# over the stable grid, 2e-10 and 1.3e-8 over grid sets moved to 0.9999 and
# 0.999999 load.  Row sums past this bound mean the blocks are not a QBD's (rows
# of A0 + A1 + A2 summing above 1); transient chains keep theirs below 1.
_FIRST_PASSAGE_ROW_EXCESS = 1e-8
_TAIL_ERROR = 0.01   # default bound on a truncated table's estimated tail mass


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge."""


class TruncationError(ValueError):
    """Truncated lattice too small for the requested accuracy."""


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
    residual: float
    tail_mass_bound: float


def rate_matrix_closed_form(params: ModelParams) -> np.ndarray:
    """Minimal solution of R = R^2 A2 + R A1 + A0 in closed form, (..., 2, 2) on a stack."""
    lam, mu, alpha, beta = params.lam, params.mu, params.alpha, params.beta
    scale = lam / mu
    r = np.empty(np.shape(lam) + (2, 2))   # filled: np.stack would take three times as long
    r[..., 0, 0] = r[..., 1, 0] = scale
    r[..., 0, 1] = scale * (alpha / (lam + beta))
    r[..., 1, 1] = scale * ((alpha + mu) / (lam + beta))
    return r


def first_passage(a0: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Minimal solution G of G = A2 + A1 G + A0 G^2 by logarithmic reduction
    (Latouche & Ramaswami, J. Appl. Prob. 30, 1993).

    A0, A1, A2 are the up, local and down blocks of a level-homogeneous QBD;
    G[i, j] is the probability of first entering the level below in phase j
    from phase i.  Blocks of shape (..., n, n) are a stack of QBDs, solved by
    the same doublings until the last step is small for all of them.  Raises
    ArithmeticError (see `_require`) unless every residual is at most 1e-12
    and every row sum at most 1 + 1e-8.
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
    top = g.sum(axis=-1).max(axis=-1)
    _require([((residual <= _FIRST_PASSAGE_RESIDUAL) & (top <= 1.0 + _FIRST_PASSAGE_ROW_EXCESS),
               "first-passage matrix{where} fails: residual {:.3g} (bound {:g}), max row sum "
               "{!r} (must be <= 1 + {:g})", residual, _FIRST_PASSAGE_RESIDUAL, top,
               _FIRST_PASSAGE_ROW_EXCESS)], ArithmeticError)
    return g


def rate_matrix(a0: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Minimal solution R of R = A0 + R A1 + R^2 A2, as A0 (I - A1 - A0 G)^-1
    with G from `first_passage` (Latouche & Ramaswami, 1999), of a stack too."""
    g = first_passage(a0, a1, a2)
    return a0 @ np.linalg.inv(np.eye(a1.shape[-1]) - a1 - a0 @ g)


def neuts_stability(a0: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> bool | np.ndarray:
    """Positive recurrence by the mean-drift test on the level generator
    A0 + A1 + A2 of the 2x2 interior (up, local, down) blocks, one verdict
    per set on a stack's blocks of shape (..., 2, 2) (`level_blocks`)."""
    gen = a0 + a1 + a2
    up_rate, down_rate = gen[..., 0, 1], gen[..., 1, 0]
    rho = np.stack([down_rate, up_rate], axis=-1) / (up_rate + down_rate)[..., None]
    return (rho * a0.sum(axis=-1)).sum(axis=-1) < (rho * a2.sum(axis=-1)).sum(axis=-1)


def boundary_vector(params: ModelParams) -> np.ndarray:
    """Stationary probabilities of level 0, (pi(0,U), pi(0,D)), of shape (..., 2) on a stack."""
    return _pi0(_model1_roots(params, "the boundary vector"))[0]


def _model1_roots(params: ModelParams, what: str) -> SpectralSolution:
    """InvalidParameters naming `what` off Model 1, else the roots the boundary's gate admits."""
    if params.model is not Model.MODEL1:
        raise InvalidParameters(f"{what} needs a Model 1 parameter set")
    return _stable_roots(params, what)


def _boundary(roots: SpectralSolution) -> tuple:
    """`boundary_vector`, the closed-form R and (I - R)^-1 1 from a Model 1 set's `roots`: I - R's
    adjugate maps 1 to (beta/(lambda + beta), 1), so (I - R)^-1 1 is that over det (`_pi0`)."""
    params = roots.params
    pi0, det = _pi0(roots)
    mass = np.empty_like(pi0)
    mass[..., UP], mass[..., DOWN] = params.beta / (params.lam + params.beta), 1.0
    return pi0, rate_matrix_closed_form(params), mass / det[..., None]


def _pi0(roots: SpectralSolution) -> tuple[np.ndarray, np.ndarray]:
    """Level 0's law pi0 and det = det(I - R) = (1 - gamma_1)(1 - gamma_2), with no solve.
    Level 0's Down balance, pi(0, D)(lambda + beta) = alpha pi(0, U), and pi0 (I - R)^-1 1 = 1
    give pi0 = (lambda + beta, alpha) det / (alpha + beta) (Neuts, 1981).  No margin cancels:
    1 - gamma_1 = (t2 - 1)/t2, t2 - 1 the roots' margin (`t2_minus_1`), and
    1 - gamma_2 = (t1 - 1)/t1 = (D + sqrt(s))/(2 lambda t1), D = (mu - lambda) + alpha + beta."""
    params, sqrt_s = roots.params, roots.sqrt_s
    lam, mu, alpha, beta = params.lam, params.mu, params.alpha, params.beta
    det = roots.t2_minus_1 / roots.t2 * ((mu - lam + alpha + beta + sqrt_s)
                                         / (lam + beta + mu + alpha + sqrt_s))
    pi0 = np.empty(np.shape(lam) + (2,))
    pi0[..., UP], pi0[..., DOWN] = lam + beta, alpha
    return pi0 * (det / (alpha + beta))[..., None], det


def _model1_levels(params: ModelParams, k_max: int) -> tuple[np.ndarray, float | np.ndarray]:
    """Levels pi0 R^k for k <= k_max + 1, one shell past k_max, (..., k_max + 2, 2) on a
    stack, and the mass beyond level k_max: level k_max + 1's sum plus the mass beyond it."""
    pi0, r, mass = _boundary(_model1_roots(params, "the boundary vector"))
    levels = np.empty(pi0.shape[:-1] + (k_max + 2, 2))
    levels[..., 0, :] = pi0
    for k in range(k_max + 1):
        np.matmul(levels[..., k, None, :], r, out=levels[..., k + 1, None, :])
    beyond = np.vecdot(np.matmul(levels[..., -1, None, :], r)[..., 0, :], mass)
    return levels, beyond + levels[..., -1, :].sum(axis=-1)


def exact_stationary_model1(params: ModelParams, k_max: int) -> StationaryTable:
    """Matrix-geometric stationary table pi(k, sigma) = pi0 R^k for k <= k_max
    (k_max >= 0), cut by `_closed_form_table` from levels 0..k_max + 1."""
    if k_max < 0:
        raise InvalidParameters(f"k_max must be >= 0, got {k_max}")
    return _closed_form_table(params, *_model1_levels(params, k_max), 0.0)


def _lattice_shape(model: Model, x_max: int, y_max: int | None) -> tuple:
    """Array shape of the lattice x <= x_max (y <= y_max) by sigma; a state's
    index is its C-order position.  Raises InvalidParameters on an empty side."""
    sides = {"x_max": x_max} if model is Model.MODEL1 else {"x_max": x_max, "y_max": y_max}
    if any(n is None or n < 1 for n in sides.values()):
        raise InvalidParameters(f"the lattice needs {' and '.join(f'{k} >= 1' for k in sides)}, "
                                f"got {', '.join(f'{k}={n}' for k, n in sides.items())}")
    return (*(n + 1 for n in sides.values()), 2)


def _lattice_moves(params: ModelParams, shape: tuple) -> dict:
    """The chain cut to the lattice `shape` by its diagonals, {offset: q} by
    increasing offset: the state of flat C-order index i moves to index
    i + offset with probability q[i], 0 where its class row (`kernels._fold`)
    lacks the move.  P^T holds q on its diagonal -offset, unshifted, as
    scipy's DIA layout stores it (`truncated_stationary`).

    A move whose target leaves the lattice (reflecting cut) adds into the
    stay, offset 0, in the row's sorted step order, and is left 0 at its
    source under its own offset, so a shift by an offset never wraps.  Such
    a move writes nothing there: at y_max = 1 a phase's (0, +1) and (+1, -1)
    moves share an offset, and the first's wrapped target is where the
    second lands from the same state.
    """
    strides = [math.prod(shape[k + 1:]) for k in range(len(shape))]   # C order
    moves = defaultdict(lambda: np.zeros(shape))
    table = _moves(params)
    for origin in (*_origins(params.model, 0), *_origins(params.model, 1)):
        sigma = origin[-1]
        members = [slice(c, None if c else 1) for c in origin[:-1]]
        for step, prob in _fold(table, origin):
            inside = list(members)
            offset = sum(s * d for s, d in zip(strides, step))
            # a move steps up in at most one of x and y; from that coordinate's
            # far edge, which only the class at 1 holds, it folds into the stay
            for k, d in enumerate(step[:-1]):
                if d > 0 and origin[k]:
                    inside[k] = slice(1, -1)
                    moves[0][(*members[:k], -1, *members[k + 1:], sigma)] += prob
            if offset:   # a state has one move per offset, so it is set, not added
                moves[offset][(*inside, sigma)] = prob
            else:   # the self-move adds to the folds of steps sorted before it
                moves[0][(*inside, sigma)] += prob
    return {offset: moves[offset].ravel() for offset in sorted(moves)}


def _lattice_inflow(moves: dict, pi: np.ndarray) -> np.ndarray:
    """pi P, without building P; `moves` are P's diagonals on the lattice
    pi.shape (`_lattice_moves`), in increasing offset.

    Each diagonal adds pi q, shifted by its offset, into the flattened
    inflow.  Diagonals are added by decreasing offset, so each target adds
    its sources in increasing index, as a sparse mat-vec with P does: the
    sums are bit-identical.
    """
    flat, n = pi.ravel(), pi.size
    inflow = np.zeros(n)
    for offset, q in reversed(moves.items()):
        src = slice(max(0, -offset), n - max(0, offset))
        inflow[src.start + offset:src.stop + offset] += flat[src] * q[src]
    return inflow.reshape(pi.shape)


def _closed_form_table(params: ModelParams, pi: np.ndarray, x_tail: float,
                       y_tail: float) -> StationaryTable:
    """The table of a closed-form law `pi` given on a box one shell wider than
    its window in x (and y), cut to the window.  x and y are independent, so
    the mass outside the window is 1 - (1 - x_tail)(1 - y_tail), from the
    marginal masses beyond x_max and y_max (y_tail = 0 on an (x, sigma) box);
    it is summed as x_tail + y_tail - x_tail y_tail, so that a mass below
    1e-16 does not round to 0.

    The residual is the global balance of the closed form against the actual
    kernel, max |pi P - pi| on the window, with P the kernel on the wider box,
    so that inflow sources one step outside the window are evaluated in closed
    form too.  The inflow pi P is summed from shifted slices of pi by
    `_lattice_inflow`; no matrix is built and scipy is not loaded.
    """
    inflow = _lattice_inflow(_lattice_moves(params, pi.shape), pi)
    window = (slice(-1),) * (pi.ndim - 1)
    residual = float(np.max(np.abs(inflow[window] - pi[window])))
    return StationaryTable(pi=pi[window], residual=residual,
                           tail_mass_bound=x_tail + y_tail - x_tail * y_tail)


def truncated_stationary(params: ModelParams, model: Model | None = None, *,
                         x_max: int, y_max: int | None = None,
                         tail_error: float = _TAIL_ERROR) -> StationaryTable:
    """Stationary law of the chain truncated to the lattice, by sparse solve.

    Probability leaving the lattice is folded back into the diagonal
    (reflecting cut), which keeps rows stochastic and converges to the true
    law as the cut grows.  The solve is SuperLU on P^T - I with row 0 set to
    ones.  P's diagonals (`_lattice_moves`) are built once and are the
    chain's one form: scipy's DIA layout reads them as P^T's, with 1 taken
    off the stay.  Before the solve they refuse, with ArithmeticError by
    name, a state whose self-loop is exactly 1, and then a lattice where
    every state with coordinate moves (every offset but 0 and the phase
    moves +-1) loses them, summed, against its stay (stay + outflow == stay
    in floats): no state then leaves its (x, y) in floats, and the system is
    singular.  A lattice where only some states lose them is solved, as
    light loads need (the arrival lost at (0, 0, sigma)).  After the solve
    the diagonals give the balance residual (`_lattice_inflow`).  A solve
    that is not finite raises ArithmeticError by name.
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
    moves = _lattice_moves(params, shape)
    stuck = np.flatnonzero(moves[0] == 1.0)
    if stuck.size:   # 1 minus its exit mass rounds to 1, so P^T - I loses that outflow
        i, state = stuck[0], tuple(map(int, np.unravel_index(stuck[0], shape)))
        exit_mass = sum(float(q[i]) for offset, q in moves.items() if offset)
        raise ArithmeticError(f"lattice state {state} keeps a self-loop of exactly 1: its exit "
                              f"mass {exit_mass:.3g} (its other moves, summed) is lost against 1 "
                              f"at C = {float(params.C)!r}")
    stay = moves[0]
    outflow = sum(q for offset, q in moves.items() if abs(offset) > 1)
    lost = np.flatnonzero((outflow > 0.0) & (stay + outflow == stay))
    if lost.size and lost.size == np.count_nonzero(outflow):   # no state moves x or y in floats
        i, state = lost[0], tuple(map(int, np.unravel_index(lost[0], shape)))
        raise ArithmeticError(f"every lattice state with coordinate moves loses them against its "
                              f"stay; at {state}: outflow {outflow[i]:.3g} + stay "
                              f"{float(stay[i])!r} rounds to the stay at C = {float(params.C)!r}")
    n = stay.size
    diagonals = [q - 1.0 if offset == 0 else q for offset, q in moves.items()]
    pt_minus_i = sp.dia_matrix((diagonals, [-offset for offset in moves]), shape=(n, n))
    a = sp.vstack([np.ones((1, n)), pt_minus_i.tocsr()[1:]], format="csc")
    b = np.zeros(n)
    b[0] = 1.0
    with warnings.catch_warnings():   # a singular system is refused below, by name
        warnings.simplefilter("ignore", spla.MatrixRankWarning)
        pi = spla.spsolve(a, b)
    if not np.isfinite(pi).all():
        raise ArithmeticError("truncated solve produced non-finite probabilities: the lattice's "
                              f"linear system is singular in floats at C = {float(params.C)!r}")
    if not np.min(pi) >= -1e-10:   # fails on NaN, as the tail gate below does
        raise ArithmeticError("truncated solve produced negative probabilities")
    pi = np.clip(pi, 0.0, None).reshape(shape)
    pi /= pi.sum()
    residual = float(np.max(np.abs(_lattice_inflow(moves, pi) - pi)))
    tail = _tail_mass_estimate(pi)
    if not tail <= tail_error:
        raise TruncationError(
            f"estimated tail mass {tail:.3g} exceeds {tail_error}; enlarge the lattice")
    return StationaryTable(pi=pi, residual=residual, tail_mass_bound=tail)


def _tail_mass_estimate(pi: np.ndarray) -> float:
    """Geometric extrapolation of the mass beyond the cut from pi's last x and y shells."""
    tail = 0.0
    for axis in range(pi.ndim - 1):
        last, prev = (float(np.take(pi, k, axis=axis).sum()) for k in (-1, -2))
        if last > 0.0:
            ratio = min(last / prev, 0.99) if prev > 0 else 0.5
            tail += last * ratio / (1.0 - ratio)
    return tail


def stationary_table(params: ModelParams, x_max: int, y_max: int | None = None) -> StationaryTable:
    """Stationary law of the set's chain on x <= x_max (y <= y_max; Model 1
    does not read y_max), by the chain's own method:

    - Model 1: the matrix-geometric table pi0 R^x (`exact_stationary_model1`);
    - RS-RD: the product form (1 - r)^2 r^(x+y) share(sigma), r = lambda/(mu p);
    - the tandem with p = 1: (1 - r) r^y pi_1(x, sigma), r = lambda/mu and
      pi_1 Model 1's law at the same rates.  Station 2 (y) is an M/M/1 queue
      that nothing downstream touches, and by Burke's theorem (Oper. Res. 4,
      1956) its past departures, station 1's arrivals, are independent of its
      present length; this is not a claim of the paper;
    - the feedback tandem (p < 1): the truncated lattice (`truncated_stationary`).

    `_closed_form_table` cuts the product forms and checks their global
    balance against the chain's own kernel.  Raises InvalidParameters on an
    empty side (`_lattice_shape`), then UnstableParameters off the chain's
    stability condition, before any solve.
    """
    _lattice_shape(params.model, x_max, y_max)
    _require_stable(params, "the stationary table")
    lam, mu, alpha, beta, p = params.lam, params.mu, params.alpha, params.beta, params.p
    if params.model is Model.MODEL1:
        return exact_stationary_model1(params, x_max)
    if params.model is Model.MODEL2 and p != 1.0:
        return truncated_stationary(params, x_max=x_max, y_max=y_max)
    if params.model is Model.RSRD:
        r = lam / (mu * p)
        share = np.array([beta / (alpha + beta), alpha / (alpha + beta)])  # by sigma
        powers = np.array([r ** k for k in range(x_max + y_max + 3)])
        x, y = np.ogrid[:x_max + 2, :y_max + 2]
        pi = (1.0 - r) ** 2 * powers[x + y][..., None] * share
        return _closed_form_table(params, pi, r ** (x_max + 1), r ** (y_max + 1))
    station1, beyond_x = _model1_levels(make_params(lam, mu, alpha, beta), x_max)
    r = lam / mu
    powers = np.array([r ** k for k in range(y_max + 2)])
    pi = (1.0 - r) * powers[None, :, None] * station1[:, None, :]
    return _closed_form_table(params, pi, beyond_x, r ** (y_max + 1))
