"""Named invariant checks tying the analytic layers together.

Each check returns a CheckResult.  run_checks and the tests call the same
checks over randomized parameter grids and the two reference parameter sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import (_escape, _escape_first_passage, _two_term, prefactors,
                          tail_constants)
from .kernels import _fold, _moves, _origins, _row, level_blocks
from .params import DOWN, UP, InvalidParameters, Model, ModelParams, elementwise, make_params
from .qbd import (_boundary, neuts_stability, rate_matrix, rate_matrix_closed_form,
                  stationary_table)
from .spectral import characteristic_roots, feynman_kac, stability
from .twist import _twist, harmonic, twist_summary

PARAMS_A = make_params(10.0, 11.0, 0.1, 10.0)
PARAMS_B = make_params(20.0, 60.0, 0.01, 1.0)
_RATES = ("lam", "mu", "alpha", "beta")
_REFERENCE = make_params(*(np.r_[getattr(PARAMS_A, r), getattr(PARAMS_B, r)] for r in _RATES))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# random_params' uniforms as (low, high) rows, indexed by stable: mu, log alpha,
# beta and lambda over the stability bound, over it if unstable and under it if stable
_UNIFORMS = np.array([[(1.0, 50.0), (math.log(1e-3), math.log(2.0)), (0.5, 30.0), load]
                      for load in ((1.05, 3.0), (0.1, 0.9))]).transpose(0, 2, 1)
_CHUNK = 1024   # sets per stack, so a grid check's memory does not grow with the grid


def _sets(u, p=1.0, stable=True, model: Model = Model.MODEL1) -> ModelParams:
    """The set random_params draws from four uniforms u, or from an (n, 4)
    array the stack of n sets, where p and stable may hold one value per set."""
    low, high = _UNIFORMS[np.asarray(stable, np.intp)].swapaxes(0, -2)
    rates = low + (high - low) * u
    mu, log_alpha, beta, load = rates.T
    alpha = elementwise(math.exp, log_alpha)
    bound = beta / (alpha + beta) * mu * p
    return make_params(bound * load, mu, alpha, beta, p=p, model=model)


def random_params(rng: np.random.Generator, p: float = 1.0,
                  stable: bool = True, model: Model = Model.MODEL1) -> ModelParams:
    """Random parameter set; when stable, lambda is drawn under the threshold."""
    # Generator.uniform(low, high) is low + (high - low) * random(), so one
    # random(4) draws the same four numbers as four uniform calls
    return _sets(rng.random(4), p, stable, model)


def _grid(rng: np.random.Generator, grid: int, labels):
    """Stacks of `grid` sets, _CHUNK at a time: set i is row i of rng.random((grid, 5)),
    a lead uniform u, then the four uniforms `_sets` maps.  labels(i, u) gives the tandem
    flags, p and stable flags (arrays, or one value for all) of sets i.  A chunk yields
    its Model 1 sets, then its tandem sets."""
    for start in range(0, grid, _CHUNK):
        i = np.arange(start, min(start + _CHUNK, grid))
        draws = rng.random((len(i), 5))
        tandem, p, stable, _ = np.broadcast_arrays(*labels(i, draws[:, 0]), i)
        for model, rows in ((Model.MODEL1, ~tandem), (Model.MODEL2, tandem)):
            if rows.any():
                yield _sets(draws[rows, 1:], p[rows], stable[rows], model)


def _reference_led(grid: int, seed: int):
    """Stacks of `grid` stable Model 1 sets from `_grid`, with A and B leading the first."""
    stacks = _grid(np.random.default_rng(seed), grid, lambda i, u: (False, 1.0, True))
    for k, params in enumerate(stacks):
        yield params if k else make_params(*(np.r_[getattr(_REFERENCE, r), getattr(params, r)]
                                             for r in _RATES))


def _worst(worst: float, gaps) -> float:
    """The largest of worst and the |gaps|; a NaN gap makes it NaN, which
    fails every bound."""
    return float(np.max(np.abs(gaps), initial=worst))


def _free_rows(grid: int, seed: int):
    """(h, interior moves, state) at every free class state (x = 0) of `grid`
    stable sets, which cycle Model 1, tandem p = 1, Model 1, tandem p = 0.5."""
    rng = np.random.default_rng(seed)
    for params in _grid(rng, grid,
                        lambda i, u: (i % 2 == 1, np.where(i % 4 == 3, 0.5, 1.0), True)):
        h, moves = harmonic(params), _moves(params)
        for origin in _origins(params.model, 0):   # free rows are shift invariant
            yield h, moves, origin


def check_rows_stochastic(grid: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    # Model 1 and the tandem alternate, a tandem set takes p = 0.3 + 0.7 u
    # (Generator.uniform(0.3, 1.0)'s formula), and one set in five is unstable
    for params in _grid(rng, grid, lambda i, u: (i % 2 == 1, np.where(i % 2, 0.3 + 0.7 * u, 1.0),
                                                  i % 5 != 4)):
        model, moves = params.model, _moves(params)   # one table per stack
        rows = [*(_row(moves, origin) for x0 in (0, 1) for origin in _origins(model, x0)),
                *(_row(moves, origin, free=True) for origin in _origins(model, 0))]
        worst = _worst(worst, [row.total() - 1.0 for row in rows])
    return CheckResult("kernel-rows-stochastic", worst <= 1e-12,
                       f"max |row sum - 1| = {worst:.3g}")


def check_harmonicity(grid: int, seed: int) -> CheckResult:
    worst = 0.0
    for h, moves, state in _free_rows(grid, seed):
        row = _row(moves, state, free=True)
        lhs = sum(prob * h.value(t) for t, prob in row.targets)
        worst = _worst(worst, lhs / h.value(row.origin) - 1.0)
    return CheckResult("free-kernel-harmonicity", worst <= 1e-11,
                       f"max relative residual = {worst:.3g}")


def check_twisted_rows(grid: int, seed: int) -> CheckResult:
    worst = 0.0
    for h, moves, state in _free_rows(grid, seed):
        twisted = _fold(moves, (1, *state[1:]), h=h)   # the free row's class, as stages read it
        worst = _worst(worst, sum(prob for _, prob in twisted) - 1.0)
    return CheckResult("twisted-rows-stochastic", worst <= 1e-10,
                       f"max |row sum - 1| = {worst:.3g}")


def check_spectral_roots(grid: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    # Model 1 where u >= 0.5, else the tandem with p = 0.5
    for params in _grid(rng, grid, lambda i, u: (u < 0.5, np.where(u < 0.5, 0.5, 1.0), True)):
        sol = characteristic_roots(params)
        lam, mup = params.lam, params.mu * params.p
        for t in (sol.t1, sol.t2):
            q = lam * lam * t * t - lam * (mup + lam + params.alpha + params.beta) * t \
                + mup * (lam + params.beta)
            worst = _worst(worst, q / (mup * (lam + params.beta)))
    return CheckResult("characteristic-roots", worst <= 1e-12,
                       f"max scaled polynomial residual = {worst:.3g}")


def check_perron_root(grid: int, seed: int) -> CheckResult:
    worst = 0.0
    for params in _grid(np.random.default_rng(seed), grid, lambda i, u: (False, 1.0, True)):
        theta = elementwise(math.log, characteristic_roots(params).t2)
        worst = _worst(worst, feynman_kac(params, theta)[1] - 1.0)
    return CheckResult("tilted-perron-root-one", worst <= 1e-11,
                       f"max |perron(log t2) - 1| = {worst:.3g}")


def check_rate_matrix() -> CheckResult:
    r_closed = rate_matrix_closed_form(_REFERENCE)
    sol = characteristic_roots(_REFERENCE)
    worst_r = _worst(0.0, r_closed - rate_matrix(*level_blocks(_REFERENCE)))
    worst_eig = _worst(0.0, np.sort(np.linalg.eigvals(r_closed))
                       - np.c_[sol.gamma_secondary, sol.gamma_p])
    return CheckResult("rate-matrix-consistency", _worst(worst_r, worst_eig) <= 1e-12,
                       f"max entry gap = {worst_r:.3g}, max eigen gap = {worst_eig:.3g}")


def check_stability_equivalence(grid: int, seed: int) -> CheckResult:
    # grid Model 1 sets, then grid tandem sets with p = 0.5, where Neuts' test is not
    # run; it reads only the interior blocks
    rng = np.random.default_rng(seed)
    bad = 0
    for tandem, p in ((False, 1.0), (True, 0.5)):
        for params in _grid(rng, grid, lambda i, u: (tandem, p, u < 0.5)):
            closed = stability(params).stable
            neuts = closed if tandem else neuts_stability(*level_blocks(params))
            roots = characteristic_roots(params).gamma_p < 1.0
            bad += int(np.sum(~((closed == neuts) & (neuts == roots))))
    return CheckResult("stability-equivalences", bad == 0,
                       f"{bad} of {2 * grid} grid points disagree")


def check_drift(grid: int, seed: int) -> CheckResult:
    # Model 1 where u < 0.5, else the tandem with p = 1
    failures = 0
    for params in _grid(np.random.default_rng(seed), grid, lambda i, u: (u >= 0.5, 1.0, True)):
        _, disagree, nonpositive = _twist(params)
        failures += int(np.sum(disagree | nonpositive))
    return CheckResult("twisted-drift-positive", failures == 0,
                       f"{failures} of {grid} stable sets failed the drift contract")


def check_tail_reproduction() -> CheckResult:
    asym = prefactors(_REFERENCE)
    tail = np.c_[asym.prefactor_up, asym.prefactor_down] * asym.gamma[:, None] ** 200
    pi0, r, _ = _boundary(asym.roots)
    worst = _worst(0.0, (pi0[:, None] @ np.linalg.matrix_power(r, 200))[:, 0] / tail - 1.0)
    return CheckResult("closed-prefactor-tail", worst <= 1e-3,
                       f"max |pi/(C gamma^k) - 1| at k=200: {worst:.3g}")


def check_exact_coefficient(grid: int, seed: int) -> CheckResult:
    # pi(k) = pi0 R^k = w2 gamma_1^k + w3 gamma_2^k, and the theorem says the exact gamma_1^k
    # coefficient w2 (`_two_term`, from R's spectral projector) is C(sigma).  A and B lead
    # the first stack.
    worst = 0.0
    for params in _reference_led(grid, seed):
        asym = tail_constants(twist_summary(params))
        exact, _ = _two_term(asym.roots)
        worst = _worst(worst, np.c_[asym.prefactor_up, asym.prefactor_down] / exact - 1.0)
    return CheckResult("prefactor-exact-coefficient", worst <= 1e-12,
                       f"max |C / c - 1| = {worst:.3g}, c the exact gamma_1^k coefficient "
                       "of pi0 R^k")


def check_eta_bounds() -> CheckResult:
    asym = prefactors(_REFERENCE)
    pi0 = _boundary(asym.roots)[0]
    upper = pi0[:, UP] + pi0[:, DOWN] * asym.twist.harmonic.down_weight
    ok = ((0.0 < asym.eta) & (asym.eta <= upper) & (0.0 < asym.escape_up) & (asym.escape_up < 1.0)
          & (0.0 < asym.escape_down) & (asym.escape_down < 1.0)).all()
    return CheckResult("eta-in-range", bool(ok), "; ".join(
        f"eta={eta:.6g} in (0,{bound:.6g}]" for eta, bound in zip(asym.eta, upper)))


def check_escape_closed_form(grid: int, seed: int) -> CheckResult:
    # A and B lead the first stack; each stack's twisted blocks are solved by one
    # logarithmic reduction
    worst = 0.0
    for params in _reference_led(grid, seed):
        twist = twist_summary(params)
        esc = _escape(twist)
        worst = _worst(worst, _escape_first_passage(*twist.blocks) - np.c_[esc.up, esc.down])
    return CheckResult("escape-closed-form", worst <= 1e-10,
                       f"max |closed form - logarithmic reduction| = {worst:.3g}")


def check_summability_gate(grid: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    bad = 0
    # the tandem, with p = 0.5 where u < 0.5, else p = 1
    for params in _grid(rng, grid, lambda i, u: (True, np.where(u < 0.5, 0.5, 1.0), True)):
        gamma_p = characteristic_roots(params).gamma_p
        bad += int(np.sum(~(params.lam / (params.mu * params.p) < gamma_p)))
    return CheckResult("product-form-summability", bad == 0,
                       f"{bad} of {grid} stable sets violate lambda/(mu p) < gamma_p")


def check_rs_rd_balance() -> CheckResult:
    params = make_params(10.0, 30.0, 0.1, 10.0, p=0.5, model=Model.RSRD)
    table = stationary_table(params, x_max=25, y_max=25)
    return CheckResult("rs-rd-global-balance", table.residual <= 1e-9,
                       f"max balance residual = {table.residual:.3g}")


def run_checks(grid: int = 200, seed: int = 7) -> list[CheckResult]:
    """Run the suite over `grid` random draws per grid check (grid >= 1, seed >= 0)."""
    if grid < 1:
        raise InvalidParameters(f"grid must be >= 1, got {grid}")
    if seed < 0:
        raise InvalidParameters(f"seed must be >= 0, got {seed}")
    small = max(20, grid // 4)
    return [
        check_rows_stochastic(small, seed),
        check_harmonicity(grid, seed + 1),
        check_twisted_rows(small, seed + 2),
        check_spectral_roots(grid, seed + 3),
        check_perron_root(small, seed + 4),
        check_rate_matrix(),
        check_stability_equivalence(grid, seed + 5),
        check_drift(small, seed + 6),
        check_tail_reproduction(),
        check_exact_coefficient(small, seed + 9),
        check_eta_bounds(),
        check_escape_closed_form(small, seed + 8),
        check_summability_gate(grid, seed + 7),
        check_rs_rd_balance(),
    ]
