"""Named invariant checks tying the analytic layers together.

Each check returns a CheckResult.  run_checks and the tests call the same
checks over randomized parameter grids and the two reference parameter sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import _escape, escape_probabilities, eta, prefactors, rs_rd_stationary
from .kernels import free_kernel, row_classes
from .params import DOWN, UP, InvalidParameters, Model, ModelParams, make_params
from .qbd import (boundary_vector, exact_stationary_model1, first_passage, level_blocks,
                  neuts_stability, qbd_blocks, rate_matrix, rate_matrix_closed_form)
from .spectral import characteristic_roots, feynman_kac, stability
from .twist import harmonic, twist_row, twist_summary

PARAMS_A = make_params(10.0, 11.0, 0.1, 10.0)
PARAMS_B = make_params(20.0, 60.0, 0.01, 1.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# random_params' uniforms as (low, high): mu, log alpha, beta and lambda over the
# stability bound, under it for a stable set and over it otherwise
_UNIFORMS = {stable: np.array([(1.0, 50.0), (math.log(1e-3), math.log(2.0)), (0.5, 30.0),
                               load]).T
             for stable, load in ((True, (0.1, 0.9)), (False, (1.05, 3.0)))}


def random_params(rng: np.random.Generator, p: float = 1.0,
                  stable: bool = True, model: Model = Model.MODEL1) -> ModelParams:
    """Random parameter set; when stable, lambda is drawn under the threshold."""
    # Generator.uniform(low, high) is low + (high - low) * random(), so one
    # random(4) draws the same four numbers as four uniform calls
    low, high = _UNIFORMS[stable]
    mu, log_alpha, beta, load = (low + (high - low) * rng.random(4)).tolist()
    alpha = math.exp(log_alpha)
    bound = beta / (alpha + beta) * mu * p
    return make_params(bound * load, mu, alpha, beta, p=p, model=model)


# free-chain class origins: free rows are shift invariant in x and, above y = 0, in y
_FREE_ORIGINS = {Model.MODEL1: [(0, UP), (0, DOWN)],
                 Model.MODEL2: [(0, y, sigma) for y in (0, 1) for sigma in (UP, DOWN)]}


def _free_rows(grid: int, seed: int):
    """(h, free row) at every class origin of `grid` stable sets, which cycle
    Model 1, tandem p = 1, Model 1, tandem p = 0.5."""
    rng = np.random.default_rng(seed)
    for i in range(grid):
        params = random_params(rng, p=0.5 if i % 4 == 3 else 1.0,
                               model=Model.MODEL1 if i % 2 == 0 else Model.MODEL2)
        h = harmonic(params)
        for state in _FREE_ORIGINS[params.model]:
            yield h, free_kernel(params, state)


def check_rows_stochastic(grid: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(grid):
        # Model 1 and the tandem alternate, and one draw in five is unstable
        model = Model.MODEL1 if i % 2 == 0 else Model.MODEL2
        p = 1.0 if model is Model.MODEL1 else rng.uniform(0.3, 1.0)
        params = random_params(rng, p=p, stable=i % 5 != 4, model=model)
        rows = [*row_classes(params).values(),
                *(free_kernel(params, state) for state in _FREE_ORIGINS[model])]
        worst = max(worst, *(abs(row.total() - 1.0) for row in rows))
    return CheckResult("kernel-rows-stochastic", worst <= 1e-12,
                       f"max |row sum - 1| = {worst:.3g}")


def check_harmonicity(grid: int, seed: int) -> CheckResult:
    worst = 0.0
    for h, row in _free_rows(grid, seed):
        lhs = sum(prob * h.value(t) for t, prob in row.targets)
        worst = max(worst, abs(lhs / h.value(row.origin) - 1.0))
    return CheckResult("free-kernel-harmonicity", worst <= 1e-11,
                       f"max relative residual = {worst:.3g}")


def check_twisted_rows(grid: int, seed: int) -> CheckResult:
    worst = 0.0
    for h, row in _free_rows(grid, seed):
        worst = max(worst, abs(twist_row(row, h).total() - 1.0))
    return CheckResult("twisted-rows-stochastic", worst <= 1e-10,
                       f"max |row sum - 1| = {worst:.3g}")


# rng.integers(2) takes the same bits as rng.choice(_P_CHOICES), and is cheaper
_P_CHOICES = (0.5, 1.0)


def check_spectral_roots(grid: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(grid):
        p = _P_CHOICES[rng.integers(2)]
        params = random_params(rng, p=p,
                               model=Model.MODEL1 if p == 1.0 else Model.MODEL2)
        sol = characteristic_roots(params)
        lam, mup = params.lam, params.mu * params.p
        for t in (sol.t1, sol.t2):
            q = lam * lam * t * t - lam * (mup + lam + params.alpha + params.beta) * t \
                + mup * (lam + params.beta)
            worst = max(worst, abs(q) / (mup * (lam + params.beta)))
    return CheckResult("characteristic-roots", worst <= 1e-12,
                       f"max scaled polynomial residual = {worst:.3g}")


def check_perron_root(grid: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(grid):
        params = random_params(rng)
        sol = characteristic_roots(params)
        _, perron = feynman_kac(params, math.log(sol.t2))
        worst = max(worst, abs(perron - 1.0))
    return CheckResult("tilted-perron-root-one", worst <= 1e-11,
                       f"max |perron(log t2) - 1| = {worst:.3g}")


def check_rate_matrix() -> CheckResult:
    worst_r = worst_eig = 0.0
    for params in (PARAMS_A, PARAMS_B):
        blocks = qbd_blocks(params)
        r_closed = rate_matrix_closed_form(params)
        r_solved = rate_matrix(blocks.p0, blocks.p1, blocks.p2)
        worst_r = max(worst_r, float(np.max(np.abs(r_closed - r_solved))))
        sol = characteristic_roots(params)
        eig_gap = np.sort(np.linalg.eigvals(r_closed)) - (sol.gamma_secondary, sol.gamma_p)
        worst_eig = max(worst_eig, float(np.max(np.abs(eig_gap))))
    return CheckResult("rate-matrix-consistency", max(worst_r, worst_eig) <= 1e-12,
                       f"max entry gap = {worst_r:.3g}, max eigen gap = {worst_eig:.3g}")


def check_stability_equivalence(grid: int, seed: int) -> CheckResult:
    # grid Model 1 sets, then grid tandem sets with p = 0.5, where Neuts' test is not
    # run; it reads only the interior blocks, which the free rows lay out
    rng = np.random.default_rng(seed)
    bad = 0
    for model, p in ((Model.MODEL1, 1.0), (Model.MODEL2, 0.5)):
        for _ in range(grid):
            params = random_params(rng, p=p, stable=bool(rng.random() < 0.5), model=model)
            closed = stability(params).stable
            neuts = closed if model is not Model.MODEL1 else neuts_stability(
                *level_blocks([free_kernel(params, state) for state in _FREE_ORIGINS[model]]))
            if not (closed == neuts == (characteristic_roots(params).gamma_p < 1.0)):
                bad += 1
    return CheckResult("stability-equivalences", bad == 0,
                       f"{bad} of {2 * grid} grid points disagree")


def check_drift(grid: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(grid):
        model = Model.MODEL1 if rng.random() < 0.5 else Model.MODEL2
        params = random_params(rng, model=model)
        try:
            drift = twist_summary(params).drift
            if drift.value <= 0.0:
                failures += 1
        except ArithmeticError:
            failures += 1
    return CheckResult("twisted-drift-positive", failures == 0,
                       f"{failures} of {grid} stable sets failed the drift contract")


def check_tail_reproduction() -> CheckResult:
    worst = 0.0
    for params in (PARAMS_A, PARAMS_B):
        asym = prefactors(params)
        table = exact_stationary_model1(params, k_max=200)
        tail = np.array([asym.prefactor_up, asym.prefactor_down]) * asym.gamma ** 200
        worst = max(worst, float(np.max(np.abs(table.pi[200] / tail - 1.0))))
    return CheckResult("closed-prefactor-tail", worst <= 1e-3,
                       f"max |pi/(C gamma^k) - 1| at k=200: {worst:.3g}")


def check_eta_bounds() -> CheckResult:
    ok = True
    details = []
    for params in (PARAMS_A, PARAMS_B):
        est = eta(params)
        esc = escape_probabilities(params)
        h = harmonic(params)
        pi0 = boundary_vector(params)
        upper = pi0[UP] + pi0[DOWN] * h.value((0, DOWN))
        ok = ok and 0.0 < est.value <= upper and 0.0 < esc.up < 1.0 and 0.0 < esc.down < 1.0
        details.append(f"eta={est.value:.6g} in (0,{upper:.6g}]")
    return CheckResult("eta-in-range", ok, "; ".join(details))


def check_escape_closed_form(grid: int, seed: int) -> CheckResult:
    # every set's twisted blocks in one stack, solved by one logarithmic reduction
    rng = np.random.default_rng(seed)
    twists = [twist_summary(params)
              for params in [PARAMS_A, PARAMS_B] + [random_params(rng) for _ in range(grid)]]
    escapes, blocks = zip(*map(_escape, twists))
    closed = np.array([(esc.up, esc.down) for esc in escapes])
    a0, a1, a2 = map(np.stack, zip(*blocks))
    solved = (a0 @ (1.0 - first_passage(a0, a1, a2).sum(axis=-1))[..., None])[..., 0]
    worst = float(np.max(np.abs(solved - closed)))
    return CheckResult("escape-closed-form", worst <= 1e-10,
                       f"max |closed form - logarithmic reduction| = {worst:.3g}")


def check_summability_gate(grid: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(grid):
        p = _P_CHOICES[rng.integers(2)]
        params = random_params(rng, p=p, model=Model.MODEL2)
        sol = characteristic_roots(params)
        if not params.lam / (params.mu * params.p) < sol.gamma_p:
            bad += 1
    return CheckResult("product-form-summability", bad == 0,
                       f"{bad} of {grid} stable sets violate lambda/(mu p) < gamma_p")


def check_rs_rd_balance() -> CheckResult:
    params = make_params(10.0, 30.0, 0.1, 10.0, p=0.5, model=Model.RSRD)
    table = rs_rd_stationary(params, x_max=25, y_max=25)
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
        check_eta_bounds(),
        check_escape_closed_form(small, seed + 8),
        check_summability_gate(grid, seed + 7),
        check_rs_rd_balance(),
    ]
