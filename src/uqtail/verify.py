"""Named invariant checks tying the analytic layers together.

Each check returns a CheckResult; run_checks executes the full suite over
randomized stable parameter grids plus the two reference parameter sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import (_escape_first_passage, escape_probabilities, eta,
                          prefactors, rs_rd_stationary)
from .kernels import free_kernel, full_kernel
from .params import DOWN, UP, InvalidParameters, Model, ModelParams, make_params
from .qbd import (boundary_vector, exact_stationary_model1, neuts_stability,
                  qbd_blocks, rate_matrix_closed_form, rate_matrix_iterate,
                  rate_matrix_spectrum)
from .spectral import characteristic_roots, feynman_kac, stability
from .twist import harmonic, horizontal_drift, twisted_kernel

PARAMS_A = make_params(10.0, 11.0, 0.1, 10.0)
PARAMS_B = make_params(20.0, 60.0, 0.01, 1.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_params(rng: np.random.Generator, p: float = 1.0,
                  stable: bool = True, model: Model = Model.MODEL1) -> ModelParams:
    """Random parameter set; when stable, lambda is drawn under the threshold."""
    mu = rng.uniform(1.0, 50.0)
    alpha = math.exp(rng.uniform(math.log(1e-3), math.log(2.0)))
    beta = rng.uniform(0.5, 30.0)
    bound = beta / (alpha + beta) * mu * p
    lam = bound * rng.uniform(0.1, 0.9) if stable else bound * rng.uniform(1.05, 3.0)
    return make_params(lam, mu, alpha, beta, p=p, model=model)


def _states(model: Model):
    if model is Model.MODEL1:
        return [(0, UP), (0, DOWN), (3, UP), (3, DOWN)]
    return [(0, 0, UP), (0, 2, DOWN), (3, 0, UP), (3, 2, DOWN)]


def check_rows_stochastic(grid: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(grid):
        model = Model.MODEL1 if rng.random() < 0.5 else Model.MODEL2
        p = 1.0 if model is Model.MODEL1 else rng.uniform(0.3, 1.0)
        params = random_params(rng, p=p, stable=bool(rng.random() < 0.8), model=model)
        for state in _states(model):
            for kernel in (free_kernel, full_kernel):
                worst = max(worst, abs(kernel(params, state).total() - 1.0))
    return CheckResult("kernel-rows-stochastic", worst <= 1e-12,
                       f"max |row sum - 1| = {worst:.3g}")


def check_harmonicity(grid: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(grid):
        model = Model.MODEL1 if rng.random() < 0.5 else Model.MODEL2
        p = 1.0 if model is Model.MODEL1 else rng.choice([0.5, 1.0])
        params = random_params(rng, p=p, model=model)
        h = harmonic(params)
        for state in _states(model):
            lhs = sum(prob * h.value(t)
                      for t, prob in free_kernel(params, state).targets)
            worst = max(worst, abs(lhs / h.value(state) - 1.0))
    return CheckResult("free-kernel-harmonicity", worst <= 1e-10,
                       f"max relative residual = {worst:.3g}")


def check_twisted_rows(grid: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(grid):
        model = Model.MODEL1 if rng.random() < 0.5 else Model.MODEL2
        p = 1.0 if model is Model.MODEL1 else rng.choice([0.5, 1.0])
        params = random_params(rng, p=p, model=model)
        for state in _states(model):
            worst = max(worst, abs(twisted_kernel(params, state).total() - 1.0))
    return CheckResult("twisted-rows-stochastic", worst <= 1e-10,
                       f"max |row sum - 1| = {worst:.3g}")


def check_spectral_roots(grid: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(grid):
        p = rng.choice([0.5, 1.0])
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


def check_rate_matrix(params_list=None) -> CheckResult:
    worst_r = worst_eig = 0.0
    for params in params_list or (PARAMS_A, PARAMS_B):
        blocks = qbd_blocks(params)
        r_closed = rate_matrix_closed_form(params)
        r_iter = rate_matrix_iterate(blocks).R
        worst_r = max(worst_r, float(np.max(np.abs(r_closed - r_iter))))
        sol = characteristic_roots(params)
        eigs = sorted(rate_matrix_spectrum(r_closed))
        worst_eig = max(worst_eig,
                        abs(eigs[1] - sol.gamma_p), abs(eigs[0] - sol.gamma_secondary))
    return CheckResult("rate-matrix-consistency",
                       worst_r <= 1e-12 and worst_eig <= 1e-10,
                       f"max entry gap = {worst_r:.3g}, max eigen gap = {worst_eig:.3g}")


def check_stability_equivalence(grid: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(grid):
        params = random_params(rng, stable=bool(rng.random() < 0.5))
        closed = stability(params).stable
        neuts = neuts_stability(qbd_blocks(params))
        spectral_test = characteristic_roots(params).gamma_p < 1.0
        if not (closed == neuts == spectral_test):
            bad += 1
    return CheckResult("stability-equivalences", bad == 0,
                       f"{bad} of {grid} grid points disagree")


def check_drift(grid: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(grid):
        model = Model.MODEL1 if rng.random() < 0.5 else Model.MODEL2
        params = random_params(rng, model=model)
        try:
            drift = horizontal_drift(params)
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
        for sigma, c in ((UP, asym.prefactor_up), (DOWN, asym.prefactor_down)):
            worst = max(worst, abs(table.prob((200, sigma))
                                   / (c * asym.gamma ** 200) - 1.0))
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
    rng = np.random.default_rng(seed)
    worst = 0.0
    for params in [PARAMS_A, PARAMS_B] + [random_params(rng) for _ in range(grid)]:
        esc = escape_probabilities(params)
        gap = np.abs(_escape_first_passage(params) - (esc.up, esc.down))
        worst = max(worst, float(np.max(gap)))
    return CheckResult("escape-closed-form", worst <= 1e-10,
                       f"max |closed form - logarithmic reduction| = {worst:.3g}")


def check_summability_gate(grid: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(grid):
        p = rng.choice([0.5, 1.0])
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
    """Run the suite over `grid` random draws per grid check (grid >= 1)."""
    if grid < 1:
        raise InvalidParameters(f"grid must be >= 1, got {grid}")
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
