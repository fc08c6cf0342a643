"""Acceptance suite: ten numbered criteria, one pass/fail line each.

Each test prints a single summary line with the measured quantities before
asserting, so the verdicts survive in the pytest report either way.
"""

import math
import time

import numpy as np

from uqtail import (DOWN, UP, Model, boundary_vector, characteristic_roots,
                    conditioned_excursion_slope, empirical_distribution,
                    exact_stationary_model1, excursion_verdict, ld_excursions,
                    make_params, prefactors, rate_matrix_closed_form,
                    regime_prediction, simulate, stationary_table, tail_fit,
                    truncated_stationary, twist_summary, two_term_tail)
from uqtail.verify import (check_harmonicity, check_rate_matrix,
                           check_stability_equivalence, check_summability_gate,
                           check_tail_reproduction, random_params)

A = make_params(10, 11, 0.1, 10)
B = make_params(20, 60, 0.01, 1)
T2 = make_params(10, 30, 0.1, 10, model=Model.MODEL2)


def report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_rate_matrix_equivalence():
    start = time.monotonic()
    result = check_rate_matrix()
    elapsed = time.monotonic() - start
    report(1, result.passed and elapsed < 1.0,
           f"{result.detail} (each <=1e-12) on A and B, {elapsed:.2f}s (<1s)")


def test_criterion_02_harmonicity():
    start = time.monotonic()
    # 100 Model 1, 50 tandem p = 1 and 50 tandem p = 0.5 sets, at every free-chain row class
    result = check_harmonicity(200, 1002)
    elapsed = time.monotonic() - start
    report(2, result.passed and elapsed < 10.0,
           f"{result.detail} (<=1e-11) over 200 stable sets, {elapsed:.2f}s (<10s)")


def test_criterion_03_exact_tail_reproduction():
    start = time.monotonic()
    result = check_tail_reproduction()
    elapsed = time.monotonic() - start
    report(3, result.passed and elapsed < 5.0,
           f"{result.detail} (<=1e-3) on A and B, {elapsed:.2f}s (<5s)")


def test_criterion_04_eta_free_ratio():
    rng = np.random.default_rng(1004)
    worst = 0.0
    count = 0
    while count < 50:
        params = random_params(rng)
        sol = characteristic_roots(params)
        # the identity is a k -> infinity limit; at k = 400 it is testable
        # only when the subdominant spectral term has already died out
        if (sol.gamma_secondary / sol.gamma_p) ** 400 > 1e-9:
            continue
        count += 1
        v = boundary_vector(params)
        r = rate_matrix_closed_form(params)
        for _ in range(400):
            v = v @ r
            v /= v.sum()
        target = (params.lam + params.beta - params.mu - params.alpha
                  + math.sqrt(sol.s_p)) / (2 * params.alpha)
        worst = max(worst, abs(v[UP] / v[DOWN] / target - 1.0))
    ok = worst <= 1e-6
    report(4, ok, f"max relative ratio error at k=400: {worst:.2e} (<=1e-6) "
                  f"over 50 random stable sets")


def test_criterion_05_two_regime_alpha_limit():
    # regime mu < lam+beta: single dominant term with gamma_1 -> lam/mu
    p_lo = make_params(10, 11, 1e-6, 10)
    sol_lo = characteristic_roots(p_lo)
    gamma_gap = abs(sol_lo.gamma_p - 10 / 11)
    asym = prefactors(p_lo)
    table_lo = exact_stationary_model1(p_lo, k_max=200)
    fit_lo = tail_fit(table_lo, UP, 100, 200)
    single_term = abs(table_lo.prob((200, UP))
                      / (asym.prefactor_up * asym.gamma ** 200) - 1.0)
    ok_lo = gamma_gap <= 1e-6 and abs(fit_lo.gamma_est - sol_lo.gamma_p) <= 1e-6 \
        and single_term <= 1e-3
    # regime mu > lam+beta: on k in [10,60] the exact table is the two-term law
    # w2 gamma_1^k + w3 gamma^k, and the weight is gamma's
    p_hi = make_params(20, 60, 1e-6, 1)
    sol_hi = characteristic_roots(p_hi)
    table_hi = exact_stationary_model1(p_hi, k_max=80)
    tt = two_term_tail(p_hi)
    two_term_gap = max(abs(table_hi.prob((k, UP)) / (tt.w2 * sol_hi.gamma_p ** k
                                                     + tt.w3 * sol_hi.gamma_secondary ** k) - 1.0)
                       for k in range(10, 61))
    ok_hi = two_term_gap <= 1e-13 and tt.w2 < 1e-4 * tt.w3
    report(5, ok_lo and ok_hi,
           f"low regime: |gamma_1 - lam/mu| {gamma_gap:.2e} (<=1e-6), "
           f"single-term gap {single_term:.2e} (<=1e-3); high regime: "
           f"two-term gap {two_term_gap:.2e} (<=1e-13), "
           f"w2/w3 {tt.w2 / tt.w3:.2e} (<1e-4)")


def test_criterion_06_model2_shape():
    start = time.monotonic()
    table = truncated_stationary(T2, x_max=60, y_max=60)
    worst_ratio = 0.0
    for k in range(15, 40, 5):
        for y in range(0, 6):
            for sigma in (UP, DOWN):
                ratio = table.prob((k, y + 1, sigma)) / table.prob((k, y, sigma))
                worst_ratio = max(worst_ratio, abs(ratio / (10 / 30) - 1.0))
    gamma1 = characteristic_roots(T2).gamma_p
    worst_fit = max(abs(tail_fit(table, sigma, 20, 50, y=0).gamma_est - gamma1)
                    for sigma in (UP, DOWN))
    elapsed = time.monotonic() - start
    ok = worst_ratio <= 2e-2 and worst_fit <= 2e-2 and elapsed < 60.0
    report(6, ok, f"max y-ratio error {worst_ratio:.2e} (<=2e-2), max "
                  f"k-fit gap {worst_fit:.2e} (<=2e-2), {elapsed:.1f}s (<60s)")


def test_criterion_07_stability_equivalences():
    # Neuts' test and the spectral test on 200 Model 1 sets, the spectral
    # test on 200 tandem sets with p = 0.5; about half of each are unstable
    result = check_stability_equivalence(200, 1007)
    report(7, result.passed, f"{result.detail} (must be 0)")


def test_criterion_08_rerouting_reference():
    # closed product form satisfies global balance on the rerouting kernel
    rs_half = make_params(10, 30, 0.1, 10, p=0.5, model=Model.RSRD)
    residual = stationary_table(rs_half, x_max=30, y_max=30).residual
    # the x=0 slice of the reference dominates the tandem's at every tail index
    rs_one = make_params(10, 30, 0.1, 10, model=Model.RSRD)
    ref = stationary_table(rs_one, x_max=60, y_max=60)
    oracle = truncated_stationary(T2, x_max=60, y_max=60)
    min_gap = np.inf
    for sigma in (UP, DOWN):
        ref_m = np.array([ref.prob((0, y, sigma)) for y in range(61)])
        tan_m = np.array([oracle.prob((0, y, sigma)) for y in range(61)])
        gaps = ref_m[::-1].cumsum()[::-1] - tan_m[::-1].cumsum()[::-1]
        min_gap = min(min_gap, float(gaps.min()))
    # summability gate on 200 stable tandem sets, p = 0.5 or 1
    gate = check_summability_gate(200, 1008)
    ok = residual <= 1e-9 and min_gap >= -1e-12 and gate.passed
    report(8, ok, f"balance residual {residual:.2e} (<=1e-9), dominance min "
                  f"gap {min_gap:.2e} (>=0), gate: {gate.detail}")


def test_criterion_09_figure_phenomenology():
    start = time.monotonic()
    traj_a = simulate(A, steps=70000, seed=11)
    exc_a = ld_excursions(traj_a, level_k=30)
    verdict_a = excursion_verdict(exc_a)
    traj_b = simulate(B, steps=70000, seed=11)
    exc_b = ld_excursions(traj_b, level_k=30)
    verdict_b = excursion_verdict(exc_b)
    verdicts_ok = (verdict_a == regime_prediction(A) == "UpDominated"
                   and verdict_b == regime_prediction(B) == "DownDominated")
    exact = [conditioned_excursion_slope(A, level_k=k, base_level=2)
             for k in (30, 60, 100, 200)]
    # the simulated mean of (K - base)/T against its exact expectation at K = 30
    mean_slope = float(np.mean([e.slope_estimate for e in exc_a]))
    oracle = exact[0]
    slope_gap = abs(mean_slope - oracle.mean_slope) / oracle.mean_slope
    # the exact slope falls towards the twisted drift, a K -> infinity limit
    drift = twist_summary(A).drift
    falling = all(a.mean_slope > b.mean_slope and a.ratio_slope > b.ratio_slope
                  for a, b in zip(exact, exact[1:]))
    limit_gap = max(abs(exact[-1].mean_slope - drift.value),
                    abs(exact[-1].ratio_slope - drift.value)) / drift.value
    elapsed = time.monotonic() - start
    ok = (verdicts_ok and slope_gap <= 0.30 and falling and limit_gap <= 0.30
          and elapsed < 30.0)
    report(9, ok, f"verdicts {verdict_a}/{verdict_b} "
                  f"({'ok' if verdicts_ok else 'wrong'}), mean slope "
                  f"{mean_slope:.4f}/step over {len(exc_a)} excursions vs exact "
                  f"E[(K-2)/T] {oracle.mean_slope:.4f}/step at K=30 (gap "
                  f"{slope_gap:.0%}, tol 30%); exact E[(K-2)/T] and (K-2)/E[T] "
                  f"at K=30/60/100/200: "
                  + ", ".join(f"{e.mean_slope:.4f}/{e.ratio_slope:.4f}"
                              for e in exact)
                  + f" ({'falling' if falling else 'not falling'}), vs drift "
                  f"{drift.value:.4f}/step (gap at K=200 {limit_gap:.0%}, tol "
                  f"30%), {elapsed:.1f}s (<30s)")


def test_criterion_10_simulation_consistency():
    start = time.monotonic()
    traj = simulate(A, steps=10_000_000, seed=42)
    emp = empirical_distribution(traj, burn_in=100_000)
    exact = exact_stationary_model1(A, k_max=int(traj.x.max()) + 50)
    tv = emp.total_variation(exact)
    up = float(emp.pi[:, UP].sum())
    up_gap = abs(up - 10 / 10.1)
    elapsed = time.monotonic() - start
    ok = tv <= 0.02 and up_gap <= 0.005 and elapsed < 120.0
    report(10, ok, f"total variation {tv:.4f} (<=0.02), Up-marginal gap "
                   f"{up_gap:.4f} (<=0.005), {elapsed:.1f}s (<2min)")
