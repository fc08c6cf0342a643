import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqtail import (DOWN, UP, InvalidParameters, Model, alpha_limits,
                    boundary_vector, characteristic_roots,
                    escape_probabilities, eta, exact_stationary_model1,
                    harmonic, make_params, mm1_comparison, prefactors,
                    rate_matrix_closed_form, rs_rd_stationary, tail_fit,
                    truncated_stationary, twist_summary, two_geometric_fit,
                    two_term_tail)
from uqtail.asymptotics import _escape_first_passage
from uqtail.cli import main
from uqtail.kernels import rs_rd_kernel
from uqtail.qbd import StationaryTable, first_passage, level_blocks
from uqtail.verify import check_tail_reproduction, random_params

A = make_params(10, 11, 0.1, 10)
B = make_params(20, 60, 0.01, 1)
T2 = make_params(10, 30, 0.1, 10, model=Model.MODEL2)


def assert_escape_matches_iteration(params):
    esc = escape_probabilities(params)
    assert esc.residual <= 1e-12
    assert 0 < esc.up < 1 and 0 < esc.down < 1
    reference = _escape_first_passage(twist_summary(params).rows)
    assert [esc.up, esc.down] == pytest.approx(reference, rel=0, abs=1e-10)


def test_escape_methods_agree():
    for params in (A, B):
        assert_escape_matches_iteration(params)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(log_alpha=st.floats(math.log(1e-12), math.log(2.0)),
       load=st.floats(0.05, 0.95), c_factor=st.sampled_from([1.0, 2.0]))
def test_escape_closed_form_property(log_alpha, load, c_factor):
    alpha = math.exp(log_alpha)
    lam = load * A.beta / (alpha + A.beta) * A.mu
    default = make_params(lam, A.mu, alpha, A.beta)
    assert_escape_matches_iteration(
        make_params(lam, A.mu, alpha, A.beta, C=c_factor * default.C))


def test_near_critical_analyze(tmp_path):
    # A's rates at 0.9999 of the stability bound: gamma_1 = 0.99990
    lam = 0.9999 * A.beta / (A.alpha + A.beta) * A.mu
    code = main(["analyze", "--lambda", repr(lam), "--mu", repr(A.mu),
                 "--alpha", repr(A.alpha), "--beta", repr(A.beta),
                 "--out", str(tmp_path)])
    assert code == 0
    tail = json.loads((tmp_path / "analyze.json").read_text())["tail"]
    # pi(k) = pi0 R^k with R 2x2, so pi(k, sigma) / gamma_1^k = c + d rho^k
    # exactly; levels k and k + 1 give c, the exact gamma_1^k coefficient
    params = make_params(lam, A.mu, A.alpha, A.beta)
    sol = characteristic_roots(params)
    gamma1, rho, k = sol.gamma_p, sol.gamma_secondary / sol.gamma_p, 50
    table = exact_stationary_model1(params, k_max=k + 1)
    for sigma, key in ((UP, "prefactor_up"), (DOWN, "prefactor_down")):
        a_k = table.prob((k, sigma)) / gamma1 ** k
        a_next = table.prob((k + 1, sigma)) / gamma1 ** (k + 1)
        assert tail[key] == pytest.approx((a_next - rho * a_k) / (1.0 - rho),
                                          rel=1e-9)


def test_eta_exact_model1():
    est = eta(A)
    assert est.method == "exact" and est.std_error == 0.0
    pi0 = boundary_vector(A)
    h = harmonic(A)
    assert 0 < est.value <= pi0[UP] + pi0[DOWN] * h.value((0, DOWN))


def test_prefactor_ratio_identity():
    asym = prefactors(A)
    assert asym.prefactor_up / asym.prefactor_down == pytest.approx(91.1932, abs=1e-3)
    # eta-free: the exact stationary ratio converges to the same number
    r = rate_matrix_closed_form(A)
    v = boundary_vector(A)
    for _ in range(400):
        v = v @ r
        v /= v.sum()
    assert v[UP] / v[DOWN] == pytest.approx(asym.prefactor_up / asym.prefactor_down,
                                            rel=1e-9)


def test_prefactors_reproduce_exact_tail():
    result = check_tail_reproduction()
    assert result.passed, result.detail


def eigen_weights(params):
    """Exact two-term weights of pi(k, Up) via eigendecomposition of R."""
    r = rate_matrix_closed_form(params)
    vals, vecs = np.linalg.eig(r.T)  # left eigenvectors of R
    pi0 = boundary_vector(params)
    weights = {}
    for i in range(2):
        u = vecs[:, i].real
        # spectral projector onto the i-th left eigenspace
        other = vecs[:, 1 - i].real
        # decompose pi0 = a*u + b*other, weight of rate vals[i] on Up is a*u[UP]
        coeff = np.linalg.solve(np.column_stack([u, other]), pi0)
        weights[float(vals[i].real)] = float(coeff[0] * u[UP])
    return weights  # weight of gamma^k terms in pi(k, Up) = sum w * gamma^k


def test_two_term_tail_matches_eigen_oracle():
    for params in (A, B):
        table = exact_stationary_model1(params, k_max=80)
        fit = two_term_tail(params, table)
        sol = characteristic_roots(params)
        oracle = eigen_weights(params)
        w2_exact = oracle[min(oracle, key=lambda g: abs(g - sol.gamma_p))]
        w3_exact = oracle[min(oracle, key=lambda g: abs(g - sol.gamma_secondary))]
        assert fit.w2 == pytest.approx(w2_exact, rel=1e-6)
        assert fit.w3 == pytest.approx(w3_exact, rel=1e-6)
        assert fit.geometric_ok
        assert fit.max_relative_residual < 1e-6


def test_two_geometric_fit_recovers_synthetic_rates():
    pi = np.array([(0.3 * 0.8 ** k + 0.05 * 0.4 ** k, 0.0) for k in range(60)])
    table = StationaryTable(pi=pi, model=Model.MODEL1, residual=0.0, tail_mass_bound=0.0,
                            truncation_warning=False)
    fit = two_geometric_fit(table, UP, 2, 40)
    assert sorted(fit.rates) == pytest.approx([0.4, 0.8], rel=1e-9)
    assert fit.dominant_rate == pytest.approx(0.8, rel=1e-9)


def test_alpha_limits_below():
    lim = alpha_limits(10, 11, 10)
    assert lim.case == "service_below_lam_beta"
    assert lim.limit_gamma == pytest.approx(10 / 11)
    assert lim.limit_g == pytest.approx(9.0)
    assert lim.limit_drift_per_time == pytest.approx(1.0)
    assert lim.gamma_gap < 1e-6
    assert lim.g_at_eval == pytest.approx(9.0, abs=1e-4)


def test_alpha_limits_above():
    lim = alpha_limits(20, 60, 1, model=Model.MODEL2)
    assert lim.case == "service_above_lam_beta"
    assert lim.limit_gamma == pytest.approx(20 / 21)
    assert lim.limit_g == pytest.approx(1 * (60 - 21) / 21)
    assert lim.limit_drift_per_time == pytest.approx(21.0)
    assert lim.limit_b == pytest.approx((60 - 21) / 60)
    assert lim.b_at_eval == pytest.approx(0.65, abs=1e-4)


def test_alpha_limits_rejects_split_point():
    with pytest.raises(InvalidParameters):
        alpha_limits(10, 20, 10)


def test_mm1_comparison_examples():
    cmp_a = mm1_comparison(A)
    assert cmp_a.mm1_ratio == pytest.approx(0.918182, abs=1e-6)
    assert cmp_a.gamma_1 >= cmp_a.mm1_ratio
    assert cmp_a.dominance
    assert cmp_a.pi0(0) == pytest.approx(1 - cmp_a.lambda0 / cmp_a.mu0)
    cmp_b = mm1_comparison(B)
    assert cmp_b.mm1_ratio == pytest.approx(0.336667, abs=1e-6)
    assert cmp_b.dominance


def test_mm1_dominance_random():
    rng = np.random.default_rng(10)
    for _ in range(30):
        assert mm1_comparison(random_params(rng)).dominance


def test_tail_fit_exact_table():
    table = exact_stationary_model1(A, k_max=320)
    fit = tail_fit(table, UP, 100, 300)
    assert fit.gamma_est == pytest.approx(0.919060, abs=1e-6)
    assert fit.max_relative_deviation < 1e-8


def test_tail_fit_synthetic_geometric():
    pi = np.array([(0.5 ** k, 0.0) for k in range(40)])
    table = StationaryTable(pi=pi, model=Model.MODEL1, residual=0.0, tail_mass_bound=0.0,
                            truncation_warning=False)
    assert tail_fit(table, UP, 5, 30).gamma_est == pytest.approx(0.5, rel=1e-12)


def test_tail_fit_short_window_rejected():
    table = exact_stationary_model1(A, k_max=20)
    with pytest.raises(ValueError):
        tail_fit(table, UP, 3, 6)


@pytest.fixture(scope="module")
def t2_table():
    return truncated_stationary(T2, x_max=40, y_max=40)


def test_eta_model2_exact(t2_table):
    # tandem blocks: logarithmic reduction against the plain iteration from 0
    a0, a1, a2 = level_blocks(twist_summary(T2).rows, 8)
    g = np.zeros_like(a1)
    for _ in range(10 ** 5):
        g_next = a2 + a1 @ g + a0 @ g @ g
        if np.max(np.abs(g_next - g)) <= 1e-16:
            break
        g = g_next
    assert np.max(np.abs(first_passage(a0, a1, a2) - g_next)) <= 1e-12
    with pytest.raises(ArithmeticError, match="max row sum"):
        first_passage(a0, a1, 1.5 * a2)  # rows of A0 + A1 + A2 sum above 1
    # Model 1 blocks: the closed-form twisted G
    for params in (A, B):
        h = harmonic(params)
        closed = np.array([[1.0 / h.base, 0.0], [1.0 / (h.base * h.down_weight), 0.0]])
        g = first_passage(*level_blocks(twist_summary(params).rows))
        assert np.max(np.abs(g - closed)) <= 1e-14
    est = eta(T2, table=t2_table)
    assert est.method == "qbd"
    assert est.value > 0 and 0 < est.std_error <= 1e-6
    # the boundary sum is bounded by sum pi*h (escape probabilities < 1)
    h = harmonic(T2)
    bound = sum(t2_table.prob((0, y, s)) * h.value((0, y, s))
                for y in range(41) for s in (UP, DOWN))
    assert est.value < bound


def test_eta_model2_tail_gate(t2_table):
    # the gate reads the last min(10, y_max + 1) levels, so a short table
    # passes and brackets the 40x40 value
    short = eta(T2, table=truncated_stationary(T2, x_max=40, y_max=8))
    full = eta(T2, table=t2_table)
    assert abs(short.value - full.value) <= short.std_error
    # a weighted boundary that stops decreasing is refused, naming the ratios
    # and the first level where one reached 1
    h = harmonic(T2)
    levels = [1.0, 0.5, 0.25, 0.25, 0.3]
    pi = np.array([[[w / h.value((0, y, s)) / 2 for s in (UP, DOWN)]
                    for y, w in enumerate(levels)]])
    rising = StationaryTable(pi=pi, model=Model.MODEL2, residual=0.0, tail_mass_bound=0.0)
    with pytest.raises(ArithmeticError, match=r"\[0\.5, 0\.5, 1\.0, 1\.2\].*y = 3"):
        eta(T2, table=rising)


def test_eta_model2_bound_scales_with_c(t2_table):
    """Doubling C halves eta, and its remainder bound with it: the escape
    probabilities in the remainder are bounded by the twisted up block's
    largest row sum, which also halves."""
    doubled = make_params(10, 30, 0.1, 10, model=Model.MODEL2, C=2 * T2.C)
    base = eta(T2, table=t2_table)
    other = eta(doubled, table=truncated_stationary(doubled, x_max=40, y_max=40))
    assert other.std_error / other.value == pytest.approx(base.std_error / base.value,
                                                          rel=0.05)
    # the tighter bound still covers the move to a larger table
    finer = eta(T2, table=truncated_stationary(T2, x_max=48, y_max=48))
    assert abs(finer.value - base.value) <= base.std_error


def test_model2_prefactor_structure(t2_table):
    asym = prefactors(T2, table=t2_table)
    assert asym.y_ratio == pytest.approx(10 / 30)
    assert asym.provenance == "closed-form+qbd"
    # same Up/Down split as the single-queue model
    single = prefactors(make_params(10, 30, 0.1, 10))
    assert asym.prefactor_up / asym.prefactor_down == pytest.approx(
        single.prefactor_up / single.prefactor_down, rel=1e-10)


def test_model2_prefactor_matches_table(t2_table):
    asym = prefactors(T2, table=t2_table)
    for sigma, c in ((UP, asym.prefactor_up), (DOWN, asym.prefactor_down)):
        assert c * asym.gamma ** 30 == pytest.approx(t2_table.prob((30, 0, sigma)),
                                                     rel=1e-3)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_prefactors_ignore_the_uniformization_constant(seed):
    """C(sigma) belongs to the continuous-time chain: doubling C halves eta
    and the drift per step alike."""
    params = random_params(np.random.default_rng(seed))
    doubled = make_params(params.lam, params.mu, params.alpha, params.beta, C=2 * params.C)
    base, other = prefactors(params), prefactors(doubled)
    for key in ("prefactor_up", "prefactor_down"):
        assert getattr(other, key) == pytest.approx(getattr(base, key), rel=1e-10, abs=0)


def test_tandem_prefactors_ignore_the_uniformization_constant(t2_table):
    doubled = make_params(10, 30, 0.1, 10, model=Model.MODEL2, C=2 * T2.C)
    table = truncated_stationary(doubled, x_max=40, y_max=40)
    base, other = prefactors(T2, table=t2_table), prefactors(doubled, table=table)
    # C(sigma) is proportional to eta, so their relative errors add up
    bound = sum(est.std_error / est.value
                for est in (eta(T2, table=t2_table), eta(doubled, table=table)))
    for key in ("prefactor_up", "prefactor_down"):
        assert abs(getattr(other, key) / getattr(base, key) - 1.0) <= bound


def test_model2_feedback_is_shape_only():
    params = make_params(10, 30, 0.1, 10, p=0.5, model=Model.MODEL2)
    asym = prefactors(params)
    assert asym.provenance == "shape-only"
    assert asym.prefactor_up is None and asym.eta is None
    assert asym.gamma == pytest.approx(0.679296, abs=1e-6)


def test_rs_rd_closed_form():
    params = make_params(10, 30, 0.1, 10, p=0.5, model=Model.RSRD)
    table = rs_rd_stationary(params, x_max=20, y_max=20)
    assert table.prob((0, 0, UP)) == pytest.approx(0.110011, abs=1e-6)
    assert table.prob((3, 5, UP)) / table.prob((2, 5, UP)) == pytest.approx(2 / 3)
    assert table.residual < 1e-9


def test_rs_rd_rejects_overload():
    params = make_params(10, 30, 0.1, 10, p=0.5, model=Model.RSRD)
    over = make_params(16, 30, 0.1, 10, p=0.5, model=Model.RSRD)
    assert params.lam < params.mu * params.p
    with pytest.raises(InvalidParameters):
        rs_rd_stationary(over, x_max=5, y_max=5)


def _reference_rs_rd(params, x_max, y_max):
    """rs_rd_stationary as a per-state product form and a per-source balance
    loop: (entries, residual, tail_mass_bound, truncation_warning)."""
    lam, mu, alpha, beta, p = params.lam, params.mu, params.alpha, params.beta, params.p
    r = lam / (mu * p)
    norm = (1.0 - r) ** 2
    share = {UP: beta / (alpha + beta), DOWN: alpha / (alpha + beta)}

    def pi(x, y, sigma):
        return norm * r ** (x + y) * share[sigma]

    entries = {(x, y, sigma): pi(x, y, sigma)
               for x in range(x_max + 1) for y in range(y_max + 1)
               for sigma in (UP, DOWN)}
    inflow = dict.fromkeys(entries, 0.0)
    for x in range(x_max + 2):
        for y in range(y_max + 2):
            for sigma in (UP, DOWN):
                for target, prob in rs_rd_kernel(params, (x, y, sigma)).targets:
                    if target in inflow:
                        inflow[target] += pi(x, y, sigma) * prob
    residual = max(abs(inflow[s] - entries[s]) for s in entries)
    tail = 1.0 - (1.0 - r ** (x_max + 1)) * (1.0 - r ** (y_max + 1))
    return entries, residual, tail, tail > 1e-8


@pytest.mark.parametrize("p", [0.5, 1.0])
@pytest.mark.parametrize("x_max,y_max", [(1, 1), (20, 20), (30, 45), (45, 30)])
def test_rs_rd_matches_per_state_product_form(p, x_max, y_max):
    params = make_params(10, 30, 0.1, 10, p=p, model=Model.RSRD)
    entries, residual, tail, warning = _reference_rs_rd(params, x_max, y_max)
    table = rs_rd_stationary(params, x_max=x_max, y_max=y_max)
    assert table.pi.shape == (x_max + 1, y_max + 1, 2)
    assert table.pi.ravel().tolist() == list(entries.values())   # C order, as built
    assert (table.residual, table.tail_mass_bound, table.truncation_warning) == \
        (residual, tail, warning)


@pytest.mark.parametrize("x_max,y_max", [(-1, -1), (0, 5), (5, 0)])
def test_rs_rd_needs_both_sides(x_max, y_max):
    params = make_params(10, 30, 0.1, 10, p=0.5, model=Model.RSRD)
    with pytest.raises(InvalidParameters, match="x_max >= 1 and y_max >= 1"):
        rs_rd_stationary(params, x_max=x_max, y_max=y_max)
