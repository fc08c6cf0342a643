import dataclasses
import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqtail import (DOWN, UP, InvalidParameters, Model, UnstableParameters,
                    alpha_limits, boundary_vector, characteristic_roots,
                    exact_stationary_model1, harmonic, make_params, mm1_comparison, prefactors,
                    rate_matrix_closed_form, stationary_table, tail_fit,
                    truncated_stationary, twist_summary, two_term_tail)
from uqtail import asymptotics
from uqtail.asymptotics import (_escape, _escape_first_passage, _line, _two_term,
                               tail_constants)
from uqtail.cli import main
from uqtail.kernels import full_kernel, level_blocks
from uqtail.qbd import StationaryTable, first_passage
from uqtail.verify import check_tail_reproduction, random_params

from reference import (DIGITS, FULL_RANGE_DIGITS, R_DOWN_DOWN_ONE, SLOW_SWITCHING, model1,
                       relative_error)
from tables import A, B, SLICES, T2, bound, stack_of


def assert_escape_matches_iteration(params):
    twist = twist_summary(params)
    esc = _escape(twist)
    assert 0 < esc.up < 1 and 0 < esc.down < 1
    reference = _escape_first_passage(*twist.blocks)
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
    code = main(["analyze", "--lambda", str(lam), "--mu", str(A.mu),
                 "--alpha", str(A.alpha), "--beta", str(A.beta),
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
    asym = prefactors(A)
    assert asym.provenance == "closed-form" and asym.eta_error_bound == 0.0
    pi0 = boundary_vector(A)
    h = harmonic(A)
    assert 0 < asym.eta <= pi0[UP] + pi0[DOWN] * h.value((0, DOWN))


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
        fit = two_term_tail(params)
        sol = characteristic_roots(params)
        oracle = eigen_weights(params)
        w2_exact = oracle[min(oracle, key=lambda g: abs(g - sol.gamma_p))]
        w3_exact = oracle[min(oracle, key=lambda g: abs(g - sol.gamma_secondary))]
        assert fit.w2 == pytest.approx(w2_exact, rel=1e-6)
        assert fit.w3 == pytest.approx(w3_exact, rel=1e-6)
        # the two terms are the whole of pi(k, Up), level 0 included
        ks = np.arange(81)
        terms = fit.w2 * sol.gamma_p ** ks + fit.w3 * sol.gamma_secondary ** ks
        assert terms == pytest.approx(exact_stationary_model1(params, k_max=80).pi[:, UP],
                                      rel=1e-12)


# mu > lambda + beta at alpha = 2.5e-12: C(Up) = 4.9e-12, under a gamma^k term of weight 0.41
TINY_ALPHA = (26.32, 44.89, 2.531e-12, 15.48)


@pytest.mark.parametrize("rates", [
    (10, 11, 1e-6, 10), (10, 11, 1e-12, 10), (20, 60, 1e-6, 1), (20, 60, 1e-12, 1),
    (10, 11, 0.1, 10), (20, 60, 0.01, 1), TINY_ALPHA,
], ids=["below-1e-06", "below-1e-12", "above-1e-06", "above-1e-12", "A", "B", "tiny-alpha"])
def test_two_term_tail_matches_a_50_digit_reference(rates):
    # the split mu = lambda + beta: below it w3 vanishes with alpha, above it w2 does
    params = make_params(*rates)
    weights = _two_term(characteristic_roots(params))
    ref = model1(*rates)
    for computed, exact in zip(weights, (ref["w2"], ref["w3"]), strict=True):
        for value, reference in zip(computed.tolist(), exact, strict=True):
            assert abs(Decimal(value) / reference - 1) <= Decimal("1e-14")
    fit = two_term_tail(params)
    assert (fit.w2, fit.w3) == (weights[0][UP], weights[1][UP])


def test_every_prefactors_success_matches_the_reference():
    # corpus [-12, 12]: 3,000 draws of rates log-uniform on [1e-12, 1e12], whose 1,167
    # stable Model 1 sets go through prefactors one by one, then the R_DD sets
    rates = 10.0 ** np.random.default_rng(1).uniform(-12.0, 12.0, (3000, 4))
    lam, mu, alpha, beta = rates.T
    corpus = rates[lam < beta / (alpha + beta) * mu].tolist()
    assert len(corpus) == 1167 and all(list(worst) in corpus for worst in SLOW_SWITCHING)
    successes = 0
    for row, digits in [*((row, DIGITS) for row in corpus),
                        *((row, FULL_RANGE_DIGITS) for row in R_DOWN_DOWN_ONE)]:
        params = make_params(*row)
        try:
            asym = prefactors(params)
        except ArithmeticError:   # one corpus set: gamma_1 rounds to 1, by the escape gate
            continue
        successes += 1
        ref = model1(*row, params.C, digits=digits)
        pi0 = boundary_vector(params)
        for name, value, exact in (
                ("gamma", asym.gamma, ref["gamma1"]), ("eta", asym.eta, ref["eta"]),
                *((f"C({key})", getattr(asym, f"prefactor_{key}"), ref["prefactor"][sigma])
                  for sigma, key in ((UP, "up"), (DOWN, "down"))),
                *((f"escape({key})", getattr(asym, f"escape_{key}"), ref["escape"][sigma])
                  for sigma, key in ((UP, "up"), (DOWN, "down"))),
                ("pi0(Up)", pi0[UP], ref["pi0"][UP]), ("pi0(Down)", pi0[DOWN], ref["pi0"][DOWN])):
            assert relative_error(value, exact) <= Decimal("1e-13"), (row, name)
    assert successes == 1166 + len(R_DOWN_DOWN_ONE)


@pytest.mark.parametrize("rates", [(10, 30, 0.1, 10), (1, 50, 1.9, 0.6)],
                         ids=["T2", "tandem-1-50"])
def test_eta_boundary_weights_are_h_values_bit_for_bit(rates):
    # the weights h(0, y, sigma) of eta's boundary sum, on the default 60 x 60 table's y, as
    # one scalar h.value call per state gives them
    h = harmonic(make_params(*rates, model=Model.MODEL2))
    expected = [[h.value((0, y, sigma)) for sigma in (UP, DOWN)] for y in range(61)]
    assert asymptotics._eta_weights(h, 60).tobytes() == np.array(expected).tobytes()


def test_alpha_limits_below():
    lim = alpha_limits(make_params(10, 11, 0.1, 10))
    # the limits are over alpha, evaluated at the default C: the set's own are not read
    assert alpha_limits(make_params(10, 11, 0.5, 10, C=62)) == lim
    assert lim.case == "service_below_lam_beta"
    assert lim.limit_gamma == pytest.approx(10 / 11)
    assert lim.limit_g == pytest.approx(9.0)
    assert lim.limit_drift_per_time == pytest.approx(1.0)
    assert lim.gamma_gap < 1e-6
    assert lim.g_at_eval == pytest.approx(9.0, abs=1e-4)


def test_alpha_limits_above():
    lim = alpha_limits(make_params(20, 60, 0.01, 1, model=Model.MODEL2))
    assert lim.case == "service_above_lam_beta"
    assert lim.limit_gamma == pytest.approx(20 / 21)
    assert lim.limit_g == pytest.approx(1 * (60 - 21) / 21)
    assert lim.limit_drift_per_time == pytest.approx(21.0)
    assert lim.limit_b == pytest.approx((60 - 21) / 60)
    assert lim.b_at_eval == pytest.approx(0.65, abs=1e-4)


def test_alpha_limits_evaluate_the_prefactor():
    # C(Up) at alpha = 1e-6 against its limit: eta C / (mu - lambda) below the
    # split (A), 0 above it
    below = alpha_limits(make_params(10, 11, 0.1, 10))
    above = alpha_limits(make_params(20, 60, 0.01, 1))
    assert below.alpha_eval == above.alpha_eval == 1e-6
    assert below.case == "service_below_lam_beta" and above.case == "service_above_lam_beta"
    assert 0.0 <= below.prefactor_up_limit_gap <= 1e-5
    assert 0.0 <= above.prefactor_up_limit_gap <= 1e-6
    assert above.prefactor_up_limit_gap == abs(above.prefactor_up_at_eval)


def test_alpha_limits_rejects_split_point():
    with pytest.raises(InvalidParameters):
        alpha_limits(make_params(10, 20, 0.1, 10))


def test_mm1_comparison_examples():
    cmp_a = mm1_comparison(A)
    assert cmp_a.mm1_ratio == pytest.approx(0.918182, abs=1e-6)
    assert cmp_a.gamma_1 >= cmp_a.mm1_ratio
    assert cmp_a.dominance
    cmp_b = mm1_comparison(B)
    assert cmp_b.mm1_ratio == pytest.approx(0.336667, abs=1e-6)
    assert cmp_b.dominance


@pytest.mark.parametrize("call", [mm1_comparison, prefactors], ids=["mm1", "prefactors"])
def test_unstable_sets_are_refused(call):
    # load above 1: the matched M/M/1 law and the shape-only tail do not exist
    for params in (make_params(20, 11, 0.1, 10),
                   make_params(20, 30, 0.1, 10, p=0.5, model=Model.MODEL2)):
        with pytest.raises(UnstableParameters, match="requires a stable parameter set"):
            call(params)


def test_mm1_dominance_random():
    rng = np.random.default_rng(10)
    for _ in range(30):
        assert mm1_comparison(random_params(rng)).dominance


def test_tail_fit_refuses_a_y_on_a_model1_table():
    table = exact_stationary_model1(A, k_max=20)
    with pytest.raises(InvalidParameters, match="y = 7 given, but the table's states"):
        tail_fit(table, UP, 5, 15, y=7)
    assert tail_fit(table, UP, 5, 15).gamma_est == pytest.approx(0.919060, abs=1e-4)


def test_tail_fit_exact_table():
    table = exact_stationary_model1(A, k_max=320)
    fit = tail_fit(table, UP, 100, 300)
    assert fit.gamma_est == pytest.approx(0.919060, abs=1e-6)
    assert fit.max_relative_deviation < 1e-8


def test_tail_fit_synthetic_geometric():
    pi = np.array([(0.5 ** k, 0.0) for k in range(40)])
    table = StationaryTable(pi=pi, residual=0.0, tail_mass_bound=0.0)
    assert tail_fit(table, UP, 5, 30).gamma_est == pytest.approx(0.5, rel=1e-12)


def _exact_line(ks, logs):
    """The least-squares line through the points (k, log), in exact rationals."""
    n = len(ks)
    k_bar = Fraction(sum(ks), n)
    l_bar = sum(map(Fraction, logs)) / n
    slope = (sum((k - k_bar) * (Fraction(v) - l_bar) for k, v in zip(ks, logs))
             / sum((k - k_bar) ** 2 for k in ks))
    return slope, l_bar - slope * k_bar


def _no_farther(value, reference, exact):
    """value lies within 2 ulp of the exact rational, or no farther from it than reference."""
    gap = abs(Fraction(value) - exact)
    return gap <= 2 * Fraction(math.ulp(float(exact))) or gap <= abs(Fraction(reference) - exact)


def _fit_windows():
    """(table, k_min, k_max) windows: a geometric law, Model 1 on A, B and 20 random
    sets, RS-RD at p = 0.5 and the p = 1 tandem."""
    pi = np.array([(0.3 * 0.73 ** k, 0.7 * 0.73 ** k) for k in range(40)])
    yield StationaryTable(pi=pi, residual=0.0, tail_mass_bound=0.0), 5, 30
    for params in (A, B):
        yield stationary_table(params, 310), 100, 300
    rng = np.random.default_rng(31)
    for params in (A, B, *(random_params(rng) for _ in range(20))):
        yield stationary_table(params, 40), 20, 35
    for model, p in ((Model.RSRD, 0.5), (Model.MODEL2, 1.0)):
        yield stationary_table(make_params(10.0, 30.0, 0.1, 10.0, p=p, model=model), 40, 40), 20, 35


def test_tail_fit_matches_the_exact_least_squares_line():
    fits = 0
    for table, k_min, k_max in _fit_windows():
        for sigma in (UP, DOWN):
            ks = list(range(k_min, k_max + 1))
            logs = [math.log(v) for v in table.levels(sigma, k_min, k_max).tolist()]
            exact_slope, exact_intercept = _exact_line(ks, logs)
            slope, intercept = _line(ks, logs)
            poly_slope, poly_intercept = np.polyfit(ks, logs, 1).tolist()
            assert _no_farther(slope, poly_slope, exact_slope), (k_min, k_max, sigma)
            assert _no_farther(intercept, poly_intercept, exact_intercept), (k_min, k_max, sigma)
            # the check sees a slope off by 1e-12 of its value
            assert not _no_farther(slope * (1.0 + 1e-12), poly_slope, exact_slope)
            fit = tail_fit(table, sigma, k_min, k_max)
            assert (fit.gamma_est, fit.log_prefactor_est) == (math.exp(slope), intercept)
            fits += 1
    assert fits == 2 * 27


def test_tail_fit_short_window_rejected():
    table = exact_stationary_model1(A, k_max=20)
    with pytest.raises(ValueError):
        tail_fit(table, UP, 3, 6)


@pytest.fixture(scope="module")
def t2_table():
    return truncated_stationary(T2, x_max=40, y_max=40)


def test_eta_model2_exact(t2_table):
    # tandem blocks: logarithmic reduction against the plain iteration from 0
    a0, a1, a2 = level_blocks(T2, 8, h=twist_summary(T2).harmonic)
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
        g = first_passage(*level_blocks(params, h=twist_summary(params).harmonic))
        assert np.max(np.abs(g - closed)) <= 1e-14
    asym = prefactors(T2, table=t2_table)
    assert asym.provenance == "closed-form+qbd"
    assert asym.eta > 0 and 0 < asym.eta_error_bound <= 1e-6
    # the boundary sum is bounded by sum pi*h (escape probabilities < 1)
    h = harmonic(T2)
    bound = sum(t2_table.prob((0, y, s)) * h.value((0, y, s))
                for y in range(41) for s in (UP, DOWN))
    assert asym.eta < bound


def test_eta_model2_tail_gate(t2_table):
    # the gate reads the last min(10, y_max + 1) levels, so a short table
    # passes and brackets the 40x40 value
    short = prefactors(T2, table=truncated_stationary(T2, x_max=40, y_max=8))
    full = prefactors(T2, table=t2_table)
    assert abs(short.eta - full.eta) <= short.eta_error_bound
    # a weighted boundary that stops decreasing is refused, naming the ratios
    # and the first level where one reached 1; a caller's table may be enlarged
    h = harmonic(T2)
    levels = [1.0, 0.5, 0.25, 0.25, 0.3]
    pi = np.array([[[w / h.value((0, y, s)) / 2 for s in (UP, DOWN)]
                    for y, w in enumerate(levels)]])
    rising = StationaryTable(pi=pi, residual=0.0, tail_mass_bound=0.0)
    with pytest.raises(ArithmeticError,
                       match=r"\[0\.5, 0\.5, 1\.0, 1\.2\].*y = 3; enlarge the truncated table$"):
        prefactors(T2, table=rising)


def test_eta_model2_bound_scales_with_c(t2_table):
    """Doubling C halves eta, and its remainder bound with it: the escape
    probabilities in the remainder are bounded by the twisted up block's
    largest row sum, which also halves."""
    doubled = make_params(10, 30, 0.1, 10, model=Model.MODEL2, C=2 * T2.C)
    base = prefactors(T2, table=t2_table)
    other = prefactors(doubled, table=truncated_stationary(doubled, x_max=40, y_max=40))
    assert other.eta_error_bound / other.eta == pytest.approx(base.eta_error_bound / base.eta,
                                                              rel=0.05)
    # the tighter bound still covers the move to a larger table
    finer = prefactors(T2, table=truncated_stationary(T2, x_max=48, y_max=48))
    assert abs(finer.eta - base.eta) <= base.eta_error_bound


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
    bound = sum(asym.eta_error_bound / asym.eta for asym in (base, other))
    for key in ("prefactor_up", "prefactor_down"):
        assert abs(getattr(other, key) / getattr(base, key) - 1.0) <= bound


def test_model2_feedback_is_shape_only():
    params = make_params(10, 30, 0.1, 10, p=0.5, model=Model.MODEL2)
    asym = prefactors(params)
    assert asym.provenance == "shape-only"
    assert asym.prefactor_up is None and asym.eta is None
    assert asym.twist is None and asym.eta_error_bound is None
    assert asym.gamma == pytest.approx(0.679296, abs=1e-6)
    # a stack that mixes p = 1 and p < 1 has no twist
    with pytest.raises(InvalidParameters) as refusal:
        prefactors(stack_of([T2, params]))
    assert str(refusal.value) == "the twist is derived for Model 1 and the tandem (p = 1) only"


test_a_feedback_tandem_stack_is_shape_only_per_set = bound(SLICES, "shape-only")


def test_rs_rd_closed_form():
    params = make_params(10, 30, 0.1, 10, p=0.5, model=Model.RSRD)
    table = stationary_table(params, x_max=20, y_max=20)
    assert table.prob((0, 0, UP)) == pytest.approx(0.110011, abs=1e-6)
    assert table.prob((3, 5, UP)) / table.prob((2, 5, UP)) == pytest.approx(2 / 3)
    assert table.residual < 1e-9


def test_rs_rd_rejects_overload():
    params = make_params(10, 30, 0.1, 10, p=0.5, model=Model.RSRD)
    over = make_params(16, 30, 0.1, 10, p=0.5, model=Model.RSRD)
    assert params.lam < params.mu * params.p
    with pytest.raises(InvalidParameters):
        stationary_table(over, x_max=5, y_max=5)


def _reference_rs_rd(params, x_max, y_max):
    """RS-RD's stationary_table as a per-state product form and a per-source balance
    loop: (entries, residual, tail_mass_bound)."""
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
                for target, prob in full_kernel(params, (x, y, sigma)).targets:
                    if target in inflow:
                        inflow[target] += pi(x, y, sigma) * prob
    residual = max(abs(inflow[s] - entries[s]) for s in entries)
    tail = r ** (x_max + 1) + r ** (y_max + 1) - r ** (x_max + 1) * r ** (y_max + 1)
    return entries, residual, tail


@pytest.mark.parametrize("p", [0.5, 1.0])
@pytest.mark.parametrize("x_max,y_max", [(1, 1), (20, 20), (30, 45), (45, 30)])
def test_rs_rd_matches_per_state_product_form(p, x_max, y_max):
    params = make_params(10, 30, 0.1, 10, p=p, model=Model.RSRD)
    entries, residual, tail = _reference_rs_rd(params, x_max, y_max)
    table = stationary_table(params, x_max=x_max, y_max=y_max)
    assert table.pi.shape == (x_max + 1, y_max + 1, 2)
    assert table.pi.ravel().tolist() == list(entries.values())   # C order, as built
    assert (table.residual, table.tail_mass_bound) == (residual, tail)


@pytest.mark.parametrize("x_max,y_max", [(-1, -1), (0, 5), (5, 0)])
def test_rs_rd_needs_both_sides(x_max, y_max):
    params = make_params(10, 30, 0.1, 10, p=0.5, model=Model.RSRD)
    with pytest.raises(InvalidParameters, match="x_max >= 1 and y_max >= 1"):
        stationary_table(params, x_max=x_max, y_max=y_max)


TANDEM_SETS = [(10, 30, 0.1, 10), (1, 50, 1.9, 0.6), (5, 8, 0.3, 4)]


@pytest.mark.parametrize("rates", TANDEM_SETS)
def test_tandem_product_form_matches_the_truncated_lattice(rates):
    # the lattice's reflecting cut bends pi near x, y = 60; below 30 the gap
    # is the sparse solve's noise (8.4e-15, 1.2e-15 and 5.4e-14)
    params = make_params(*rates, model=Model.MODEL2)
    table = stationary_table(params, x_max=60, y_max=60)
    lattice = truncated_stationary(params, x_max=60, y_max=60)
    assert table.pi.shape == lattice.pi.shape == (61, 61, 2)
    assert np.max(np.abs(table.pi[:30, :30] - lattice.pi[:30, :30])) <= 1e-13
    assert table.residual <= 1e-14


@pytest.mark.parametrize("rates", TANDEM_SETS)
@pytest.mark.parametrize("x_max,y_max", [(1, 1), (5, 9), (12, 3)])
def test_tandem_product_form_states_the_mass_outside_its_window(rates, x_max, y_max):
    params = make_params(*rates, model=Model.MODEL2)
    table = stationary_table(params, x_max=x_max, y_max=y_max)
    assert table.pi.shape == (x_max + 1, y_max + 1, 2)
    assert table.total() == pytest.approx(1.0 - table.tail_mass_bound, abs=1e-14)
    assert table.residual <= 1e-14
    # the y-free marginal is Model 1's law at the same rates
    station1 = exact_stationary_model1(make_params(*rates), k_max=x_max)
    r = rates[0] / rates[1]
    assert np.allclose(table.pi[:, 0], (1 - r) * station1.pi, rtol=1e-15, atol=0)


def test_stationary_table_needs_both_sides_and_stability():
    for model, p in [(Model.MODEL1, 1.0), (Model.MODEL2, 1.0), (Model.MODEL2, 0.5),
                     (Model.RSRD, 0.5)]:
        # lambda = 31 is above every chain's bound, 29.7 at p = 1 and 15 at p = 0.5
        with pytest.raises(UnstableParameters, match="requires a stable parameter set"):
            stationary_table(make_params(31, 30, 0.1, 10, p=p, model=model), x_max=5, y_max=5)
        stable = make_params(10, 30, 0.1, 10, p=p, model=model)
        if model is Model.MODEL1:   # Model 1 has no y side, and its refusal names none
            for y_max in (5, None):
                with pytest.raises(InvalidParameters) as refusal:
                    stationary_table(stable, 0, y_max)
                assert str(refusal.value) == "the lattice needs x_max >= 1, got x_max=0"
            continue
        for x_max, y_max in [(0, 5), (5, 0), (5, None)]:
            with pytest.raises(InvalidParameters, match="x_max >= 1 and y_max >= 1"):
                stationary_table(stable, x_max=x_max, y_max=y_max)
    # the feedback tandem has no product form: its table is the truncated lattice's
    half = make_params(10, 30, 0.1, 10, p=0.5, model=Model.MODEL2)
    assert np.array_equal(stationary_table(half, x_max=20, y_max=20).pi,
                          truncated_stationary(half, x_max=20, y_max=20).pi)


test_model1_tail_path_of_a_stack_equals_each_sets_bit_for_bit = bound(SLICES, "tail-path")


def test_tandem_eta_refuses_a_boundary_sum_that_does_not_converge():
    # lambda/mu < gamma_p on every stable p = 1 tandem (q(mu/lambda) = -mu alpha < 0 puts
    # mu/lambda between the roots), so the pass's gamma_p is planted
    twist = twist_summary(T2)
    roots = dataclasses.replace(twist.roots, gamma_p=T2.lam / T2.mu)
    with pytest.raises(ArithmeticError, match="^boundary sum not summable: lambda/mu >= gamma_p$"):
        tail_constants(dataclasses.replace(twist, roots=roots))


def test_a_tandem_stack_is_refused_by_name_before_any_solve(monkeypatch):
    # the tandem's eta reads one set's truncated table; a stack has none to read
    def no_solve(*args, **kwargs):
        raise AssertionError("the truncated solve ran")

    monkeypatch.setattr(asymptotics, "truncated_stationary", no_solve)
    stack = stack_of([T2, make_params(5, 30, 0.2, 10, model=Model.MODEL2)])
    for call in (prefactors, lambda params: tail_constants(twist_summary(params))):
        with pytest.raises(InvalidParameters) as refusal:
            call(stack)
        assert str(refusal.value) == ("the tandem's eta reads one set's truncated table, "
                                      "not a stack")
