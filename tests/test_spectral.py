from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.optimize import brentq

from uqtail import (InvalidParameters, Model, UnstableParameters, boundary_vector,
                    characteristic_roots, conditioned_excursion_slope, exact_stationary_model1,
                    feynman_kac, harmonic, make_params, prefactors, stability, stationary_table,
                    twist_summary, two_term_tail)
from uqtail.spectral import _t2_minus_1
from uqtail.verify import check_perron_root, random_params

from reference import DIGITS, SLOW_SWITCHING, model1, relative_error
from tables import A, B, GATES, SLICES, bound, margin_sets


def quadratic(params, t):
    lam, mup = params.lam, params.mu * params.p
    return (lam * lam * t * t
            - lam * (mup + lam + params.alpha + params.beta) * t
            + mup * (lam + params.beta))


def bisection_roots(params):
    """Independent root finder: bracket each root around the vertex."""
    lam, mup = params.lam, params.mu * params.p
    vertex = (mup + lam + params.alpha + params.beta) / (2 * lam)
    hi = vertex
    while quadratic(params, hi) >= 0:
        hi *= 2  # past the larger root
    lo = vertex / 1e8
    t_small = brentq(lambda t: quadratic(params, t), lo, vertex, xtol=1e-14, rtol=1e-15)
    t_large = brentq(lambda t: quadratic(params, t), vertex, hi * 2, xtol=1e-14, rtol=1e-15)
    return t_small, t_large


def test_reference_values_params_a():
    sol = characteristic_roots(A)
    assert sol.s_p == pytest.approx(87.21)
    assert sol.gamma_p == pytest.approx(0.919060, abs=1e-6)
    assert sol.gamma_secondary == pytest.approx(0.494577, abs=1e-6)
    assert sol.g_constant == pytest.approx(9.228972, abs=1e-6)


def test_the_tilt_equation_holds_at_t2():
    # lambda q(t2) = lambda^2 t2 (t2 - 1) - mu p beta < 0, q(t) = 2 lambda t^2 - (alpha + beta
    # + mu p + 2 lambda) t + mu p, reads t2 < mu p (lambda + 2 beta) / (lambda (mu p + alpha +
    # beta)): lambda t1 > max(lambda + beta, mu p + alpha) bounds t2 = mu p (lambda + beta) /
    # (lambda^2 t1) below it for every positive set, stable or not.  On the first slow-switching
    # set the margin is 1.6e-17 relative, below a double's rounding of t2
    for rates in [(10, 11, 0.1, 10), (20, 60, 0.01, 1), (12, 11, 0.1, 10), *SLOW_SWITCHING]:
        lam, mu, alpha, beta = (Decimal(float(rate)) for rate in rates)
        with localcontext() as ctx:
            ctx.prec = DIGITS
            assert model1(*rates)["t2"] < mu * (lam + 2 * beta) / (lam * (mu + alpha + beta))


def test_reference_values_params_b():
    sol = characteristic_roots(B)
    assert sol.gamma_p == pytest.approx(0.952626, abs=1e-6)


def test_roots_match_bisection_oracle():
    rng = np.random.default_rng(1)
    for _ in range(40):
        p = float(rng.choice([0.5, 1.0]))
        params = random_params(rng, p=p,
                               model=Model.MODEL1 if p == 1.0 else Model.MODEL2)
        sol = characteristic_roots(params)
        t_small, t_large = bisection_roots(params)
        assert sol.t2 == pytest.approx(t_small, rel=1e-10)
        assert sol.t1 == pytest.approx(t_large, rel=1e-10)


def test_t2_precision_at_tiny_alpha():
    params = make_params(20, 60, 1e-12, 1)
    sol = characteristic_roots(params)
    # product of roots is exact, so gamma_p keeps full precision
    assert sol.t1 * sol.t2 == pytest.approx(
        params.mu * (params.lam + params.beta) / params.lam ** 2, rel=1e-14)
    assert sol.gamma_p == pytest.approx(20 / 21, rel=1e-9)


@pytest.mark.parametrize("alpha", [1e-17, 1e-30, 5e-324])
def test_vanishing_alpha_below_the_split(alpha):
    # mu < lambda + beta, so den = lambda + beta - mu - alpha + sqrt(s) = 18 once alpha
    # is lost in rounding, where the other branch's sqrt(s) + c would be 0; a stack
    # with a set on either side of the split gives each set's values
    sol = characteristic_roots(make_params(10.0, 11.0, alpha, 10.0))
    assert (sol.den, sol.g_constant) == (18.0, 9.0)
    stack = characteristic_roots(make_params(np.array([10.0, 10.0]), np.array([11.0, 60.0]),
                                             np.array([alpha, 0.1]), np.array([10.0, 10.0])))
    other = characteristic_roots(make_params(10.0, 60.0, 0.1, 10.0))
    assert stack.den.tolist() == [18.0, other.den]
    assert stack.t2.tolist() == [sol.t2, other.t2]


@pytest.mark.parametrize("model", [Model.MODEL1, Model.MODEL2])
def test_underflowing_t2_is_refused_by_name(model):
    # t2 = mu p (lam + beta) / (lam^2 t1) is about 1e-450 and underflows to 0
    with pytest.raises(ArithmeticError, match=r"t2 underflows to 0 at lambda = 1e\+150") as exc:
        characteristic_roots(make_params(1e150, 1e-300, 1, 1, model=model))
    assert not isinstance(exc.value, ZeroDivisionError)


@pytest.mark.parametrize("model", [Model.MODEL1, Model.MODEL2], ids=["model1", "tandem"])
def test_light_load_t2_matches_a_50_digit_reference(model):
    # lam^2 is subnormal below lam = 1.5e-154 and 0 below 1.5e-162: t2 must not read it
    for exponent in range(150, 306, 5):
        lam = 10.0 ** -exponent
        t2 = characteristic_roots(make_params(lam, 11, 0.1, 10, model=model)).t2
        assert relative_error(t2, model1(lam, 11, 0.1, 10)["t2"]) <= Decimal("1e-15"), lam


def test_the_margin_t2_minus_1_matches_the_reference():
    # t2 - 1 from q(1) rounded once; it measures at most 3.4e-16 on the corpus, 2.1e-16 on A's
    # rates, and 1 - gamma_1 is 1.3e-19 on the corpus set whose gamma_1 rounds to 1
    for row in margin_sets():
        params = make_params(*row)
        margin = _t2_minus_1(params, characteristic_roots(params).sqrt_s)
        assert relative_error(margin, model1(*row)["t2"] - 1) <= Decimal("1e-15"), row


test_a_stack_forms_each_sets_own_margin_bit_for_bit = bound(SLICES, "margin")


def test_unstable_set_has_gamma_above_one():
    params = make_params(12, 11, 0.1, 10)
    assert not stability(params).stable
    assert characteristic_roots(params).gamma_p >= 1.0


def power_iteration_root(matrix, iters=2000):
    v = np.ones(2)
    value = 1.0
    for _ in range(iters):
        v = matrix @ v
        value = np.max(v)
        v = v / value
    return value


def test_feynman_kac_perron_matches_power_iteration():
    for theta in (-0.2, 0.0, 0.15):
        matrix, root = feynman_kac(A, theta)
        assert root == pytest.approx(power_iteration_root(matrix), rel=1e-12)


def test_feynman_kac_root_one_at_log_t2():
    result = check_perron_root(20, 2)
    assert result.passed, result.detail


def test_feynman_kac_requires_p_one():
    params = make_params(10, 30, 0.1, 10, p=0.5, model=Model.MODEL2)
    with pytest.raises(InvalidParameters):
        feynman_kac(params, 0.1)


def test_stability_report():
    rep = stability(A)
    assert rep.stable and rep.if_and_only_if
    assert rep.effective_rate == pytest.approx(10 / 10.1 * 11)
    rep2 = stability(make_params(10, 30, 0.1, 10, p=0.5, model=Model.MODEL2))
    assert rep2.stable and not rep2.if_and_only_if


UNSTABLE = make_params(12, 11, 0.1, 10)   # load 12 / 10.89: above the bound
BOUND = "lambda < beta/(alpha+beta) mu p"


@pytest.mark.parametrize("call,stage", [
    (harmonic, "the harmonic function"),
    (twist_summary, "the twist"),
    (boundary_vector, "the boundary vector"),
    (two_term_tail, "the two-term expansion"),
    (lambda params: exact_stationary_model1(params, 5), "the boundary vector"),
    (lambda params: stationary_table(params, 5), "the stationary table"),
    (lambda params: conditioned_excursion_slope(params, 5), "the excursion slope"),
    (lambda params: prefactors(make_params(20, 30, 0.1, 10, p=0.5, model=Model.MODEL2)),
     "the shape-only tail"),
], ids=["harmonic", "twist", "boundary", "two-term", "exact-table", "stationary-table", "slope",
        "shape-only"])
def test_the_stability_gate_names_its_stage(call, stage):
    # every stage refuses an unstable set through one gate, with one text
    with pytest.raises(UnstableParameters) as refusal:
        call(UNSTABLE)
    lam = 20.0 if stage == "the shape-only tail" else 12.0
    assert str(refusal.value) == (f"{stage} requires a stable parameter set, {BOUND}; "
                                  f"got lambda = {lam}")


test_the_stability_gate_names_the_first_unstable_set_of_a_stack = bound(
    GATES, "stability-twist", "stability-boundary", "stability-rsrd")
