import numpy as np
import pytest

from uqtail import (DOWN, UP, InvalidParameters, Model, UnstableParameters,
                    characteristic_roots, free_kernel, harmonic,
                    horizontal_drift, make_params, markov_part_stationary,
                    model2_twist_rates, twisted_kernel, twist_summary)
from uqtail.verify import random_params

A = make_params(10, 11, 0.1, 10)
T2 = make_params(10, 30, 0.1, 10, model=Model.MODEL2)


def test_reference_harmonic_weights():
    h = harmonic(A)
    sol = characteristic_roots(A)
    assert h.base == pytest.approx(sol.t2)
    assert h.down_weight == pytest.approx(1.096574, abs=1e-6)


def test_down_weight_matches_linear_oracle():
    # the Down row of the free kernel pins the weight:
    # beta * w_up = (lambda + beta - lambda * t2) * w_down
    rng = np.random.default_rng(3)
    for _ in range(30):
        params = random_params(rng)
        h = harmonic(params)
        lam, beta = params.lam, params.beta
        assert h.down_weight == pytest.approx(
            beta / (lam + beta - lam * h.base), rel=1e-10)


def test_harmonicity_residual_small():
    rng = np.random.default_rng(4)
    for _ in range(30):
        model = Model.MODEL1 if rng.random() < 0.5 else Model.MODEL2
        p = 1.0 if model is Model.MODEL1 else float(rng.choice([0.5, 1.0]))
        params = random_params(rng, p=p, model=model)
        h = harmonic(params)
        states = [(0, UP), (4, DOWN)] if model is Model.MODEL1 \
            else [(0, 0, UP), (4, 3, DOWN), (2, 0, DOWN)]
        for state in states:
            lhs = sum(prob * h.value(t)
                      for t, prob in free_kernel(params, state).targets)
            assert lhs == pytest.approx(h.value(state), rel=1e-11)


def test_harmonic_requires_stability():
    with pytest.raises(UnstableParameters):
        harmonic(make_params(12, 11, 0.1, 10))


def test_twisted_rows_are_stochastic():
    for state in [(0, UP), (3, DOWN)]:
        assert twisted_kernel(A, state).total() == pytest.approx(1.0)
    # far from the origin h itself would overflow; the row must not
    row = twisted_kernel(A, (500, UP))
    assert row.total() == pytest.approx(1.0, rel=1e-12)


def test_twisted_row_far_in_y_does_not_overflow():
    # base^(x+y) overflows at y = 3000 on T2, though x = 0
    row = twisted_kernel(T2, (0, 3000, UP))
    assert row.total() == pytest.approx(1.0, rel=0, abs=1e-12)


def test_reference_twisted_probabilities():
    row = twisted_kernel(A, (5, UP)).as_dict()
    assert row[(6, UP)] == pytest.approx(0.349861, abs=1e-6)
    # 2*lam*mu / (C*(lam+beta+mu+alpha-sqrt(s))) = 220/676.78 = 0.325069
    assert row[(4, UP)] == pytest.approx(0.325069, abs=1e-6)
    assert row[(5, DOWN)] == pytest.approx(0.003526, abs=1e-6)
    row_d = twisted_kernel(A, (5, DOWN)).as_dict()
    assert row_d[(5, UP)] == pytest.approx(0.293226, abs=1e-6)


def phase_kernel(params):
    """2x2 phase transition matrix of the twisted chain (x marginalized)."""
    k = np.zeros((2, 2))
    for sigma in (UP, DOWN):
        for t, prob in twisted_kernel(params, (0, sigma)).targets:
            k[sigma, t[1]] += prob
    return k


def test_phi_matches_power_iteration():
    rng = np.random.default_rng(5)
    for _ in range(20):
        params = random_params(rng)
        phi = markov_part_stationary(params)
        k = phase_kernel(params)
        v = np.array([0.5, 0.5])
        for _ in range(20000):
            v = v @ k
            v /= v.sum()
        assert phi == pytest.approx(v, rel=1e-8)
        assert phi.sum() == pytest.approx(1.0, rel=1e-12)


def test_reference_phi():
    phi = markov_part_stationary(A)
    assert phi[UP] == pytest.approx(0.988118, abs=1e-6)


def test_model2_twist_rates_identities():
    rng = np.random.default_rng(6)
    for _ in range(20):
        params = random_params(rng, model=Model.MODEL2)
        rates = model2_twist_rates(params)
        sol = characteristic_roots(params)
        # the twist preserves the phase chain's own decay structure:
        assert params.C * (rates.alpha_t + rates.beta_t) == pytest.approx(
            sol.g_constant, rel=1e-10)
        assert (rates.lam_t / rates.mu_t) * sol.gamma_p == pytest.approx(
            params.lam / params.mu, rel=1e-10)
        assert 0.0 < rates.B < 1.0


def test_model2_twist_rates_reject_feedback():
    params = make_params(10, 30, 0.1, 10, p=0.5, model=Model.MODEL2)
    with pytest.raises(InvalidParameters):
        model2_twist_rates(params)


def test_model2_phi_product_form():
    phi = markov_part_stationary(T2)
    total = sum(phi(y, s) for y in range(400) for s in (UP, DOWN))
    assert total == pytest.approx(1.0, rel=1e-10)
    assert phi(3, UP) / phi(2, UP) == pytest.approx(phi.ratio)


def test_drift_reference_and_agreement():
    d = horizontal_drift(A)
    assert d.value == pytest.approx(0.028654, abs=1e-6)
    assert d.estimate == pytest.approx(d.value, rel=1e-10)
    assert d.per_time == pytest.approx(d.value * 31.1)
    d2 = horizontal_drift(T2)
    assert d2.value > 0
    assert d2.estimate == pytest.approx(d2.value, rel=1e-10)


def test_drift_positive_on_random_sets():
    rng = np.random.default_rng(7)
    for _ in range(25):
        model = Model.MODEL1 if rng.random() < 0.5 else Model.MODEL2
        params = random_params(rng, model=model)
        assert horizontal_drift(params).value > 0


def test_twist_summary_shapes():
    s1 = twist_summary(A)
    assert s1.rates is None and len(s1.phi) == 2
    s2 = twist_summary(T2)
    assert s2.rates is not None
    assert s2.phi.B == pytest.approx(s2.rates.B)
