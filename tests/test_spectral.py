import math

import numpy as np
import pytest
from scipy.optimize import brentq

from uqtail import (InvalidParameters, Model, characteristic_roots,
                    feynman_kac, make_params, stability)
from uqtail.verify import random_params

A = make_params(10, 11, 0.1, 10)
B = make_params(20, 60, 0.01, 1)


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
    assert sol.t2_valid


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
    rng = np.random.default_rng(2)
    for _ in range(20):
        params = random_params(rng)
        sol = characteristic_roots(params)
        _, root = feynman_kac(params, math.log(sol.t2))
        assert root == pytest.approx(1.0, abs=1e-11)


def test_feynman_kac_requires_p_one():
    params = make_params(10, 30, 0.1, 10, p=0.5, model=Model.MODEL2)
    with pytest.raises(InvalidParameters):
        feynman_kac(params, 0.1)


def test_stability_report():
    rep = stability(A)
    assert rep.stable and rep.if_and_only_if
    assert rep.effective_rate == pytest.approx(10 / 10.1 * 11)
    rep2 = stability(make_params(10, 30, 0.1, 10, p=0.5, model=Model.MODEL2))
    assert rep2.stable and rep2.if_and_only_if is False
