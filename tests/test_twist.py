import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from uqtail import (DOWN, UP, InvalidParameters, Model, StationaryTable,
                    UnstableParameters, characteristic_roots, free_kernel,
                    harmonic, make_params, prefactors, truncated_stationary,
                    twist_row, twist_summary)
from uqtail.cli import main
from uqtail.verify import check_harmonicity, random_params

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
    # 20 Model 1, 10 tandem p = 1 and 10 tandem p = 0.5 sets
    result = check_harmonicity(40, 4)
    assert result.passed, result.detail


def test_harmonic_requires_stability():
    with pytest.raises(UnstableParameters):
        harmonic(make_params(12, 11, 0.1, 10))


def test_twisted_rows_are_stochastic():
    h = harmonic(A)
    for state in [(0, UP), (3, DOWN)]:
        assert twist_row(free_kernel(A, state), h).total() == pytest.approx(1.0)
    # far from the origin h itself would overflow; the row must not
    row = twist_row(free_kernel(A, (500, UP)), h)
    assert row.total() == pytest.approx(1.0, rel=1e-12)


def test_twisted_row_far_in_y_does_not_overflow():
    # base^(x+y) overflows at y = 3000 on T2, though x = 0
    row = twist_row(free_kernel(T2, (0, 3000, UP)), harmonic(T2))
    assert row.total() == pytest.approx(1.0, rel=0, abs=1e-12)


def test_reference_twisted_probabilities():
    h = harmonic(A)
    row = twist_row(free_kernel(A, (5, UP)), h).as_dict()
    assert row[(6, UP)] == pytest.approx(0.349861, abs=1e-6)
    # 2*lam*mu / (C*(lam+beta+mu+alpha-sqrt(s))) = 220/676.78 = 0.325069
    assert row[(4, UP)] == pytest.approx(0.325069, abs=1e-6)
    assert row[(5, DOWN)] == pytest.approx(0.003526, abs=1e-6)
    row_d = twist_row(free_kernel(A, (5, DOWN)), h).as_dict()
    assert row_d[(5, UP)] == pytest.approx(0.293226, abs=1e-6)


def phase_kernel(params):
    """2x2 phase transition matrix of the twisted chain (x marginalized)."""
    k = np.zeros((2, 2))
    h = harmonic(params)
    for sigma in (UP, DOWN):
        for t, prob in twist_row(free_kernel(params, (0, sigma)), h).targets:
            k[sigma, t[1]] += prob
    return k


def test_phi_matches_power_iteration():
    rng = np.random.default_rng(5)
    for _ in range(20):
        params = random_params(rng)
        phi = twist_summary(params).phi
        k = phase_kernel(params)
        v = np.array([0.5, 0.5])
        for _ in range(20000):
            v = v @ k
            v /= v.sum()
        assert phi == pytest.approx(v, rel=1e-8)
        assert phi.sum() == pytest.approx(1.0, rel=1e-12)


def test_reference_phi():
    phi = twist_summary(A).phi
    assert phi[UP] == pytest.approx(0.988118, abs=1e-6)


def test_model2_twist_rates_identities():
    rng = np.random.default_rng(6)
    for _ in range(20):
        params = random_params(rng, model=Model.MODEL2)
        rates = twist_summary(params).rates
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
        twist_summary(params)


def test_model2_phi_product_form():
    phi = twist_summary(T2).phi
    total = sum(phi(y, s) for y in range(400) for s in (UP, DOWN))
    assert total == pytest.approx(1.0, rel=1e-10)
    assert phi(3, UP) / phi(2, UP) == pytest.approx(phi.ratio)


def test_drift_reference_and_agreement():
    d = twist_summary(A).drift
    assert d.value == pytest.approx(0.028654, abs=1e-6)
    assert d.estimate == pytest.approx(d.value, rel=1e-10)
    assert d.per_time == pytest.approx(d.value * 31.1)
    d2 = twist_summary(T2).drift
    assert d2.value > 0
    assert d2.estimate == pytest.approx(d2.value, rel=1e-10)


def test_drift_positive_on_random_sets():
    rng = np.random.default_rng(7)
    for _ in range(25):
        model = Model.MODEL1 if rng.random() < 0.5 else Model.MODEL2
        params = random_params(rng, model=model)
        assert twist_summary(params).drift.value > 0


def test_twist_summary_shapes():
    s1 = twist_summary(A)
    assert s1.rates is None and len(s1.phi) == 2
    s2 = twist_summary(T2)
    assert s2.rates is not None
    assert s2.phi.B == pytest.approx(s2.rates.B)


def reference(lam, mu, alpha, beta, C):
    """50-digit values for p = 1: g by its definition; h(0, D), the phase
    shares and the drift from the twisted rows, and Model 1's eta from the
    level-0 null vector, not from the closed forms under test."""
    with localcontext() as ctx:
        ctx.prec = 50
        lam, mu, alpha, beta, C = (Decimal(v) for v in (lam, mu, alpha, beta, C))
        sqrt_s = ((mu - lam - beta - alpha) ** 2 + 4 * alpha * mu).sqrt()
        den = lam + beta - mu - alpha + sqrt_s
        t2 = (lam + beta + mu + alpha - sqrt_s) / (2 * lam)
        w = beta / (lam + beta - lam * t2)   # h(0, D), from the Down row
        # the twisted phase chain moves U -> D w.p. alpha w / C, D -> U w.p. beta / (w C)
        shares = [beta / (beta + alpha * w * w), alpha * w * w / (beta + alpha * w * w)]
        # mean x-increments of the twisted rows: +lam t2 / C in both phases (for the
        # tandem, mu / C from y >= 1, whose phi mass is lam t2 / mu), -mu / (t2 C) in Up
        drift = (lam * t2 - mu * shares[UP] / t2) / C
        # Model 1: pi0 solves pi0 (P1_boundary + R P2 - I) = 0 and pi0 (I - R)^-1 1 = 1
        r = [[lam / mu, lam * alpha / (mu * (lam + beta))],
             [lam / mu, lam * (alpha + mu) / (mu * (lam + beta))]]
        null = [beta / C + r[1][0] * mu / C, -(1 - (lam + alpha) / C + r[0][0] * mu / C - 1)]
        (a, b), (c, d) = ([1 - r[0][0], -r[0][1]], [-r[1][0], 1 - r[1][1]])
        norm = (null[0] * (d - b) + null[1] * (a - c)) / (a * d - b * c)
        # eta = sum pi0 h(0, .) escape, escape = (lam t2 / C)(1 - G~1) for the
        # twisted first passage G~(sigma, U) = 1 / (t2 h(0, sigma)), G~(sigma, D) = 0
        eta = sum(pi * (lam * t2 * h0 - lam) / C
                  for pi, h0 in zip(null, (1, w))) / norm
        return {"g": den / 2 + 2 * alpha * beta / den, "w": w, "t2": t2,
                "shares": shares, "drift": drift, "eta": eta}


def synthetic_boundary(twist):
    """Tandem table whose boundary weights pi h halve with each y, so that
    eta, and C(sigma) with it, are defined at any alpha."""
    pi = np.array([[[0.5 ** y / twist.harmonic.value((0, y, s)) / 2 for s in (UP, DOWN)]
                    for y in range(5)]])
    return StationaryTable(pi=pi, model=Model.MODEL2, residual=0.0, tail_mass_bound=0.0)


@pytest.mark.parametrize("alpha", [1e-1, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("rates,model", [
    ((10, 11, 10), Model.MODEL1),   # mu < lambda + beta
    ((20, 60, 1), Model.MODEL1),    # mu > lambda + beta
    ((10, 15, 10), Model.MODEL2),   # mu < lambda + beta
    ((10, 30, 10), Model.MODEL2),   # T2's rates
    ((1, 50, 0.6), Model.MODEL2),   # mu > lambda + beta
], ids=["m1-below", "m1-above", "tandem-below", "tandem-T2", "tandem-above"])
def test_small_alpha_matches_a_50_digit_reference(rates, model, alpha):
    lam, mu, beta = rates
    params = make_params(lam, mu, alpha, beta, model=model)
    twist = twist_summary(params)
    ref = reference(lam, mu, alpha, beta, params.C)
    tandem = model is Model.MODEL2
    table = synthetic_boundary(twist) if tandem else None
    asym = prefactors(params, table=table)
    # phi(0, sigma) is the phase share times B = 1 - lam t2 / mu for the tandem
    mass = 1 - lam * ref["t2"] / mu if tandem else 1
    phi0 = [twist.phi(0, s) for s in (UP, DOWN)] if tandem else list(twist.phi)
    h0 = (1, ref["w"])
    values = {"g": (twist.roots.g_constant, ref["g"]),
              "h(0, D)": (twist.harmonic.down_weight, ref["w"]),
              "drift": (twist.drift.value, ref["drift"])}
    if not tandem:
        values["eta"] = (asym.eta, ref["eta"])
    for sigma, key in ((UP, "up"), (DOWN, "down")):
        phi = mass * ref["shares"][sigma]
        values[f"phi(0, {key})"] = (phi0[sigma], phi)
        values[f"C({key})/eta"] = (getattr(asym, f"prefactor_{key}") / asym.eta,
                                   phi / (ref["drift"] * h0[sigma]))
    for name, (value, exact) in values.items():
        assert abs(Decimal(value) / exact - 1) <= Decimal("1e-13"), name


NAMES = ("characteristic_roots", "stability", "row_classes", "twist_row")


@pytest.fixture
def call_counts(monkeypatch):
    """Counts calls of NAMES through every uqtail namespace that binds them."""
    counts = dict.fromkeys(NAMES, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    originals = {name: getattr(sys.modules[module], name) for name, module in (
        ("characteristic_roots", "uqtail.spectral"), ("stability", "uqtail.spectral"),
        ("row_classes", "uqtail.kernels"), ("twist_row", "uqtail.twist"))}
    for module in [m for name, m in sys.modules.items() if name.startswith("uqtail")]:
        for name, fn in originals.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    return counts


def test_one_twist_pass_per_call(call_counts, tmp_path):
    table = truncated_stationary(T2, x_max=40, y_max=40)
    call_counts.update(dict.fromkeys(NAMES, 0))
    # analyze: the report's spectral and stability, one pass, and the boundary solve,
    # which builds no blocks
    flags = ["--lambda", "10", "--mu", "11", "--alpha", "0.1", "--beta", "10"]
    assert main(["analyze", *flags, "--out", str(tmp_path)]) == 0
    assert call_counts == {"characteristic_roots": 2, "stability": 3,
                           "row_classes": 1, "twist_row": 2}
    call_counts.update(dict.fromkeys(NAMES, 0))
    # one pass: four twisted x0 = 1 class rows of the tandem
    prefactors(T2, table=table)
    assert call_counts == {"characteristic_roots": 1, "stability": 1,
                           "row_classes": 1, "twist_row": 4}
