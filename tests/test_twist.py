import dataclasses
import functools
import importlib
import inspect
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from uqtail import (DOWN, UP, InvalidParameters, Model, StationaryTable,
                    UnstableParameters, characteristic_roots, conditioned_excursion_slope,
                    exact_stationary_model1, harmonic, make_params, prefactors,
                    stationary_table, truncated_stationary, twist_summary)
from uqtail import kernels, spectral, twist
from uqtail.cli import main
from uqtail.kernels import _fold, _moves, level_blocks
from uqtail.verify import check_harmonicity, random_params

import pins
from reference import model1
from tables import A, BOUND, GATES, SLICES, T2, assert_set_in_stack, bound, stack_of


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
    for origin in [(1, UP), (1, DOWN)]:   # the free rows' classes
        assert sum(prob for _, prob in _fold(_moves(A), origin, h=h)) == pytest.approx(1.0)


def test_twisted_row_far_in_y_does_not_overflow():
    # base^(x+y) overflows at y = 3000 on T2, though x = 0; h.ratio reads only
    # the change in exponent, so the twisted row there stays finite and stochastic
    h, state = harmonic(T2), (0, 3000, UP)
    with pytest.raises(OverflowError, match=r"^h\(0, 3000, 0\) overflows: "
                                            r"t2 = 1\.9805717398919083 to the power 3000$"):
        h.value(state)
    probs = [prob * h.ratio(state, (state[0] + step[0], state[1] + step[1], UP + step[2]))
             for step, prob in _fold(_moves(T2), (1, 1, UP))]
    assert np.all(np.isfinite(probs))
    assert sum(probs) == pytest.approx(1.0, rel=0, abs=1e-12)


def test_reference_twisted_probabilities():
    # the twisted (up, local, down) blocks at x0 = 1: the rows from (5, sigma)
    up, local, down = level_blocks(A, h=harmonic(A))
    assert up[UP, UP] == pytest.approx(0.349861, abs=1e-6)
    # 2*lam*mu / (C*(lam+beta+mu+alpha-sqrt(s))) = 220/676.78 = 0.325069
    assert down[UP, UP] == pytest.approx(0.325069, abs=1e-6)
    assert local[UP, DOWN] == pytest.approx(0.003526, abs=1e-6)
    assert local[DOWN, UP] == pytest.approx(0.293226, abs=1e-6)


def phase_kernel(params):
    """2x2 phase transition matrix of the twisted chain (x marginalized)."""
    return sum(level_blocks(params, h=harmonic(params)))


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


def synthetic_boundary(twist):
    """Tandem table whose boundary weights pi h halve with each y, so that
    eta, and C(sigma) with it, are defined at any alpha."""
    pi = np.array([[[0.5 ** y / twist.harmonic.value((0, y, s)) / 2 for s in (UP, DOWN)]
                    for y in range(5)]])
    return StationaryTable(pi=pi, residual=0.0, tail_mass_bound=0.0)


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
    ref = model1(lam, mu, alpha, beta, params.C)
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
        phi = mass * ref["phi"][sigma]
        values[f"phi(0, {key})"] = (phi0[sigma], phi)
        values[f"C({key})/eta"] = (getattr(asym, f"prefactor_{key}") / asym.eta,
                                   phi / (ref["drift"] * h0[sigma]))
    for name, (value, exact) in values.items():
        assert abs(Decimal(value) / exact - 1) <= Decimal("1e-13"), name


# lambda/mu from 1e-2 down to 1e-10 at two scales of mu, for Model 1 and the p = 1 tandem
LIGHT_LOAD = [(ratio * mu, mu, alpha, beta)
              for mu, alpha, beta in ((1.0, 0.1, 1.0), (1e6, 0.1, 1e-4))
              for ratio in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10) if ratio < beta / (alpha + beta)]


@pytest.mark.parametrize("model", [Model.MODEL1, Model.MODEL2], ids=["model1", "tandem"])
@pytest.mark.parametrize("rates", LIGHT_LOAD, ids=[f"{r[0]:g}-{r[1]:g}" for r in LIGHT_LOAD])
def test_light_load_drift_matches_a_50_digit_reference(rates, model):
    # den_minus = b - sqrt(s) taken as a difference loses up to 4.3e-7 of the drift here
    params = make_params(*rates, model=model)
    twist = twist_summary(params)
    ref = model1(*rates, params.C)
    values = {"drift": (twist.drift.value, ref["drift"])}
    if model is Model.MODEL2:   # lam_t = lam t2 / C, the twisted y-birth
        values["lam_t"] = (twist.rates.lam_t, Decimal(rates[0]) * ref["t2"] / Decimal(params.C))
    for name, (value, exact) in values.items():
        assert abs(Decimal(value) / exact - 1) <= Decimal("1e-13"), name


def test_drift_gate_is_relative_to_its_terms(monkeypatch):
    # at load 1e-7 the drift is 2e-10 per step, so an absolute 1e-10 gate passes
    # any den_minus; planted through sqrt(s), which only den_minus reads
    params = make_params(1e-4, 1e6, 0.1, 1e-4)
    b = params.lam + params.beta + params.mu + params.alpha

    def roots(params):
        sol = characteristic_roots(params)
        return dataclasses.replace(sol, sqrt_s=(b + sol.sqrt_s) / (1.0 + 1e-9) - b)
    assert not twist._twist(params)[1]
    monkeypatch.setattr(twist, "characteristic_roots", roots)
    scaled, disagree, _ = twist._twist(params)
    monkeypatch.undo()
    assert scaled.drift.value != twist_summary(params).drift.value
    assert disagree


NAMES = ("characteristic_roots", "stability", "validate", "_moves", "_t2_minus_1")


@pytest.fixture
def call_counts(monkeypatch):
    """Counts calls of NAMES through every uqtail namespace that binds them."""
    counts = dict.fromkeys(NAMES, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = (spectral, sys.modules["uqtail.params"], kernels)   # where each is defined
    originals = {name: getattr(m, name) for m in modules for name in NAMES if hasattr(m, name)}
    for module in [m for name, m in sys.modules.items() if name.startswith("uqtail")]:
        for name, fn in originals.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    return counts


_t2_table = functools.cache(lambda: truncated_stationary(T2, x_max=40, y_max=40))


# a call, a pin of pins.json run in process or a library call, and its counts of NAMES: one
# pass per set.  A pass is the set's gate (`stability`, whose report analyze reports) and
# roots, a move table for its blocks (the twisted ones give the drift and the escape check)
# and the margin t2 - 1, once, where escape(Up) and pi0 read it
PASSES = [
    ("analyze-A", (1, 1, 1, 1, 1)),
    # the p = 1 tandem: no margin; eta's escape blocks at the two y cuts and its 60 x 60 table
    ("analyze-tandem-1-50", (1, 1, 1, 4, 0)),
    ("analyze-T2-p0.5", (1, 1, 1, 0, 0)),   # the shape-only tail: the gate and the roots
    # --limits evaluates a second set, at alpha = 1e-6 (the feedback tandem's: roots alone)
    ("analyze-A-limits", (2, 2, 2, 2, 2)),
    ("analyze-T2-p0.5-limits", (2, 1, 2, 0, 0)),
    ("analyze-rsrd", (0, 1, 1, 0, 0)),
    # the table's balance check reads the moves; the p = 1 tandem's roots are station 1's
    ("tailfit-A", (1, 1, 1, 1, 1)),
    ("tailfit-T2", (1, 1, 1, 1, 1)),
    ("tailfit-T2-p0.5", (0, 1, 1, 1, 0)),
    ("compare-mm1-A", (1, 0, 1, 0, 1)),
    ("simulate-B", (0, 0, 1, 1, 0)),
    ("ldpath-A", (0, 0, 1, 1, 0)),
    # the invariant suite's stacks; its four Model 1 passes that read the margin (the tail
    # reproduction, exact-coefficient, eta-bounds and escape checks) form it once each
    ("verify-200-7", (17, 13, 19, 16, 4)),
    # a pass, then eta's escape blocks at the two y cuts of the given table
    (lambda: prefactors(T2, table=_t2_table()), (1, 1, 0, 3, 0)),
    # bare roots, through the counted namespace: the margin is left to the stages that read it
    (lambda: spectral.characteristic_roots(A), (1, 0, 0, 0, 0)),
    (lambda: stationary_table(A, 50), (1, 1, 0, 1, 1)),
    (lambda: exact_stationary_model1(A, 50), (1, 1, 0, 1, 1)),
    (lambda: conditioned_excursion_slope(A, 30), (1, 1, 0, 1, 1)),
]


def test_one_twist_pass_per_call(call_counts, tmp_path):
    table, _ = pins.load(), _t2_table()   # T2's table is built outside its row's counts
    named = {pin["name"]: pin for pin in table["pins"]}
    for call, counts in PASSES:
        call_counts.update(dict.fromkeys(NAMES, 0))
        if isinstance(call, str):
            assert pins.check(named[call], tmp_path, table) == []
        else:
            call()
        assert call_counts == dict(zip(NAMES, counts)), \
            call if isinstance(call, str) else inspect.getsource(call)
    # the tail record carries its pass: the stability report, twist and roots of A's own
    # pass, bit for bit
    asym, own = prefactors(A), twist_summary(A)
    for carried, mine, name in ((asym.stability, own.stability, "stability"),
                                (asym.twist, own, "twist"), (asym.roots, own.roots, "roots")):
        assert_set_in_stack(carried, mine, None, name)


def test_every_row_is_bound_once():
    # a row runs only under the test that binds it, in the module that imports it
    for path in Path(__file__).parent.glob("test_*.py"):
        importlib.import_module(path.stem)
    for table in (SLICES, GATES):
        assert sorted(row for of, row in BOUND if of is table) == sorted(table)


test_stacked_twist_equals_each_set_bit_for_bit = bound(SLICES, model1="twist-model1",
                                                       tandem="twist-tandem")
test_stacked_escape_equals_each_set_bit_for_bit = bound(SLICES, "escape")
test_drift_disagreement_raises_naming_the_set = bound(GATES, "drift-disagree")
test_nonpositive_drift_raises_naming_the_set = bound(GATES, "drift-tandem")
test_the_first_failing_set_wins_over_the_first_failing_row = bound(GATES, "drift-first-set")
test_escape_gate_raises_naming_the_set = bound(GATES, "escape-decay")


def test_a_nan_drift_fails_both_drift_gates(tmp_path, capsys):
    # lam mu den and g den_minus both underflow to 0, so the loss and the drift are NaN,
    # which passed the gates as the comparisons |value - estimate| > bound and value <= 0
    rates = (6.936413542212146e-180, 1.7278590859006367e-28, 5.730760007110428e-149,
             1.868135705410208e-176)
    stack = stack_of([A, make_params(*rates)])
    _, disagree, nonpositive = twist._twist(stack)
    assert disagree.tolist() == nonpositive.tolist() == [False, True]
    message = "drift closed form nan and aggregate -0.00037116356045143486 disagree"
    for call in (twist_summary, prefactors):
        with pytest.raises(ArithmeticError) as error:
            call(stack)
        assert str(error.value) == f"{message} at stack index 1"
    flags = [v for pair in zip(("--lambda", "--mu", "--alpha", "--beta"), map(repr, rates))
             for v in pair]
    assert main(["analyze", *flags, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"verification failure: {message}\n"
