import dataclasses
import sys
from decimal import Decimal

import numpy as np
import pytest

from uqtail import (DOWN, UP, InvalidParameters, Model, StationaryTable,
                    UnstableParameters, characteristic_roots, harmonic,
                    make_params, prefactors, stability, truncated_stationary, twist_summary)
from uqtail import kernels, spectral, twist
from uqtail.asymptotics import _escape
from uqtail.cli import main
from uqtail.kernels import _fold, _moves, level_blocks
from uqtail.verify import check_drift, check_harmonicity, random_params, run_checks

from reference import model1

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


NAMES = ("characteristic_roots", "stability", "_moves", "_t2_minus_1")


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
        ("_moves", "uqtail.kernels"), ("_t2_minus_1", "uqtail.spectral"))}
    for module in [m for name, m in sys.modules.items() if name.startswith("uqtail")]:
        for name, fn in originals.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    return counts


def test_one_twist_pass_per_call(call_counts, tmp_path):
    table = truncated_stationary(T2, x_max=40, y_max=40)
    call_counts.update(dict.fromkeys(NAMES, 0))
    # analyze: one pass (a move table for its twisted blocks, which the drift and
    # the escape check read), whose roots the report's spectral and eta's boundary
    # read, and the report's stability; the margin t2 - 1, once, for escape(Up) and pi0
    flags = ["--lambda", "10", "--mu", "11", "--alpha", "0.1", "--beta", "10"]
    assert main(["analyze", *flags, "--out", str(tmp_path)]) == 0
    assert call_counts == {"characteristic_roots": 1, "stability": 2, "_moves": 1,
                           "_t2_minus_1": 1}
    call_counts.update(dict.fromkeys(NAMES, 0))
    # one pass (its blocks at y cut 1 give the drift and eta's up-block mass), then
    # eta's escape blocks at the two y cuts
    prefactors(T2, table=table)
    assert call_counts == {"characteristic_roots": 1, "stability": 1,
                           "_moves": 3, "_t2_minus_1": 0}
    call_counts.update(dict.fromkeys(NAMES, 0))
    # the feedback tandem's analyze: the shape-only tail's gate and roots, which the
    # report's spectral reads, and the report's stability
    flags = ["--lambda", "10", "--mu", "30", "--alpha", "0.1", "--beta", "10", "--p", "0.5"]
    assert main(["analyze", *flags, "--model", "model2", "--out", str(tmp_path)]) == 0
    assert call_counts == {"characteristic_roots": 1, "stability": 2, "_moves": 0,
                           "_t2_minus_1": 0}
    call_counts.update(dict.fromkeys(NAMES, 0))
    # bare roots, through the counted namespace: the margin is left to the stages that read it
    spectral.characteristic_roots(A)
    assert call_counts == {"characteristic_roots": 1, "stability": 0, "_moves": 0,
                           "_t2_minus_1": 0}
    call_counts.update(dict.fromkeys(NAMES, 0))
    # the invariant suite's four Model 1 passes that read the margin (the tail
    # reproduction, exact-coefficient, eta-bounds and escape checks) form it once each
    run_checks(200, 7)
    assert call_counts["_t2_minus_1"] == 4
    # the tail record carries its pass: the twist and roots of A's own pass, bit for bit
    asym = prefactors(A)
    for carried, own, name in ((asym.twist, twist_summary(A), "twist"),
                               (asym.roots, twist_summary(A).roots, "roots")):
        for (path, one), (_, other) in zip(_leaves(carried, name), _leaves(own, name),
                                           strict=True):
            if other is None or isinstance(other, Model):
                assert one is other, path
            else:
                assert np.asarray(one, float).tobytes() == np.asarray(other, float).tobytes(), path


def _stack(sets):
    """One stack of sets of one model, each with its own p and C."""
    return make_params(*(np.array([getattr(s, name) for s in sets])
                         for name in ("lam", "mu", "alpha", "beta")),
                       p=np.array([s.p for s in sets]), model=sets[0].model,
                       C=np.array([s.C for s in sets]))


def _leaves(obj, name):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _leaves(getattr(obj, f.name), f"{name}.{f.name}")
    elif isinstance(obj, tuple):
        for i, item in enumerate(obj):
            yield from _leaves(item, f"{name}[{i}]")
    else:
        yield name, obj


def _assert_set_in_stack(stacked, one, k, name):
    """Every leaf of `one` equals set k of the stacked leaf, bit for bit; a
    stack carries its sets on the leading axis."""
    for (path, many), (_, single) in zip(_leaves(stacked, name), _leaves(one, name), strict=True):
        if single is None or isinstance(single, Model):
            assert many is single, path
            continue
        many = np.asarray(many)
        at = many[k] if many.ndim else many
        assert np.asarray(at, float).tobytes() == np.asarray(single, float).tobytes(), path


B = make_params(20, 60, 0.01, 1)
_rng = np.random.default_rng(31)
STACK_SETS = {
    Model.MODEL1: [A, B, *(random_params(_rng) for _ in range(40))],
    Model.MODEL2: [T2, *(random_params(_rng, model=Model.MODEL2) for _ in range(40))],
}


@pytest.mark.parametrize("model", list(STACK_SETS), ids=["model1", "tandem"])
def test_stacked_twist_equals_each_set_bit_for_bit(model):
    sets = STACK_SETS[model]
    stacked = twist_summary(_stack(sets))
    for k, params in enumerate(sets):
        _assert_set_in_stack(stacked, twist_summary(params), k, "twist")


def test_stacked_escape_equals_each_set_bit_for_bit():
    sets = STACK_SETS[Model.MODEL1]
    esc = _escape(twist_summary(_stack(sets)))
    for k, params in enumerate(sets):
        _assert_set_in_stack(esc, _escape(twist_summary(params)), k, "escape")


def _first_up_move_scaled_at(k):
    """The interior moves with the first Up move scaled by 1 + 1e-3, in set k
    of a stack or in a single set."""
    def moves(params):
        (step, prob, low), *rest = _moves(params)[0]
        bump = 1.0 + 1e-3 * (np.arange(np.size(prob)) == k) if np.ndim(prob) else 1.0 + 1e-3
        return ((step, prob * bump, low), *rest), _moves(params)[1]
    return moves


def test_drift_disagreement_raises_naming_the_set(monkeypatch):
    monkeypatch.setattr(kernels, "_moves", _first_up_move_scaled_at(3))
    drift = twist._twist(A)[0].drift
    with pytest.raises(ArithmeticError) as error:
        twist_summary(A)
    # plain floats, whatever the numpy version's scalar repr
    assert str(error.value) == (f"drift closed form {float(drift.value)!r} and aggregate "
                                f"{float(drift.estimate)!r} disagree")
    assert "np." not in str(error.value)
    sets = STACK_SETS[Model.MODEL1]
    drift = twist._twist(_stack(sets))[0].drift
    with pytest.raises(ArithmeticError) as error:
        twist_summary(_stack(sets))
    assert str(error.value) == (f"drift closed form {drift.value[3].item()!r} and aggregate "
                                f"{drift.estimate[3].item()!r} disagree at stack index 3")
    # check_drift counts the one set of its Model 1 stack made to fail
    assert check_drift(50, 13).detail == "1 of 50 stable sets failed the drift contract"


def test_nonpositive_drift_raises_naming_the_set(monkeypatch):
    # an overloaded set passed off as stable has a negative twisted drift
    over = make_params(12, 11, 0.1, 10)
    monkeypatch.setattr(spectral, "stability", lambda params: dataclasses.replace(
        stability(params), stable=np.ones_like(params.lam, dtype=bool)))
    with pytest.raises(ArithmeticError) as error:
        twist_summary(over)
    assert str(error.value) == ("twisted chain drift is not positive (-0.03349979548720102); "
                                "tail method inapplicable for these parameters")
    with pytest.raises(ArithmeticError) as error:
        twist_summary(_stack([A, over, B]))
    assert str(error.value) == ("twisted chain drift at stack index 1 is not positive "
                                "(-0.03349979548720102); tail method inapplicable for these "
                                "parameters")


def test_the_first_failing_set_wins_over_the_first_failing_row(monkeypatch):
    # set 3 disagrees (the gate's first row), set 1 is not positive (its second)
    over = make_params(12, 11, 0.1, 10)
    monkeypatch.setattr(kernels, "_moves", _first_up_move_scaled_at(3))
    monkeypatch.setattr(spectral, "stability", lambda params: dataclasses.replace(
        stability(params), stable=np.ones_like(params.lam, dtype=bool)))
    with pytest.raises(ArithmeticError) as error:
        twist_summary(_stack([A, over, B, A]))
    assert str(error.value) == ("twisted chain drift at stack index 1 is not positive "
                                "(-0.03349979548720102); tail method inapplicable for these "
                                "parameters")


def test_a_nan_drift_fails_both_drift_gates(tmp_path, capsys):
    # lam mu den and g den_minus both underflow to 0, so the loss and the drift are NaN,
    # which passed the gates as the comparisons |value - estimate| > bound and value <= 0
    rates = (6.936413542212146e-180, 1.7278590859006367e-28, 5.730760007110428e-149,
             1.868135705410208e-176)
    stack = _stack([A, make_params(*rates)])
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


def _down_block_scaled_at(twist_pass, k):
    """The twist with its down block scaled by 1 + 1e-9, in set k of a stack
    or in a single set."""
    up, local, down = twist_pass.blocks
    bump = 1.0 + 1e-9 * (np.arange(len(down)) == k)[:, None, None] if down.ndim == 3 else 1.0 + 1e-9
    return dataclasses.replace(twist_pass, blocks=(up, local, down * bump))


def test_escape_gate_raises_naming_the_set():
    with pytest.raises(ArithmeticError) as error:
        _escape(_down_block_scaled_at(twist_summary(A), 5))
    assert str(error.value) == ("closed-form first-passage matrix fails: residual 3.25e-10 "
                                "(bound 1e-12), row sums [0.91905976 0.83811952] (must be < 1)")
    with pytest.raises(ArithmeticError,
                       match=r"^closed-form first-passage matrix at stack index 5 fails: "):
        _escape(_down_block_scaled_at(twist_summary(_stack(STACK_SETS[Model.MODEL1])), 5))
