import dataclasses
import inspect
import json
import math

import numpy as np
import pytest

import uqtail
from uqtail import (DOWN, UP, InvalidParameters, InvalidState, Model, ModelParams,
                    boundary_vector, characteristic_roots, conditioned_excursion_slope,
                    default_uniformization, exact_stationary_model1, feynman_kac,
                    full_kernel, harmonic, make_params, params_from_json, prefactors,
                    truncated_stationary, twist_summary, two_term_tail)
from uqtail import spectral
from uqtail.asymptotics import _escape
from uqtail.kernels import _fold, level_blocks
from uqtail.params import UnstableParameters, check_state
from uqtail.qbd import first_passage
from uqtail.spectral import stability

A = make_params(10, 11, 0.1, 10)
T2 = make_params(10, 30, 0.1, 10, model=Model.MODEL2)
T2_HALF = make_params(10, 30, 0.1, 10, p=0.5, model=Model.MODEL2)
RS_ONE = make_params(10, 30, 0.1, 10, model=Model.RSRD)


def test_default_uniformization():
    assert default_uniformization(10, 11, 0.1, 10, Model.MODEL1) == pytest.approx(31.1)
    assert default_uniformization(10, 30, 0.1, 10, Model.MODEL2) == pytest.approx(80.1)
    assert default_uniformization(10, 30, 0.1, 10, Model.RSRD) == pytest.approx(80.1)


def test_make_params_fills_c():
    p = make_params(10, 11, 0.1, 10)
    assert p.C == pytest.approx(31.1)
    assert p.p == 1.0


def test_explicit_c_validated():
    with pytest.raises(InvalidParameters):
        make_params(10, 11, 0.1, 10, C=5.0)
    p = make_params(10, 11, 0.1, 10, C=40.0)
    assert p.C == 40.0


def test_direct_construction_validates_and_fills_c(monkeypatch):
    assert ModelParams(10, 11, 0.1, 10) == make_params(10, 11, 0.1, 10)
    assert sum(p for _, p in full_kernel(ModelParams(10, 11, 0.1, 10), (3, UP)).targets) \
        == pytest.approx(1.0)
    with pytest.raises(InvalidParameters):
        ModelParams(10, 11, 0.1, 10, C=1.0)
    # make_params validates once: verify --grid builds about 1000 sets per run
    calls = []
    monkeypatch.setattr(uqtail.params, "validate", lambda params: calls.append(params))
    make_params(10, 11, 0.1, 10)
    assert len(calls) == 1


@pytest.mark.parametrize("kwargs", [
    dict(lam=-1.0, mu=11, alpha=0.1, beta=10),
    dict(lam=10, mu=0.0, alpha=0.1, beta=10),
    dict(lam=10, mu=11, alpha=-0.1, beta=10),
    dict(lam=10, mu=11, alpha=0.1, beta=0.0),
])
def test_positive_rates_required(kwargs):
    with pytest.raises(InvalidParameters):
        make_params(**kwargs)


@pytest.mark.parametrize("rates,message", [
    ((0, 11, 0.1, 10), "lambda must be > 0, got 0.0"),
    ((10, float("nan"), 0.1, 10), "mu must be > 0, got nan"),
    ((10, 11, 0.1, float("inf")), "beta must be finite, got inf"),
    # each rate's sign and finiteness, in turn, before the next rate's
    ((float("inf"), 11, 0.0, 10), "lambda must be finite, got inf"),
], ids=["zero", "nan", "inf", "inf-then-zero"])
def test_bad_rates_raise_the_same_text_with_c_omitted_and_given(rates, message):
    for C in (None, 100.0):
        with pytest.raises(InvalidParameters) as error:
            make_params(*rates, C=C)
        assert str(error.value) == message, C


def test_small_c_raises_its_bound():
    for model, bound, c_min in ((Model.MODEL1, "lambda+mu+alpha+beta", 31.1),
                                (Model.MODEL2, "lambda+2*mu+alpha+beta", 42.1)):
        with pytest.raises(InvalidParameters) as error:
            make_params(10, 11, 0.1, 10, model=model, C=5.0)
        assert str(error.value) == f"C below {bound}: 5.0 < {c_min}"


def test_a_stack_names_its_first_failing_condition():
    def stack(alpha, C):
        return make_params(np.full(4, 10.0), np.full(4, 11.0), np.array(alpha), np.full(4, 10.0),
                           C=np.array(C))
    # alpha = 0 and too small a C in set 0: the rates are checked first within a set
    with pytest.raises(InvalidParameters) as error:
        stack([0.0, 0.1, 0.1, 0.1], [5.0, 40.0, 40.0, 5.0])
    assert str(error.value) == "alpha must be > 0, got 0.0 at stack index 0"
    with pytest.raises(InvalidParameters) as error:
        stack([0.1] * 4, [40.0, 40.0, 40.0, 5.0])
    assert str(error.value) == "C below lambda+mu+alpha+beta: 5.0 < 31.1 at stack index 3"
    # too small a C in set 0 and alpha = 0 in set 2: the first failing set wins
    with pytest.raises(InvalidParameters) as error:
        stack([0.1, 0.1, 0.0, 0.1], [5.0, 40.0, 40.0, 40.0])
    assert str(error.value) == "C below lambda+mu+alpha+beta: 5.0 < 31.1 at stack index 0"
    assert stack([0.1] * 4, [40.0] * 4).C.tolist() == [40.0] * 4
    # C omitted: lambda = inf in set 0 and mu = -1 in set 1, still the first failing set
    with pytest.raises(InvalidParameters) as error:
        make_params(np.array([np.inf, 10.0]), np.array([11.0, -1.0]), np.full(2, 0.1),
                    np.full(2, 10.0))
    assert str(error.value) == "lambda must be finite, got inf at stack index 0"


GOOD = (10.0, 11.0, 0.1, 10.0)


def _sets(bad, good, wrong):
    """`wrong` for one set; for a stack, `wrong` where `bad` holds and `good` elsewhere."""
    if len(bad) == 1:
        return wrong
    return tuple(np.where(np.reshape(bad, (-1,) + (1,) * np.ndim(w)), w, g)
                 for g, w in zip(good, wrong))


def _params(bad, wrong):
    return make_params(*_sets(bad, GOOD, wrong))


def _drift_passed_off_as_stable(bad):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "stability", lambda params: dataclasses.replace(
            stability(params), stable=np.ones_like(params.lam, dtype=bool)))
        twist_summary(_params(bad, (12.0, 11.0, 0.1, 10.0)))


def _escape_of_scaled_down_block(bad):
    twist = twist_summary(_params(bad, GOOD))
    a0, a1, a2 = twist.blocks
    scale = np.asarray(_sets(bad, (1.0,), (1.0 + 1e-9,))[0])[..., None, None]
    _escape(dataclasses.replace(twist, blocks=(a0, a1, a2 * scale)))


def _first_passage_of_scaled_down_block(bad):
    a0, a1, a2 = level_blocks(make_params(*GOOD))
    # the good set always steps down, G = I after one doubling: the stack takes the
    # bad set's own doublings, and so its G
    zero = np.zeros((2, 2))
    first_passage(*_sets(bad, (zero, zero, np.eye(2)), (a0, a1, 1.5 * a2)))


# every set-level gate, each raising through params._require; a call fails in each bad set
GATES = {
    "validate": (InvalidParameters, lambda bad: _params(bad, (10.0, 11.0, 0.0, 10.0))),
    "default-uniformization": (InvalidParameters, lambda bad: default_uniformization(
        *_sets(bad, GOOD, (10.0, 11.0, 0.1, -1.0)), Model.MODEL1)),
    "t2-not-finite": (ArithmeticError,
                      lambda bad: characteristic_roots(_params(bad, (0.5, 1e300, 0.5, 1e300)))),
    "t1-overflow": (ArithmeticError,
                    lambda bad: characteristic_roots(_params(bad, (5e-324, 11.0, 0.1, 10.0)))),
    "t2-underflow": (ArithmeticError,
                     lambda bad: characteristic_roots(_params(bad, (1e150, 1e-300, 1.0, 1.0)))),
    "stability": (UnstableParameters, lambda bad: harmonic(_params(bad, (12.0, 11.0, 0.1, 10.0)))),
    "down-weight": (ArithmeticError, lambda bad: harmonic(_params(bad, (1.0, 2.0, 5e-324, 0.5)))),
    "drift": (ArithmeticError, _drift_passed_off_as_stable),
    "escape": (ArithmeticError, _escape_of_scaled_down_block),
    "first-passage": (ArithmeticError, _first_passage_of_scaled_down_block),
    "negative-diagonal": (InvalidParameters, lambda bad: _fold(
        ((((1, 0), _sets(bad, (0.5,), (1.5,))[0], None),),), (1, 0))),
}


@pytest.mark.parametrize("gate", GATES)
def test_every_gate_names_the_first_failing_set(gate):
    error, call = GATES[gate]
    with pytest.raises(error) as one:
        call([True])
    message = str(one.value)
    assert type(one.value) is error
    assert "stack index" not in message and "np." not in message
    # sets 1 and 2 fail: the message is set 1's own, plain floats, with its index; the
    # stack's overflow or NaN raises no numpy warning before the gate (pytest's -W error)
    with pytest.raises(error) as stacked:
        call([False, True, True])
    assert type(stacked.value) is error
    assert " at stack index 1" in str(stacked.value)
    assert str(stacked.value).replace(" at stack index 1", "") == message


def test_c_bound_is_relative_to_the_rate_sum():
    # a C 60 times below the rate sum 6e-300 is refused, however small the rates
    with pytest.raises(InvalidParameters) as error:
        make_params(1e-300, 3e-300, 1e-300, 1e-300, C=1e-301)
    assert str(error.value) == "C below lambda+mu+alpha+beta: 1e-301 < 6e-300"
    # a sum taken in another order, a few ulps below, is admitted
    c_min = default_uniformization(0.4, 0.2, 0.3, 0.1, Model.MODEL1)
    assert 0.1 + 0.2 + 0.3 + 0.4 < c_min
    for C in (0.1 + 0.2 + 0.3 + 0.4, math.nextafter(math.nextafter(c_min, 0.0), 0.0)):
        assert make_params(0.4, 0.2, 0.3, 0.1, C=C).C == C


def test_p_range():
    with pytest.raises(InvalidParameters):
        make_params(10, 30, 0.1, 10, p=0.0, model=Model.MODEL2)
    with pytest.raises(InvalidParameters):
        make_params(10, 30, 0.1, 10, p=1.1, model=Model.MODEL2)
    with pytest.raises(InvalidParameters):
        make_params(10, 11, 0.1, 10, p=0.5, model=Model.MODEL1)


def test_json_round_trip():
    p = make_params(10, 30, 0.1, 10, p=0.5, model=Model.MODEL2)
    text = p.to_json()
    d = json.loads(text)
    assert d["lambda"] == 10
    assert d["model"] == "model2"
    p2 = params_from_json(text)
    assert p2.model is Model.MODEL2
    assert p2 == p


def test_check_state():
    check_state((0, UP), Model.MODEL1)
    check_state((3, 2, DOWN), Model.MODEL2)
    check_state((-4, UP), Model.MODEL1, free=True)
    with pytest.raises(InvalidState):
        check_state((-1, UP), Model.MODEL1)
    with pytest.raises(InvalidState):
        check_state((0, 0, 2), Model.MODEL2)
    with pytest.raises(InvalidState):
        check_state((0, UP), Model.MODEL2)


def test_only_the_shims_pair_params_with_a_model():
    """A parameter set names its chain, so no public function also takes a
    model, except the two that keep it for old positional callers."""
    paired = set()
    for name in uqtail.__all__:
        obj = getattr(uqtail, name)
        methods = [m for m in vars(obj).values() if inspect.isfunction(m)] \
            if inspect.isclass(obj) else [obj] if inspect.isfunction(obj) else []
        for fn in (m for m in methods if not m.__name__.startswith("_")):
            args = set(inspect.signature(fn).parameters)
            if "model" in args and ("params" in args or fn.__qualname__.startswith("ModelParams.")):
                paired.add(fn.__qualname__)
    assert paired == {"truncated_stationary", "prefactors"}


@pytest.mark.parametrize("shim", [
    lambda params, model: truncated_stationary(params, model, x_max=60, y_max=5),
    lambda params, model: prefactors(params, model),
], ids=["truncated_stationary", "prefactors"])
def test_shims_refuse_another_model(shim):
    for params, model in ((A, Model.MODEL2), (T2, Model.MODEL1), (T2, Model.RSRD)):
        with pytest.raises(InvalidParameters, match="does not match"):
            shim(params, model)
    assert shim(A, Model.MODEL1) == shim(A, None)


M1, M2 = {Model.MODEL1}, {Model.MODEL2}


@pytest.mark.parametrize("call,serves,needs", [
    (boundary_vector, M1, "Model 1"),
    (lambda p: exact_stationary_model1(p, k_max=5), M1, "Model 1"),
    (lambda p: feynman_kac(p, 0.1), M1, "Model 1"),
    (lambda p: conditioned_excursion_slope(p, level_k=30), M1, "Model 1"),
    (twist_summary, M1 | M2, "tandem"),
    (prefactors, M1 | M2, "tandem"),
    (harmonic, M1 | M2, "tandem"),
    (two_term_tail, M1, "Model 1"),
    (characteristic_roots, M1 | M2, "tandem"),
], ids=["boundary_vector", "exact_stationary_model1",
        "feynman_kac", "conditioned_excursion_slope", "twist_summary", "prefactors",
        "harmonic", "two_term_tail", "characteristic_roots"])
def test_single_chain_functions_refuse_other_chains(call, serves, needs):
    for params in (A, T2, T2_HALF, RS_ONE):
        if params.model not in serves:
            with pytest.raises(InvalidParameters, match=needs):
                call(params)
