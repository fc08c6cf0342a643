import inspect
import json
import math

import pytest

import uqtail
from uqtail import (DOWN, UP, InvalidParameters, InvalidState, Model, ModelParams,
                    boundary_vector, characteristic_roots, conditioned_excursion_slope,
                    exact_stationary_model1, feynman_kac,
                    full_kernel, harmonic, make_params, params_from_json, prefactors,
                    truncated_stationary, twist_summary, two_term_tail)
from uqtail.params import check_state

from tables import A, GATES, T2, bound
T2_HALF = make_params(10, 30, 0.1, 10, p=0.5, model=Model.MODEL2)
RS_ONE = make_params(10, 30, 0.1, 10, model=Model.RSRD)


def test_make_params_fills_c():
    p = make_params(10, 11, 0.1, 10)
    assert p.C == pytest.approx(31.1)
    assert p.p == 1.0
    # the two-server models count mu once per server
    for model in (Model.MODEL2, Model.RSRD):
        assert make_params(10, 30, 0.1, 10, model=model).C == pytest.approx(80.1)


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


# the rows no other test has always run
test_every_gate_names_the_first_failing_set = bound(GATES, **{row: row for row in (
    "validate", "t2-not-finite", "t1-overflow", "t2-underflow",
    "t2-underflow-tandem", "stability", "down-weight", "drift", "escape", "first-passage",
    "negative-diagonal")})
test_a_stack_names_its_first_failing_condition = bound(GATES, "validate-first-set",
                                                       "validate-c-omitted")


def test_c_bound_is_relative_to_the_rate_sum():
    # a C 60 times below the rate sum 6e-300 is refused, however small the rates
    with pytest.raises(InvalidParameters) as error:
        make_params(1e-300, 3e-300, 1e-300, 1e-300, C=1e-301)
    assert str(error.value) == "C below lambda+mu+alpha+beta: 1e-301 < 6e-300"
    # a sum taken in another order, a few ulps below, is admitted
    c_min = make_params(0.4, 0.2, 0.3, 0.1).C
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
