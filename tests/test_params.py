import inspect
import json

import pytest

import uqtail
from uqtail import (DOWN, UP, InvalidParameters, InvalidState, Model,
                    boundary_vector, conditioned_excursion_slope,
                    default_uniformization, escape_probabilities, eta,
                    exact_stationary_model1, feynman_kac, make_params,
                    model2_twist_rates, params_from_json, prefactors,
                    qbd_blocks, rs_rd_kernel, rs_rd_stationary,
                    truncated_stationary)
from uqtail.params import check_state

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


@pytest.mark.parametrize("kwargs", [
    dict(lam=-1.0, mu=11, alpha=0.1, beta=10),
    dict(lam=10, mu=0.0, alpha=0.1, beta=10),
    dict(lam=10, mu=11, alpha=-0.1, beta=10),
    dict(lam=10, mu=11, alpha=0.1, beta=0.0),
])
def test_positive_rates_required(kwargs):
    with pytest.raises(InvalidParameters):
        make_params(**kwargs)


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


M1, M2, RS = {Model.MODEL1}, {Model.MODEL2}, {Model.RSRD}


@pytest.mark.parametrize("call,serves,needs", [
    (qbd_blocks, M1, "Model 1"),
    (boundary_vector, M1, "Model 1"),
    (lambda p: exact_stationary_model1(p, k_max=5), M1, "Model 1"),
    (escape_probabilities, M1, "Model 1"),
    (lambda p: feynman_kac(p, 0.1), M1, "Model 1"),
    (lambda p: conditioned_excursion_slope(p, level_k=30), M1, "Model 1"),
    (lambda p: rs_rd_stationary(p, x_max=5, y_max=5), RS, "RS-RD"),
    (lambda p: rs_rd_kernel(p, (0, 0, UP)), RS, "RS-RD"),
    (model2_twist_rates, M2, "tandem"),
    (eta, M1 | M2, "tandem"),
], ids=["qbd_blocks", "boundary_vector", "exact_stationary_model1",
        "escape_probabilities", "feynman_kac", "conditioned_excursion_slope",
        "rs_rd_stationary", "rs_rd_kernel", "model2_twist_rates", "eta"])
def test_single_chain_functions_refuse_other_chains(call, serves, needs):
    for params in (A, T2, T2_HALF, RS_ONE):
        if params.model not in serves:
            with pytest.raises(InvalidParameters, match=needs):
                call(params)
