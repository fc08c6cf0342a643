import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqtail import (DOWN, UP, InvalidParameters, Model, free_kernel,
                    full_kernel, make_params, rs_rd_kernel)
from uqtail.kernels import row_classes
from uqtail.verify import random_params

A = make_params(10, 11, 0.1, 10)
M2 = make_params(10, 30, 0.1, 10, p=0.5, model=Model.MODEL2)
RS = make_params(10, 30, 0.1, 10, p=0.5, model=Model.RSRD)


def test_model1_interior_row():
    row = full_kernel(A, (3, UP))
    d = row.as_dict()
    assert d[(4, UP)] == pytest.approx(10 / 31.1)
    assert d[(2, UP)] == pytest.approx(11 / 31.1)
    assert d[(3, DOWN)] == pytest.approx(0.1 / 31.1)
    assert d[(3, UP)] == pytest.approx(10 / 31.1)  # idle repair rate
    assert row.total() == pytest.approx(1.0, abs=1e-15)


def test_model1_boundary_suppresses_service():
    row = full_kernel(A, (0, UP))
    assert (-1, UP) not in row.as_dict()
    assert row.prob((0, UP)) == pytest.approx((11 + 10) / 31.1)


def test_free_kernel_shift_invariant():
    r0 = free_kernel(A, (0, DOWN))
    r7 = free_kernel(A, (7, DOWN))
    shifted = {(s[0] - 7, s[1]): p for s, p in r7.targets}
    assert shifted == pytest.approx(r0.as_dict())


def test_free_kernel_allows_negative_levels():
    row = free_kernel(A, (-2, UP))
    assert row.prob((-3, UP)) == pytest.approx(11 / 31.1)


def test_model2_row_moves():
    row = full_kernel(M2, (2, 3, UP))
    d = row.as_dict()
    assert d[(2, 4, UP)] == pytest.approx(10 / 80.1)       # arrival joins queue 2
    assert d[(3, 2, UP)] == pytest.approx(30 / 80.1)       # queue 2 feeds queue 1
    assert d[(1, 3, UP)] == pytest.approx(15 / 80.1)       # departure, prob p
    assert d[(1, 4, UP)] == pytest.approx(15 / 80.1)       # feedback to queue 2
    assert d[(2, 3, DOWN)] == pytest.approx(0.1 / 80.1)


def test_model2_down_row_keeps_queueing():
    row = full_kernel(M2, (2, 3, DOWN))
    d = row.as_dict()
    assert d[(3, 2, DOWN)] == pytest.approx(30 / 80.1)  # waiting room still fills
    assert d[(2, 3, UP)] == pytest.approx(10 / 80.1)


def test_rs_rd_down_reroutes_through_routing_row():
    row = rs_rd_kernel(RS, (2, 3, DOWN))
    d = row.as_dict()
    assert (3, 2, DOWN) not in d                       # server 1 closed while Down
    assert d[(2, 2, DOWN)] == pytest.approx(15 / 80.1)  # rerouted exit, rate mu*p
    assert d[(2, 4, DOWN)] == pytest.approx(10 / 80.1)
    assert d[(2, 3, UP)] == pytest.approx(10 / 80.1)


def test_rs_rd_up_matches_model2():
    assert rs_rd_kernel(RS, (2, 3, UP)).as_dict() == \
        pytest.approx(full_kernel(M2, (2, 3, UP)).as_dict())


def test_rs_rd_boundary_example():
    row = rs_rd_kernel(RS, (0, 0, DOWN))
    assert row.prob((0, 1, DOWN)) == pytest.approx(10 / 80.1)
    assert row.prob((0, 0, UP)) == pytest.approx(10 / 80.1)
    assert row.prob((0, 0, DOWN)) == pytest.approx(60.1 / 80.1)


def test_rows_stochastic_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        model = Model.MODEL2 if rng.random() < 0.5 else Model.MODEL1
        p = 1.0 if model is Model.MODEL1 else rng.uniform(0.3, 1.0)
        params = random_params(rng, p=p, stable=bool(rng.random() < 0.7), model=model)
        states = [(0, UP), (5, DOWN)] if model is Model.MODEL1 \
            else [(0, 0, UP), (5, 2, DOWN)]
        for state in states:
            assert full_kernel(params, state).total() == pytest.approx(1.0, abs=1e-12)
            assert free_kernel(params, state).total() == pytest.approx(1.0, abs=1e-12)


def test_mean_x_increment():
    row = free_kernel(A, (0, UP))
    assert row.mean_x_increment() == pytest.approx((10 - 11) / 31.1)


def test_free_kernel_rejects_rsrd():
    with pytest.raises(InvalidParameters):
        free_kernel(RS, (0, 0, UP))


def _shifted(row, origin):
    """The targets of `row` moved from its origin to `origin`."""
    shift = [a - b for a, b in zip(origin[:-1], row.origin)]
    return tuple(((*(t + d for t, d in zip(target, shift)), target[-1]), prob)
                 for target, prob in row.targets)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       model=st.sampled_from(list(Model)),
       p=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
       stable=st.booleans(),
       x=st.integers(0, 10 ** 6), y=st.integers(0, 10 ** 6),
       sigma=st.sampled_from([UP, DOWN]))
def test_rows_are_shifted_class_rows(seed, model, p, stable, x, y, sigma):
    """Every row is its class row moved to the state, with equal probabilities;
    the free row at any x is the x0 = 1 class row moved the same way."""
    params = random_params(np.random.default_rng(seed), p=1.0 if model is Model.MODEL1 else p,
                           stable=stable, model=model)
    classes = row_classes(params)
    assert len(classes) == (4 if model is Model.MODEL1 else 8)
    state = (x, sigma) if model is Model.MODEL1 else (x, y, sigma)
    corner = tuple(min(v, 1) for v in state[:-1]) + (sigma,)
    assert full_kernel(params, state).targets == _shifted(classes[corner], state)
    if model is not Model.RSRD:
        assert free_kernel(params, state).targets == \
            _shifted(classes[(1, *corner[1:])], state)
