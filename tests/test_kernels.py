import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqtail import (DOWN, UP, InvalidParameters, Model, UnstableParameters, free_kernel,
                    full_kernel, make_params, twist_summary)
from uqtail.kernels import _origins, level_blocks
from uqtail.simulate import _phase_rows
from uqtail.verify import check_rows_stochastic, random_params

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
    row = full_kernel(RS, (2, 3, DOWN))
    d = row.as_dict()
    assert (3, 2, DOWN) not in d                       # server 1 closed while Down
    assert d[(2, 2, DOWN)] == pytest.approx(15 / 80.1)  # rerouted exit, rate mu*p
    assert d[(2, 4, DOWN)] == pytest.approx(10 / 80.1)
    assert d[(2, 3, UP)] == pytest.approx(10 / 80.1)


def test_rs_rd_up_matches_model2():
    assert full_kernel(RS, (2, 3, UP)).as_dict() == \
        pytest.approx(full_kernel(M2, (2, 3, UP)).as_dict())


def test_rs_rd_boundary_example():
    row = full_kernel(RS, (0, 0, DOWN))
    assert row.prob((0, 1, DOWN)) == pytest.approx(10 / 80.1)
    assert row.prob((0, 0, UP)) == pytest.approx(10 / 80.1)
    assert row.prob((0, 0, DOWN)) == pytest.approx(60.1 / 80.1)


def test_rows_stochastic_random():
    # 32 stable and 8 unstable sets each of Model 1 and the tandem, p in [0.3, 1]
    result = check_rows_stochastic(80, 0)
    assert result.passed, result.detail


def test_mean_x_increment():
    row = free_kernel(A, (0, UP))
    assert sum(p * t[0] for t, p in row.targets) == pytest.approx((10 - 11) / 31.1)


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
    classes = {o: full_kernel(params, o) for x0 in (0, 1) for o in _origins(model, x0)}
    assert len(classes) == (4 if model is Model.MODEL1 else 8)
    state = (x, sigma) if model is Model.MODEL1 else (x, y, sigma)
    corner = tuple(min(v, 1) for v in state[:-1]) + (sigma,)
    assert full_kernel(params, state).targets == _shifted(classes[corner], state)
    if model is not Model.RSRD:
        assert free_kernel(params, state).targets == \
            _shifted(classes[(1, *corner[1:])], state)


# SHA-256 of `_row_bits` over `_pinned_sets`: pure-Python float arithmetic, so the
# same on every platform
ROWS_DIGEST = "b2bf3e0c012db185d7049aa87524c39e8a6ae69b6c8b47869f280af47845407b"


def _pinned_sets():
    """A, B, T2 at p = 1 and 0.5, RS-RD, and 20 random sets of each chain at
    the default C and at 2 C: 800 class rows on the grid."""
    rng = random.Random(20)
    sets = [A, make_params(20, 60, 0.01, 1), make_params(10, 30, 0.1, 10, model=Model.MODEL2),
            M2, RS]
    for i in range(20):
        for model in Model:
            lam, mu, beta = rng.uniform(0.5, 40), rng.uniform(1, 50), rng.uniform(0.5, 20)
            alpha = 10 ** rng.uniform(-3, 1)
            p = 1.0 if model is Model.MODEL1 or i % 4 == 0 else rng.uniform(0.05, 1.0)
            params = make_params(lam, mu, alpha, beta, p=p, model=model)
            sets += [params, make_params(lam, mu, alpha, beta, p=p, model=model, C=2 * params.C)]
    return sets


def _row_bits(params):
    """Every class row and, off RS-RD, every free row at the class origins,
    with each probability as float.hex."""
    classes = {o: full_kernel(params, o) for x0 in (0, 1) for o in _origins(params.model, x0)}
    rows = [*classes.values(),
            *(free_kernel(params, o) for o in classes if params.model is not Model.RSRD)]
    return "".join(f"{row.origin}:{[(t, p.hex()) for t, p in row.targets]}\n" for row in rows)


def test_rows_are_pinned_bit_for_bit():
    """The rows' probabilities to the last bit: summing the self-loop in
    another order moves the last bit of some diagonals, which approx misses."""
    text = "".join(_row_bits(params) for params in _pinned_sets())
    assert hashlib.sha256(text.encode()).hexdigest() == ROWS_DIGEST


# SHA-256 of `_layout_bits` over `_pinned_sets`
LAYOUTS_DIGEST = "6662b94d404973bde67db2646e9607dba6bf05418b1854298e32a5b56116d657"


def _layout_bits(params):
    """The plain level blocks at x0 = 0 and 1 (y cut 0, and 5 on the two-server
    chains), the twisted blocks wherever the twist exists (y cuts 0, 1 and 8
    on the tandem), and the sampler's interval table, with each probability
    as float.hex."""
    cuts = (0,) if params.model is Model.MODEL1 else (0, 5)
    blocks = [level_blocks(params, y_cut, x0) for x0 in (0, 1) for y_cut in cuts]
    try:
        twist = twist_summary(params)
    except (InvalidParameters, UnstableParameters, ArithmeticError):
        twist = None
    if twist is not None:
        blocks += [level_blocks(params, y_cut, h=twist.harmonic)
                   for y_cut in ((0,) if params.model is Model.MODEL1 else (0, 1, 8))]
    cut, to_up, to_down, moves = _phase_rows(params)
    arrays = [a for triple in blocks for a in triple] + [cut]
    return "".join(f"{[v.hex() for v in a.ravel().tolist()]}\n" for a in arrays) + \
        f"{to_up.tolist()}{to_down.tolist()}{moves.tolist()}\n"


def test_layouts_are_pinned_bit_for_bit():
    """Every layout's floats to the last bit: the level blocks, plain and
    twisted, and the sampler's thresholds."""
    text = "".join(_layout_bits(params) for params in _pinned_sets())
    assert hashlib.sha256(text.encode()).hexdigest() == LAYOUTS_DIGEST
