"""The reference sets and the library's two stack tables: SLICES, set k of a stage's stack is
its own call on set k, and GATES, a gate refuses a stack naming its first failing set.  A row
builds its sets when it runs, under the one test that `bound` binds it to."""

import dataclasses
import math
from typing import Callable, NamedTuple

import numpy as np
import pytest

from uqtail import (InvalidParameters, Model, UnstableParameters, boundary_vector,
                    characteristic_roots, harmonic, kernels,
                    make_params, prefactors, rate_matrix, rate_matrix_closed_form, spectral,
                    stationary_table, twist_summary, verify)
from uqtail.asymptotics import _escape, _two_term
from uqtail.kernels import _fold, _moves, level_blocks
from uqtail.qbd import _boundary, _model1_levels, first_passage
from uqtail.spectral import stability

A = make_params(10, 11, 0.1, 10)
B = make_params(20, 60, 0.01, 1)
T2 = make_params(10, 30, 0.1, 10, model=Model.MODEL2)


def stack_of(sets):
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


def assert_set_in_stack(stacked, one, k, name, tol=0.0):
    """Every leaf of `one` equals set k of the stacked leaf (a stack carries its sets on the
    leading axis; k None compares whole leaves): bit for bit, or within `tol` absolute."""
    for (path, many), (_, single) in zip(_leaves(stacked, name), _leaves(one, name), strict=True):
        if single is None or isinstance(single, (str, Model)):
            assert many == single if isinstance(single, str) else many is single, path
            continue
        many = np.asarray(many)
        at = many[k] if k is not None and many.ndim else many
        if tol:
            assert np.max(np.abs(at - single)) <= tol, path
        else:
            assert np.asarray(at, float).tobytes() == np.asarray(single, float).tobytes(), path


def margin_sets():
    """Corpus [-12, 12]'s 1,167 stable Model 1 sets (3,000 draws of rates log-uniform on
    [1e-12, 1e12]), then A's rates at 0.99 to 0.999999 of the stability bound."""
    rates = 10.0 ** np.random.default_rng(1).uniform(-12.0, 12.0, (3000, 4))
    lam, mu, alpha, beta = rates.T
    corpus = rates[lam < beta / (alpha + beta) * mu].tolist()
    bound = float(A.beta / (A.alpha + A.beta) * A.mu)
    near = [(load * bound, 11.0, 0.1, 10.0) for load in (0.99, 0.999, 0.9999, 0.99999, 0.999999)]
    assert len(corpus) == 1167
    return corpus + near


def _drawn(rng, count, model=Model.MODEL1):
    return [verify.random_params(rng, model=model) for _ in range(count)]


def _seed31():
    """A, B and 40 random Model 1 sets, then T2 and 40 random tandem sets, from one seed."""
    rng = np.random.default_rng(31)
    return [A, B, *_drawn(rng, 40)], [T2, *_drawn(rng, 40, Model.MODEL2)]


def _model1_tail_path(params):
    """Every stage from R to C(sigma): the tail record, R, the boundary, the levels and the
    two-term weights."""
    roots = characteristic_roots(params)
    return (prefactors(params), rate_matrix_closed_form(params), _boundary(roots),
            _model1_levels(roots, 60), _two_term(roots))


class Slice(NamedTuple):
    stage: Callable
    sets: Callable   # builds the row's sets
    tol: float = 0.0   # 0: bit for bit


SLICES = {
    "twist-model1": Slice(twist_summary, lambda: _seed31()[0]),
    "twist-tandem": Slice(twist_summary, lambda: _seed31()[1]),
    "escape": Slice(lambda params: _escape(twist_summary(params)), lambda: _seed31()[0]),
    # each set's own p below 1: a shape-only tail
    "shape-only": Slice(prefactors, lambda: [
        make_params(10, 30, 0.1, 10, p=0.5, model=Model.MODEL2),
        make_params(5, 30, 0.2, 10, p=0.7, model=Model.MODEL2)]),
    "tail-path": Slice(_model1_tail_path, lambda: [
        A, B, *(verify._sets(u) for u in np.random.default_rng(5).random((300, 4)))]),
    "rate-matrix": Slice(lambda params: rate_matrix(*level_blocks(params)), lambda: [A, B]),
    # plain and twisted blocks; the doublings run until every set's last step is small: 1e-15
    "first-passage-model1": Slice(
        lambda params: (first_passage(*level_blocks(params)),
                        first_passage(*level_blocks(params, h=harmonic(params)))),
        lambda: [A, B, *_drawn(np.random.default_rng(11), 50)], 1e-15),
    # twisted blocks with y cut at 8
    "first-passage-tandem": Slice(
        lambda params: first_passage(*level_blocks(params, 8, h=harmonic(params))),
        lambda: [T2, *_drawn(np.random.default_rng(12), 5, Model.MODEL2)], 1e-15),
    "margin": Slice(lambda params: characteristic_roots(params).t2_minus_1,
                    lambda: [make_params(*row) for row in margin_sets()]),
}


def _slice_holds(name):
    stage, sets, tol = SLICES[name]
    sets = sets()
    stacked = stage(stack_of(sets))
    for k, params in enumerate(sets):
        assert_set_in_stack(stacked, stage(params), k, name, tol)


GOOD = (10.0, 11.0, 0.1, 10.0)   # A
OVER = (12.0, 11.0, 0.1, 10.0)   # above A's stability bound


def _where(bad, good, wrong):
    """`wrong` where `bad` holds and `good` elsewhere: one set's values, or a stack's."""
    if len(bad) == 1:
        return wrong if bad[0] else good
    return tuple(np.where(np.reshape(bad, (-1,) + (1,) * np.ndim(w)), w, g)
                 for g, w in zip(good, wrong))


def _last(bad):
    """The last set of a stack, made to fail an earlier row of its gate as well, so that the
    first failing set wins over the first failing row; no set of one."""
    return [*[False] * (len(bad) - 1), len(bad) > 1]


def _params(bad, wrong, model=Model.MODEL1):
    return make_params(*_where(bad, GOOD, wrong), model=model)


def _low_c(bad, zero_alpha):
    """C = 5 in the bad sets and alpha = 0 in the `zero_alpha` ones."""
    return make_params(*_where(zero_alpha, GOOD, (10.0, 11.0, 0.0, 10.0)),
                       C=_where(bad, (40.0,), (5.0,))[0])


def _twist_of(bad, wrong, scaled, model=Model.MODEL1):
    """twist_summary of `wrong` in the bad sets, all passed off as stable, with the first Up
    move scaled by 1 + 1e-3 in the `scaled` sets."""
    def moves(params):
        (step, prob, low), *rest = _moves(params)[0]
        bump = 1.0 + 1e-3 * np.asarray(scaled, float).reshape(np.shape(prob))
        return ((step, prob * bump, low), *rest), _moves(params)[1]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "stability", lambda params: dataclasses.replace(
            stability(params), stable=np.ones_like(params.lam, dtype=bool)))
        patch.setattr(kernels, "_moves", moves)
        twist_summary(_params(bad, wrong, model))


def _escape_of_scaled_down_block(bad):
    twist = twist_summary(_params(bad, GOOD))
    a0, a1, a2 = twist.blocks
    scale = np.asarray(_where(bad, (1.0,), (1.0 + 1e-9,))[0])[..., None, None]
    _escape(dataclasses.replace(twist, blocks=(a0, a1, a2 * scale)))


def _first_passage_of_scaled_down_block(bad, axes=1):
    a0, a1, a2 = level_blocks(make_params(*GOOD))
    # the good set always steps down, G = I after one doubling: the stack takes the
    # bad set's own doublings, and so its G
    zero = np.zeros((2, 2))
    blocks = _where(bad, (zero, zero, np.eye(2)), (a0, a1, 1.5 * a2))
    if len(bad) > 1 and axes == 2:   # the stack's sets on two leading axes, (3, 1)
        blocks = [block[:, None] for block in blocks]
    first_passage(*blocks)


class Gate(NamedTuple):
    error: type
    call: Callable   # fails in each bad set
    line: str | None = None   # its one-set line, where a test has always pinned it
    where: str = "1"   # the index the stack's line names: the first failing set


_NOT_POSITIVE = ("twisted chain drift is not positive (-0.03349979548720102); tail method "
                 "inapplicable for these parameters")
# corpus [-12, 12]'s set whose t2, and so gamma_1, rounds to 1 (pins.json's gamma-1 rows)
_ROUNDS = (1889625955.757112, 75854362631.67838, 2.1946771549898966e-11, 2.406416243864212e-10)
# every set-level gate, each raising through params._require
GATES = {
    # the rates are checked before C within a set
    "validate": Gate(InvalidParameters, lambda bad: _low_c(bad, bad), "alpha must be > 0, got 0.0"),
    "validate-first-set": Gate(InvalidParameters, lambda bad: _low_c(bad, _last(bad)),
                               "C below lambda+mu+alpha+beta: 5.0 < 31.1"),
    "validate-c-omitted": Gate(InvalidParameters, lambda bad: _params(bad, (math.inf, *GOOD[1:])),
                               "lambda must be finite, got inf"),
    "t2-not-finite": Gate(ArithmeticError, lambda bad: characteristic_roots(
        _params(bad, (0.5, 1e300, 0.5, 1e300)))),
    "t1-overflow": Gate(ArithmeticError, lambda bad: characteristic_roots(
        _params(bad, (5e-324, 11.0, 0.1, 10.0)))),
    "t2-underflow": Gate(ArithmeticError, lambda bad: characteristic_roots(
        _params(bad, (1e150, 1e-300, 1.0, 1.0)))),
    "t2-underflow-tandem": Gate(ArithmeticError, lambda bad: characteristic_roots(
        _params(bad, (1e150, 1e-300, 1.0, 1.0), Model.MODEL2))),
    "stability": Gate(UnstableParameters, lambda bad: harmonic(_params(bad, OVER))),
    "stability-twist": Gate(UnstableParameters, lambda bad: twist_summary(_params(bad, OVER))),
    "stability-boundary": Gate(UnstableParameters,
                               lambda bad: boundary_vector(_params(bad, OVER))),
    "stability-rsrd": Gate(UnstableParameters, lambda bad: stationary_table(make_params(
        *_where(bad, (10.0, 30.0, 0.1, 10.0), (16.0, 30.0, 0.1, 10.0)), p=0.5, model=Model.RSRD),
        5, 5), "the stationary table requires a stable parameter set, lambda < mu p; "
               "got lambda = 16.0"),
    "down-weight": Gate(ArithmeticError,
                        lambda bad: harmonic(_params(bad, (1.0, 2.0, 5e-324, 0.5)))),
    "drift": Gate(ArithmeticError, lambda bad: _twist_of(bad, OVER, [False] * len(bad)),
                  _NOT_POSITIVE),
    "drift-tandem": Gate(ArithmeticError,
                         lambda bad: _twist_of(bad, OVER, [False] * len(bad), Model.MODEL2)),
    "drift-disagree": Gate(ArithmeticError, lambda bad: _twist_of(bad, GOOD, bad),
                           "drift closed form 0.028654323313159143 and aggregate "
                           "0.02900002757317067 disagree"),
    # the disagreement is the gate's first row, a drift that is not positive its second
    "drift-first-set": Gate(ArithmeticError, lambda bad: _twist_of(bad, OVER, _last(bad)),
                            _NOT_POSITIVE),
    "escape": Gate(ArithmeticError, _escape_of_scaled_down_block,
                   "closed-form first-passage matrix fails: residual 3.25e-10 (bound 1e-12), "
                   "row sums [0.91905976 0.83811952] (must be < 1)"),
    # the escape gate's first row
    "escape-decay": Gate(ArithmeticError, lambda bad: _escape(twist_summary(_params(bad, _ROUNDS))),
                         "the decay rate gamma_1 = 1/t2 rounds to 1.0: 1 - gamma_1 = (t2 - 1)/t2 "
                         "= 1.2705209461904292e-19"),
    "first-passage": Gate(ArithmeticError, _first_passage_of_scaled_down_block),
    "first-passage-two-axes": Gate(
        ArithmeticError, lambda bad: _first_passage_of_scaled_down_block(bad, axes=2),
        where="1, 0"),
    "negative-diagonal": Gate(InvalidParameters, lambda bad: _fold(
        ((((1, 0), _where(bad, (0.5,), (1.5,))[0], None),),), (1, 0))),
}


def _gate_holds(gate):
    error, call, line, where = GATES[gate]
    with pytest.raises(error) as one:
        call([True])
    message = str(one.value)
    assert type(one.value) is error
    assert "stack index" not in message and "np." not in message
    assert line in (None, message)
    # sets 1 and 2 fail: the message is set 1's own, plain floats, with its index; the
    # stack's overflow or NaN raises no numpy warning before the gate (pytest's -W error)
    with pytest.raises(error) as stacked:
        call([False, True, True])
    assert type(stacked.value) is error
    assert f" at stack index {where}" in str(stacked.value)
    assert str(stacked.value).replace(f" at stack index {where}", "") == message


BOUND = []   # (table, row) for each row that `bound` binds to a test


def bound(table, *names, **cases):
    """The one test of rows of `table`, SLICES or GATES, for a module to bind to the name
    those rows' test has always carried: `names` run in turn, or `cases` maps each case id
    to its row."""
    holds = _slice_holds if table is SLICES else _gate_holds
    BOUND.extend((table, name) for name in (*names, *cases.values()))
    if names:
        def test():
            for name in names:
                holds(name)
        return test

    @pytest.mark.parametrize("row", list(cases.values()), ids=list(cases))
    def test(row):
        holds(row)
    return test
