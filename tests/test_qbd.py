import itertools
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from uqtail import (DOWN, UP, InvalidParameters, InvalidState, Model, TruncationError,
                    boundary_vector, empirical_distribution, exact_stationary_model1,
                    free_kernel, full_kernel, make_params, neuts_stability, rate_matrix,
                    rate_matrix_closed_form, simulate, stationary_table,
                    truncated_stationary)
from uqtail.kernels import level_blocks
from uqtail.qbd import (LatticeLaw, _lattice_inflow, _lattice_moves, _lattice_shape,
                        _tail_mass_estimate, first_passage)
from uqtail.verify import (check_rate_matrix, check_stability_equivalence,
                           random_params)

from reference import FULL_RANGE_DIGITS, R_DOWN_DOWN_ONE, model1, relative_error
from tables import A, B, GATES, SLICES, T2, bound, stack_of
RS = make_params(10, 30, 0.1, 10, p=0.5, model=Model.RSRD)


def interior(params):
    """Model 1's (up, local, down) blocks, from its x0 = 1 class rows."""
    return level_blocks(params)


def boundary(params):
    """Model 1's level-0 local block, from its x0 = 0 class rows."""
    return level_blocks(params, x0=0)[1]


def test_blocks_partition_the_kernel():
    up, local, down = interior(A)
    for sigma in (UP, DOWN):
        row = full_kernel(A, (3, sigma)).as_dict()
        for sigma2 in (UP, DOWN):
            assert up[sigma, sigma2] == pytest.approx(row.get((4, sigma2), 0.0))
            assert local[sigma, sigma2] == pytest.approx(row.get((3, sigma2), 0.0))
            assert down[sigma, sigma2] == pytest.approx(row.get((2, sigma2), 0.0))
        row0 = full_kernel(A, (0, sigma)).as_dict()
        for sigma2 in (UP, DOWN):
            assert boundary(A)[sigma, sigma2] == pytest.approx(row0.get((0, sigma2), 0.0))


LEVEL_SETS = {"model1": A, "tandem-p1": T2,
              "tandem-p0.6": make_params(10, 30, 0.1, 10, p=0.6, model=Model.MODEL2)}


@pytest.mark.parametrize("y_cut", [0, 5])
@pytest.mark.parametrize("name", list(LEVEL_SETS))
def test_level_blocks_hold_the_free_kernel(name, y_cut):
    # each entry, state by state, is the free-kernel probability of its move;
    # a move past y_cut is held at y_cut
    params = LEVEL_SETS[name]
    blocks = level_blocks(params, y_cut)
    n = 2 * (y_cut + 1)
    assert all(block.shape == (n, n) for block in blocks)
    x = 7
    expected = np.zeros((3, n, n))
    ys = range(y_cut + 1) if params.model is Model.MODEL2 else [0]
    for y in ys:
        for sigma in (UP, DOWN):
            state = (x, y, sigma) if params.model is Model.MODEL2 else (x, sigma)
            for target, prob in free_kernel(params, state).targets:
                to_y = min(target[1], y_cut) if len(target) == 3 else 0
                expected[x + 1 - target[0], 2 * y + sigma, 2 * to_y + target[-1]] += prob
    for k in range(3):
        assert np.array_equal(blocks[k], expected[k]), k
    if params.model is Model.MODEL2:
        # the arrival at y_cut stays at y_cut, on the local block's diagonal
        top = 2 * y_cut + UP
        arrival = free_kernel(params, (x, y_cut, UP)).prob((x, y_cut + 1, UP))
        stay = free_kernel(params, (x, y_cut, UP)).prob((x, y_cut, UP))
        assert arrival > 0.0
        assert blocks[1][top, top] == stay + arrival


def test_closed_form_solves_fixed_point():
    for params in (A, B):
        up, local, down = interior(params)
        r = rate_matrix_closed_form(params)
        rhs = r @ r @ down + r @ local + up
        assert np.max(np.abs(r - rhs)) < 1e-14


def rate_matrix_iterate(blocks, tol=1e-15, max_iter=10 ** 6):
    """Reference R by successive substitution R <- R^2 A2 + R A1 + A0 from
    R = 0 (Neuts, 1981): (R, residual)."""
    up, local, down = blocks
    r = np.zeros((2, 2))
    for _ in range(max_iter):
        r_next = r @ r @ down + r @ local + up
        delta = np.max(np.abs(r_next - r))
        r = r_next
        if delta <= tol:
            return r, np.max(np.abs(r - (r @ r @ down + r @ local + up)))
    raise AssertionError("successive substitution did not converge")


def test_iterate_agrees_with_closed_form():
    rng = np.random.default_rng(8)
    for params in [A, B] + [random_params(rng) for _ in range(10)]:
        blocks = interior(params)
        r, residual = rate_matrix_iterate(blocks)
        assert np.max(np.abs(r - rate_matrix_closed_form(params))) < 1e-12
        assert np.max(np.abs(r - rate_matrix(*blocks))) < 1e-12
        assert residual < 1e-13


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_rate_matrix_matches_closed_form(seed):
    params = random_params(np.random.default_rng(seed))
    gap = rate_matrix(*interior(params)) - rate_matrix_closed_form(params)
    assert np.max(np.abs(gap)) <= 1e-12


test_rate_matrix_of_a_stack_is_each_sets_bit_for_bit = bound(SLICES, "rate-matrix")


def test_first_passage_takes_the_stochastic_g():
    # the plain blocks' G is stochastic: rounding may leave row sums just above 1
    rng = np.random.default_rng(10)
    near_critical = make_params(0.9999 * 10 / 10.1 * 11, 11, 0.1, 10)
    for params in [near_critical] + [random_params(rng) for _ in range(500)]:
        up, local, down = interior(params)
        g = first_passage(up, local, down)
        residual = down + local @ g + up @ g @ g - g
        assert np.max(np.abs(residual)) <= 1e-12


test_first_passage_solves_a_stack_slice_by_slice = bound(SLICES, "first-passage-model1",
                                                         "first-passage-tandem")
test_first_passage_names_the_failing_stack_index = bound(GATES, "first-passage-two-axes")


def test_spectrum_matches_characteristic_roots():
    # R's eigenvalues against gamma_p and gamma_secondary on A and B
    result = check_rate_matrix()
    assert result.passed, result.detail


def test_neuts_matches_closed_form_stability():
    # 40 Model 1 sets, about half unstable, then 40 tandem sets with p = 0.5
    result = check_stability_equivalence(40, 9)
    assert result.passed, result.detail


def test_neuts_reads_the_whole_level_generator_of_any_2x2_qbd():
    # up and down blocks that change phase, which Model 1's never do: the off-diagonals of
    # A0 + A1 + A2 then hold all three blocks', and the verdict is pi A0 1 < pi A2 1 for
    # pi, the generator's phase law, here from a solve of pi (A0 + A1 + A2 - I) = 0, pi 1 = 1
    blocks = np.random.default_rng(3).uniform(size=(3, 2000, 2, 2))
    a0, a1, a2 = blocks / blocks.sum(axis=(0, 3))[None, :, :, None]   # each row sums to 1
    system = np.stack([(a0 + a1 + a2 - np.eye(2))[..., 0], np.ones((2000, 2))], axis=1)
    pi = np.linalg.solve(system, np.broadcast_to([[0.0], [1.0]], (2000, 2, 1)))[..., 0]
    drift_stable = (pi * a0.sum(axis=-1)).sum(axis=-1) < (pi * a2.sum(axis=-1)).sum(axis=-1)
    assert 500 < drift_stable.sum() < 1500
    assert (neuts_stability(a0, a1, a2) == drift_stable).all()


def test_boundary_vector_normalized():
    pi0 = boundary_vector(A)
    r = rate_matrix_closed_form(A)
    total = pi0 @ np.linalg.inv(np.eye(2) - r) @ np.ones(2)
    assert total == pytest.approx(1.0, rel=1e-12)
    # stationarity at the boundary block
    assert pi0 @ (boundary(A) + r @ interior(A)[2]) == pytest.approx(pi0, rel=1e-12)


@pytest.mark.parametrize("rates", R_DOWN_DOWN_ONE, ids=["rdd-1", "rdd-2", "rdd-3"])
def test_boundary_where_r_down_down_rounds_to_one_matches_the_reference(rates):
    # (lambda/mu)(alpha+mu)/(lambda+beta) = 1 - 1e-106 on the first set: I - R was singular
    # in floats, and the other two printed a negative pi0; the closed form solves nothing
    ref = model1(*rates, digits=FULL_RANGE_DIGITS)["pi0"]
    stack = stack_of([A, make_params(*rates)])
    for pi0 in (boundary_vector(make_params(*rates)), boundary_vector(stack)[1]):
        assert [relative_error(value, exact) <= Decimal("1e-13")
                for value, exact in zip(pi0, ref)] == [True, True]


def _reference_model1_residual(params, k_max):
    """Levels pi0 R^k for k <= k_max + 1, and max |pi P - pi| over levels
    0..k_max from one `full_kernel` row per source, levels 0..k_max + 1."""
    r = rate_matrix_closed_form(params)
    levels = [boundary_vector(params)]
    for _ in range(k_max + 1):
        levels.append(levels[-1] @ r)
    inflow = np.zeros((k_max + 1, 2))
    for x, sigma in itertools.product(range(k_max + 2), (UP, DOWN)):
        for (tx, ts), prob in full_kernel(params, (x, sigma)).targets:
            if tx <= k_max:
                inflow[tx, ts] += levels[x][sigma] * prob
    return np.array(levels), float(np.max(np.abs(inflow - levels[:-1])))


def test_exact_stationary_needs_a_level():
    with pytest.raises(InvalidParameters, match="k_max must be >= 0, got -1"):
        exact_stationary_model1(A, k_max=-1)
    table = exact_stationary_model1(A, k_max=0)
    assert table.pi.tolist() == [boundary_vector(A).tolist()]


@pytest.mark.parametrize("k_max", [0, 1, 50])
@pytest.mark.parametrize("params", [A, B, make_params(10, 11, 1e-12, 10)],
                         ids=["A", "B", "tiny-alpha"])
def test_exact_stationary_residual_covers_every_level(params, k_max):
    # level k_max is checked too, with level k_max + 1 as a source of its inflow
    levels, residual = _reference_model1_residual(params, k_max)
    table = exact_stationary_model1(params, k_max=k_max)
    assert table.pi.tolist() == levels[:-1].tolist()
    assert table.residual == residual <= 1e-16


def test_exact_stationary_is_stationary():
    table = exact_stationary_model1(A, k_max=120)
    assert table.residual < 1e-14
    assert table.total() == pytest.approx(1.0 - table.tail_mass_bound, abs=1e-12)
    # geometric recursion pi_{k+1} = pi_k R
    r = rate_matrix_closed_form(A)
    v5 = np.array([table.prob((5, UP)), table.prob((5, DOWN))])
    v6 = np.array([table.prob((6, UP)), table.prob((6, DOWN))])
    assert v6 == pytest.approx(v5 @ r, rel=1e-12)


def test_up_marginal_is_repair_share():
    table = exact_stationary_model1(A, k_max=600)
    up = table.pi[:, UP].sum()
    assert up == pytest.approx(10 / 10.1, abs=1e-10)


def test_truncated_agrees_with_exact_model1():
    exact = exact_stationary_model1(A, k_max=300)
    trunc = truncated_stationary(A, x_max=300)
    for k in (0, 1, 10, 50):
        for sigma in (UP, DOWN):
            assert trunc.prob((k, sigma)) == pytest.approx(
                exact.prob((k, sigma)), rel=1e-8)


def test_truncated_model2_residual_and_tail():
    params = make_params(10, 30, 0.1, 10, model=Model.MODEL2)
    table = truncated_stationary(params, x_max=40, y_max=40)
    assert table.residual < 1e-12
    assert table.total() == pytest.approx(1.0, abs=1e-12)
    assert table.tail_mass_bound < 1e-8


def test_tight_cut_raises_or_warns():
    from uqtail import TruncationError
    with pytest.raises(TruncationError):
        truncated_stationary(A, x_max=25)
    table = truncated_stationary(A, x_max=25, tail_error=0.5)
    assert table.tail_mass_bound > 1e-8


def _reference_matrix(params, model, x_max, y_max=None):
    """The lattice chain's P as one full_kernel row per lattice state, the
    moves that leave the lattice folded into the stay: (states, P)."""
    if model is Model.MODEL1:
        states = [(x, sigma) for x in range(x_max + 1) for sigma in (UP, DOWN)]
    else:
        states = [(x, y, sigma) for x in range(x_max + 1)
                  for y in range(y_max + 1) for sigma in (UP, DOWN)]
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    rows, cols, vals = [], [], []
    for s in states:
        i = index[s]
        diag_extra = 0.0
        for target, prob in full_kernel(params, s).targets:
            j = index.get(target)
            if j is None or target == s:
                diag_extra += prob
            else:
                rows.append(i)
                cols.append(j)
                vals.append(prob)
        rows.append(i)
        cols.append(i)
        vals.append(diag_extra)
    return states, sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _reference_lattice(params, model, x_max, y_max=None, tail_error=0.01):
    """truncated_stationary as one full_kernel row per lattice state:
    (entries, residual, tail_mass_bound), P and A."""
    states, p = _reference_matrix(params, model, x_max, y_max)
    n = len(states)
    a = (p.T - sp.identity(n, format="csr")).tolil()
    a[0, :] = 1.0
    a = a.tocsc()
    b = np.zeros(n)
    b[0] = 1.0
    pi = np.clip(spla.spsolve(a, b), 0.0, None)
    pi /= pi.sum()
    residual = float(np.max(np.abs(pi @ p - pi)))
    entries = dict(zip(states, pi.tolist()))
    tail = _tail_mass_estimate(pi.reshape(_lattice_shape(model, x_max, y_max)))
    if tail > tail_error:
        raise TruncationError("tail")
    return (entries, residual, tail), p, a


def _assert_same_sparse(new, ref):
    assert new.format == ref.format
    for name in ("data", "indices", "indptr"):
        got, want = getattr(new, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("params,model,x_max,y_max,tail_error", [
    (A, Model.MODEL1, 300, None, 0.01),
    (A, Model.MODEL1, 25, None, 0.5),
    (T2, Model.MODEL2, 40, 40, 0.01),
    (T2, Model.MODEL2, 60, 60, 0.01),
    (make_params(10, 30, 0.1, 10, p=0.6, model=Model.MODEL2), Model.MODEL2, 40, 40, 0.5),
    (make_params(10, 30, 0.1, 10, model=Model.MODEL2, C=200), Model.MODEL2, 40, 40, 0.01),
    (T2, Model.MODEL2, 30, 17, 0.5),
    (make_params(10, 30, 0.1, 10, p=0.5, model=Model.RSRD), Model.RSRD, 20, 33, 0.5),
])
def test_lattice_matches_per_state_assembly(monkeypatch, params, model, x_max, y_max,
                                            tail_error):
    (entries, residual, tail), p_ref, a_ref = _reference_lattice(
        params, model, x_max, y_max, tail_error)
    # the table's rows, entry for entry: each nonzero off the main diagonal and the stay at
    # every state; this covers P's column 0, which row 0 of ones hides from the solved system
    moves = _lattice_moves(params, _lattice_shape(model, x_max, y_max))
    p_ref = p_ref.tocoo()
    assert {(int(i), int(i) + offset): float(q[i]) for offset, q in moves.items()
            for i in (np.flatnonzero(q) if offset else range(q.size))} == dict(
        zip(zip(p_ref.row.tolist(), p_ref.col.tolist()), p_ref.data.tolist()))
    solved = []
    spsolve = spla.spsolve
    monkeypatch.setattr(spla, "spsolve", lambda a, b: solved.append(a) or spsolve(a, b))
    table = truncated_stationary(params, x_max=x_max, y_max=y_max,
                                 tail_error=tail_error)
    _assert_same_sparse(solved[0], a_ref)
    assert table.pi.shape == _lattice_shape(model, x_max, y_max)
    assert table.pi.ravel().tolist() == list(entries.values())   # C order, as built
    assert (table.residual, table.tail_mass_bound) == (residual, tail)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       p=st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
def test_lattice_rows_are_folded_kernel_rows(seed, p):
    params = random_params(np.random.default_rng(seed), p=p, model=Model.MODEL2)
    shape = _lattice_shape(Model.MODEL2, 6, 6)
    moves = _lattice_moves(params, shape)
    for i, state in enumerate(np.ndindex(*shape)):
        folded = {i: 0.0}
        for target, prob in full_kernel(params, state).targets:
            if target == state or max(target[:2]) > 6:
                folded[i] += prob
            else:
                folded[int(np.ravel_multi_index(target, shape))] = prob
        row = {i + offset: float(q[i]) for offset, q in moves.items() if offset and q[i] != 0.0}
        assert {i: float(moves[0][i]), **row} == folded


@pytest.mark.parametrize("params", [
    A, B, T2, make_params(10, 30, 0.1, 10, p=0.6, model=Model.MODEL2),
    make_params(10, 30, 0.1, 10, p=0.5, model=Model.RSRD),
    make_params(10, 30, 0.1, 10, model=Model.RSRD)],
    ids=["A", "B", "T2", "tandem-p0.6", "rsrd-p0.5", "rsrd-p1"])
@pytest.mark.parametrize("x_max,y_max", [(1, 1), (6, 11), (23, 9)])
def test_lattice_inflow_is_the_sparse_mat_vec(params, x_max, y_max):
    # every entry, the folded far edge included, equals the sparse mat-vec with the
    # per-state P bit for bit; entries spread over decades, so a changed summation order shows
    shape = _lattice_shape(params.model, x_max, y_max)
    pi = np.random.default_rng(x_max).random(shape) ** 8
    _, p_ref = _reference_matrix(params, params.model, x_max, y_max)
    assert np.array_equal(_lattice_inflow(_lattice_moves(params, shape), pi),
                          (pi.ravel() @ p_ref).reshape(shape))


@pytest.mark.parametrize("params", [
    A, T2, make_params(10, 30, 0.1, 10, p=0.5, model=Model.MODEL2), RS],
    ids=["model1", "tandem-p1", "tandem-p0.5", "rsrd-p0.5"])
@pytest.mark.parametrize("x_max", [1, 2, 6])
@pytest.mark.parametrize("y_max", [1, 2, 6])
def test_lattice_diagonals_hold_each_lattice_move_once(params, x_max, y_max):
    # at y_max = 1 a phase's (0, +1) and (+1, -1) moves share an offset; the first,
    # folded at the y edge, must not add into the second's entry
    shape = _lattice_shape(params.model, x_max, y_max)
    moves = _lattice_moves(params, shape)
    for i, state in enumerate(np.ndindex(*shape)):
        row = dict(full_kernel(params, state).targets)
        for offset, q in moves.items():
            if offset and q[i] != 0.0:
                assert 0 <= i + offset < q.size
                target = tuple(map(int, np.unravel_index(i + offset, shape)))
                assert max(abs(t - s) for t, s in zip(target[:-1], state[:-1])) <= 1
                # one move of the state's own row per offset, its target on the lattice
                assert target != state and row.pop(target) == q[i]
        # what is left stays put or leaves the lattice: the stay, summed in target order
        assert all(t == state or any(c >= n for c, n in zip(t, shape)) for t in row)
        assert moves[0][i] == sum(row.values(), 0.0)


@pytest.mark.filterwarnings("error")
def test_truncated_refuses_a_singular_solve(monkeypatch):
    # a solve that SuperLU finds singular warns and returns NaN; no gate may pass it.
    # The lattices known to do so are refused before the solve (next test), so the
    # solver's answer on them is stood in for here
    def singular(a, b):
        warnings.warn("Matrix is exactly singular", spla.MatrixRankWarning)
        return np.full(b.shape, np.nan)

    monkeypatch.setattr(spla, "spsolve", singular)
    with pytest.raises(ArithmeticError, match="^truncated solve produced non-finite"):
        truncated_stationary(T2, x_max=10, y_max=10)


def test_truncated_refuses_negative_probabilities(monkeypatch):
    # no lattice is known to solve to an entry below -1e-10: the solver's answer is planted
    monkeypatch.setattr(spla, "spsolve", lambda a, b: np.where(np.arange(b.size) == 3, -1e-9, 1.0))
    with pytest.raises(ArithmeticError, match="^truncated solve produced negative probabilities$"):
        truncated_stationary(T2, x_max=10, y_max=10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rates,p,side,lost", [
    # SuperLU returned NaN on both, after 1.5 s on the first (eta's 60 x 60 table)
    ((0.1, 10, 1e150, 1e150), 1.0, 60,
     "outflow 5e-152 + stay 0.5 rounds to the stay at C = 2e+150"),
    ((5e-324, 1e-300, 1e-160, 1e-160), 0.5, 40,
     "outflow 2.47e-164 + stay 0.5 rounds to the stay at C = 2e-160"),
], ids=["eta-singular", "tailfit-singular"])
def test_truncated_refuses_coordinate_moves_lost_against_the_stay(monkeypatch, rates, p, side,
                                                                   lost):
    # every state but (side, side, Down), which has no coordinate move, loses them
    params = make_params(*rates, p=p, model=Model.MODEL2)
    shape = _lattice_shape(Model.MODEL2, side, side)
    moves = _lattice_moves(params, shape)
    outflow = sum(q for offset, q in moves.items() if abs(offset) > 1)
    kept = (outflow == 0.0) | (moves[0] + outflow != moves[0])
    assert np.flatnonzero(kept).tolist() == [int(np.ravel_multi_index((side, side, DOWN), shape))]
    monkeypatch.setattr(spla, "spsolve", lambda a, b: pytest.fail("the solve ran"))
    with pytest.raises(ArithmeticError) as refusal:
        truncated_stationary(params, x_max=side, y_max=side)
    assert str(refusal.value) == ("every lattice state with coordinate moves loses them against "
                                  f"its stay; at (0, 0, 0): {lost}")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [0.5, 1.0])
def test_truncated_solves_a_lattice_where_some_states_lose_their_coordinate_moves(p):
    # coordinate moves are lost against the stay at (0, 0, Up) (the arrival 5e-21)
    # and at 20 Down states on the edges y = 0 and x = 10, but every other state
    # keeps them: SuperLU solves this lattice
    params = make_params(1e-20, 1e-3, 1, 1, p=p, model=Model.MODEL2)
    shape = _lattice_shape(Model.MODEL2, 10, 10)
    moves = _lattice_moves(params, shape)
    outflow = sum(q for offset, q in moves.items() if abs(offset) > 1)
    lost = np.flatnonzero((outflow > 0.0) & (moves[0] + outflow == moves[0]))
    assert int(np.ravel_multi_index((0, 0, UP), shape)) in lost
    assert 0 < lost.size < np.count_nonzero(outflow)
    table = truncated_stationary(params, x_max=10, y_max=10)
    assert np.isfinite(table.pi).all() and table.pi.min() >= 0.0
    assert table.residual < 1e-30 and table.pi[1, 0, UP] > 0.0


@pytest.mark.parametrize("params,x_max,y_max", [
    (T2, 60, 60), (make_params(10, 30, 0.1, 10, p=0.5, model=Model.MODEL2), 40, 40),
    (make_params(10, 30, 0.1, 10, p=0.5, model=Model.RSRD), 40, 40),
    (make_params(1e-5, 30, 0.1, 10, model=Model.MODEL2), 60, 60),
    (make_params(1, 50, 1.9, 0.6, model=Model.MODEL2), 60, 60), (A, 300, None)],
    ids=["T2", "tandem-p0.5", "rsrd-p0.5", "light-load", "fast-switching", "A"])
def test_lattice_moves_are_not_lost_against_the_stay(params, x_max, y_max):
    moves = _lattice_moves(params, _lattice_shape(params.model, x_max, y_max))
    outflow = sum(q for offset, q in moves.items() if abs(offset) > 1)
    assert not np.any((outflow > 0.0) & (moves[0] + outflow == moves[0]))


@pytest.mark.parametrize("model,x_max,y_max", [
    (Model.MODEL1, 0, None), (Model.MODEL1, -1, None),
    (Model.MODEL2, 0, 5), (Model.MODEL2, 5, 0), (Model.RSRD, 5, -1)])
def test_lattice_needs_both_sides(model, x_max, y_max):
    params = A if model is Model.MODEL1 else make_params(10, 30, 0.1, 10, model=model)
    with pytest.raises(InvalidParameters, match="x_max >= 1") as refusal:
        truncated_stationary(params, x_max=x_max, y_max=y_max)
    # the refusal names the chain's own sides: Model 1 has no y
    assert ("y_max >= 1" in str(refusal.value)) is (model is not Model.MODEL1)


def test_the_two_server_lattice_needs_y_max():
    with pytest.raises(InvalidParameters) as refusal:
        truncated_stationary(T2, x_max=4)
    assert str(refusal.value) == "y_max required for the two-server lattice"


def _reference_prob(pi, state):
    """pi(state) as a dict of the box's states reads it: 0.0 off the box."""
    return float(pi[state]) if all(0 <= c < n for c, n in zip(state, pi.shape)) else 0.0


LAWS = {
    "model1": lambda: exact_stationary_model1(A, k_max=5),
    "tandem": lambda: truncated_stationary(T2, x_max=4, y_max=3, tail_error=1.0),
    "empirical": lambda: empirical_distribution(simulate(T2, steps=3000, seed=1)),
}


@pytest.mark.parametrize("name", list(LAWS))
def test_prob_reads_zero_off_the_box_and_refuses_a_wrong_state(name):
    law = LAWS[name]()
    shape = law.pi.shape
    for axis, n in enumerate(shape):
        # a wrapped index would read the far edge, which holds mass on every axis
        assert np.take(law.pi, -1, axis=axis).any()
        for state in np.ndindex(*shape):
            assert law.prob(state) == law.pi[state]
            for bad in (-1, -n, n):
                assert law.prob(state[:axis] + (bad,) + state[axis + 1:]) == 0.0
    with pytest.raises(ValueError, match="read-only"):
        law.pi[(0,) * len(shape)] = 1.0
    for wrong in ((0,) * (len(shape) - 1), (0,) * (len(shape) + 1)):
        with pytest.raises(InvalidState, match="coordinates"):
            law.prob(wrong)
    # windows of levels that overlap, miss or reverse the box read as prob does
    x_max, inner = shape[0] - 1, shape[1:]
    for (k_min, k_max), rest in itertools.product(
            [(-3, 2), (x_max - 1, x_max + 3), (x_max + 2, x_max + 4), (3, 1), (0, x_max)],
            itertools.product(*(range(-1, n + 1) for n in inner))):
        y = rest[0] if len(rest) == 2 else 0
        got = law.levels(rest[-1], k_min, k_max, y)
        assert got.tolist() == [_reference_prob(law.pi, (k,) + rest)
                                for k in range(k_min, k_max + 1)]


def _reference_total_variation(a, b):
    """Half the l1 distance over the union of both boxes' states, summed exactly."""
    states = set(np.ndindex(*a.pi.shape)) | set(np.ndindex(*b.pi.shape))
    return 0.5 * math.fsum(abs(_reference_prob(a.pi, s) - _reference_prob(b.pi, s))
                           for s in states)


def test_total_variation_counts_mass_one_side_lacks():
    # point masses in boxes that miss each other's state: all mass counts, both ways
    far = np.zeros((1, 3, 2))
    far[0, 2, DOWN] = 1.0
    here, there = LatticeLaw(pi=np.array([[[1.0, 0.0]]])), LatticeLaw(pi=far)
    assert here.total_variation(there) == there.total_variation(here) == 1.0
    # two empirical laws and a table, each box wider than another on some axis
    laws = [empirical_distribution(simulate(T2, steps=20_000, seed=seed)) for seed in (1, 2)]
    laws.append(stationary_table(RS, x_max=6, y_max=30))
    for a, b in itertools.permutations(laws, 2):
        assert a.total_variation(b) == b.total_variation(a)
        assert abs(a.total_variation(b) - _reference_total_variation(a, b)) <= 1e-15
    assert any(np.any(np.less(a.pi.shape, b.pi.shape)) and np.any(np.less(b.pi.shape, a.pi.shape))
               for a, b in itertools.combinations(laws, 2))
