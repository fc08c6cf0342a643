import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from uqtail import (DOWN, UP, InvalidParameters, Model, TruncationError,
                    boundary_vector, exact_stationary_model1, full_kernel,
                    make_params, qbd_blocks, rate_matrix,
                    rate_matrix_closed_form, truncated_stationary, twist_summary)
from uqtail.qbd import (_lattice_inflow, _lattice_matrix, _lattice_shape,
                        _tail_mass_estimate, first_passage, level_blocks)
from uqtail.verify import (check_rate_matrix, check_stability_equivalence,
                           random_params)

A = make_params(10, 11, 0.1, 10)
B = make_params(20, 60, 0.01, 1)
T2 = make_params(10, 30, 0.1, 10, model=Model.MODEL2)


def test_blocks_partition_the_kernel():
    blocks = qbd_blocks(A)
    for sigma in (UP, DOWN):
        row = full_kernel(A, (3, sigma)).as_dict()
        for sigma2 in (UP, DOWN):
            assert blocks.p0[sigma, sigma2] == pytest.approx(row.get((4, sigma2), 0.0))
            assert blocks.p1[sigma, sigma2] == pytest.approx(row.get((3, sigma2), 0.0))
            assert blocks.p2[sigma, sigma2] == pytest.approx(row.get((2, sigma2), 0.0))
        row0 = full_kernel(A, (0, sigma)).as_dict()
        for sigma2 in (UP, DOWN):
            assert blocks.p1_boundary[sigma, sigma2] == pytest.approx(
                row0.get((0, sigma2), 0.0))


def test_closed_form_solves_fixed_point():
    for params in (A, B):
        blocks = qbd_blocks(params)
        r = rate_matrix_closed_form(params)
        rhs = r @ r @ blocks.p2 + r @ blocks.p1 + blocks.p0
        assert np.max(np.abs(r - rhs)) < 1e-14


def rate_matrix_iterate(blocks, tol=1e-15, max_iter=10 ** 6):
    """Reference R by successive substitution R <- R^2 P2 + R P1 + P0 from
    R = 0 (Neuts, 1981): (R, residual)."""
    r = np.zeros((2, 2))
    for _ in range(max_iter):
        r_next = r @ r @ blocks.p2 + r @ blocks.p1 + blocks.p0
        delta = np.max(np.abs(r_next - r))
        r = r_next
        if delta <= tol:
            return r, np.max(np.abs(r - (r @ r @ blocks.p2 + r @ blocks.p1 + blocks.p0)))
    raise AssertionError("successive substitution did not converge")


def test_iterate_agrees_with_closed_form():
    rng = np.random.default_rng(8)
    for params in [A, B] + [random_params(rng) for _ in range(10)]:
        blocks = qbd_blocks(params)
        r, residual = rate_matrix_iterate(blocks)
        assert np.max(np.abs(r - rate_matrix_closed_form(params))) < 1e-12
        assert np.max(np.abs(r - rate_matrix(blocks.p0, blocks.p1, blocks.p2))) < 1e-12
        assert residual < 1e-13


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_rate_matrix_matches_closed_form(seed):
    params = random_params(np.random.default_rng(seed))
    blocks = qbd_blocks(params)
    gap = rate_matrix(blocks.p0, blocks.p1, blocks.p2) - rate_matrix_closed_form(params)
    assert np.max(np.abs(gap)) <= 1e-12


def test_first_passage_takes_the_stochastic_g():
    # the plain blocks' G is stochastic: rounding may leave row sums just above 1
    rng = np.random.default_rng(10)
    near_critical = make_params(0.9999 * 10 / 10.1 * 11, 11, 0.1, 10)
    for params in [near_critical] + [random_params(rng) for _ in range(500)]:
        blocks = qbd_blocks(params)
        g = first_passage(blocks.p0, blocks.p1, blocks.p2)
        residual = blocks.p2 + blocks.p1 @ g + blocks.p0 @ g @ g - g
        assert np.max(np.abs(residual)) <= 1e-12


def _stack(blocks):
    """(A0, A1, A2) stacks from a list of (A0, A1, A2) triples."""
    return tuple(np.stack(block) for block in zip(*blocks))


def _tandem_blocks():
    # twisted tandem blocks with y cut at 8: T2 and five grid sets
    rng = np.random.default_rng(12)
    sets = [T2] + [random_params(rng, model=Model.MODEL2) for _ in range(5)]
    return [level_blocks(twist_summary(params).rows, 8) for params in sets]


def test_first_passage_solves_a_stack_slice_by_slice():
    # plain and twisted Model 1 blocks of A, B and 50 grid sets, then tandem blocks
    rng = np.random.default_rng(11)
    model1 = [A, B] + [random_params(rng) for _ in range(50)]
    plain = [(b.p0, b.p1, b.p2) for b in map(qbd_blocks, model1)]
    twisted = [level_blocks(twist_summary(params).rows) for params in model1]
    for blocks in (plain + twisted, _tandem_blocks()):
        g = first_passage(*_stack(blocks))
        assert g.shape == (len(blocks),) + blocks[0][0].shape
        for k, (a0, a1, a2) in enumerate(blocks):
            assert np.max(np.abs(g[k] - first_passage(a0, a1, a2))) <= 1e-15, k


def test_first_passage_names_the_failing_stack_index():
    blocks = _tandem_blocks()
    a0, a1, a2 = blocks[3]
    blocks[3] = (a0, a1, 1.5 * a2)  # rows of A0 + A1 + A2 sum above 1
    with pytest.raises(ArithmeticError, match="at stack index 3 fails: .* max row sum"):
        first_passage(*_stack(blocks))
    # a stack with two leading axes names the set by both indices
    with pytest.raises(ArithmeticError, match="at stack index 1, 0 fails"):
        first_passage(*(block.reshape(2, 3, *block.shape[1:]) for block in _stack(blocks)))


def test_spectrum_matches_characteristic_roots():
    # R's eigenvalues against gamma_p and gamma_secondary on A and B
    result = check_rate_matrix()
    assert result.passed, result.detail


def test_neuts_matches_closed_form_stability():
    # 40 Model 1 sets, about half unstable, then 40 tandem sets with p = 0.5
    result = check_stability_equivalence(40, 9)
    assert result.passed, result.detail


def test_boundary_vector_normalized():
    pi0 = boundary_vector(A)
    r = rate_matrix_closed_form(A)
    total = pi0 @ np.linalg.inv(np.eye(2) - r) @ np.ones(2)
    assert total == pytest.approx(1.0, rel=1e-12)
    # stationarity at the boundary block
    blocks = qbd_blocks(A)
    assert pi0 @ (blocks.p1_boundary + r @ blocks.p2) == pytest.approx(pi0, rel=1e-12)


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
    up = sum(v for k, v in table.entries.items() if k[1] == UP)
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
    assert not table.truncation_warning


def test_tight_cut_raises_or_warns():
    from uqtail import TruncationError
    with pytest.raises(TruncationError):
        truncated_stationary(A, x_max=25)
    table = truncated_stationary(A, x_max=25, tail_error=0.5)
    assert table.truncation_warning
    assert table.tail_mass_bound > 1e-8


def _reference_lattice(params, model, x_max, y_max=None, tail_error=0.01):
    """truncated_stationary as one full_kernel row per lattice state:
    (entries, residual, tail_mass_bound, truncation_warning), P and A."""
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
    p = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    a = (p.T - sp.identity(n, format="csr")).tolil()
    a[0, :] = 1.0
    a = a.tocsc()
    b = np.zeros(n)
    b[0] = 1.0
    pi = np.clip(spla.spsolve(a, b), 0.0, None)
    pi /= pi.sum()
    residual = float(np.max(np.abs(pi @ p - pi)))
    entries = {s: float(pi[index[s]]) for s in states}
    tail = _tail_mass_estimate(model, entries, x_max, y_max)
    if tail > tail_error:
        raise TruncationError("tail")
    return (entries, residual, tail, tail > 1e-8), p, a


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
    (entries, residual, tail, warning), p_ref, a_ref = _reference_lattice(
        params, model, x_max, y_max, tail_error)
    p = _lattice_matrix(params, _lattice_shape(model, x_max, y_max))
    _assert_same_sparse(p, p_ref)
    solved = []
    spsolve = spla.spsolve
    monkeypatch.setattr(spla, "spsolve", lambda a, b: solved.append(a) or spsolve(a, b))
    table = truncated_stationary(params, x_max=x_max, y_max=y_max,
                                 tail_error=tail_error)
    _assert_same_sparse(solved[0], a_ref)
    assert list(table.entries.items()) == list(entries.items())
    assert (table.residual, table.tail_mass_bound, table.truncation_warning) == \
        (residual, tail, warning)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       p=st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
def test_lattice_rows_are_folded_kernel_rows(seed, p):
    params = random_params(np.random.default_rng(seed), p=p, model=Model.MODEL2)
    shape = _lattice_shape(Model.MODEL2, 6, 6)
    matrix = _lattice_matrix(params, shape)
    for i, state in enumerate(np.ndindex(*shape)):
        folded = {i: 0.0}
        for target, prob in full_kernel(params, state).targets:
            if target == state or max(target[:2]) > 6:
                folded[i] += prob
            else:
                folded[int(np.ravel_multi_index(target, shape))] = prob
        row = matrix.getrow(i)
        assert dict(zip(row.indices.tolist(), row.data.tolist())) == folded


@pytest.mark.parametrize("params", [
    A, B, T2, make_params(10, 30, 0.1, 10, p=0.6, model=Model.MODEL2),
    make_params(10, 30, 0.1, 10, p=0.5, model=Model.RSRD),
    make_params(10, 30, 0.1, 10, model=Model.RSRD)],
    ids=["A", "B", "T2", "tandem-p0.6", "rsrd-p0.5", "rsrd-p1"])
@pytest.mark.parametrize("x_max,y_max", [(1, 1), (6, 11), (23, 9)])
def test_lattice_inflow_is_the_sparse_mat_vec(params, x_max, y_max):
    # every entry, the folded far edge included, equals the CSC mat-vec bit for bit;
    # entries spread over decades, so a changed summation order shows
    shape = _lattice_shape(params.model, x_max, y_max)
    pi = np.random.default_rng(x_max).random(shape) ** 8
    assert np.array_equal(_lattice_inflow(params, pi),
                          (pi.ravel() @ _lattice_matrix(params, shape)).reshape(shape))


@pytest.mark.parametrize("model,x_max,y_max", [
    (Model.MODEL1, 0, None), (Model.MODEL1, -1, None),
    (Model.MODEL2, 0, 5), (Model.MODEL2, 5, 0), (Model.RSRD, 5, -1)])
def test_lattice_needs_both_sides(model, x_max, y_max):
    params = A if model is Model.MODEL1 else make_params(10, 30, 0.1, 10, model=model)
    with pytest.raises(InvalidParameters, match="x_max >= 1 and y_max >= 1"):
        truncated_stationary(params, x_max=x_max, y_max=y_max)
