import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from uqtail import (DOWN, UP, InvalidParameters, Model, TruncationError,
                    boundary_vector, characteristic_roots,
                    exact_stationary_model1, full_kernel, make_params,
                    neuts_stability, qbd_blocks, rate_matrix_closed_form,
                    rate_matrix_iterate, rate_matrix_spectrum, stability,
                    truncated_stationary)
from uqtail.qbd import _lattice_matrix, _lattice_shape, _tail_mass_estimate
from uqtail.verify import random_params

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


def test_iterate_agrees_with_closed_form():
    rng = np.random.default_rng(8)
    for _ in range(10):
        params = random_params(rng)
        sol = rate_matrix_iterate(qbd_blocks(params))
        assert np.max(np.abs(sol.R - rate_matrix_closed_form(params))) < 1e-12
        assert sol.residual < 1e-13


def test_spectrum_matches_characteristic_roots():
    for params in (A, B):
        large, small = rate_matrix_spectrum(rate_matrix_closed_form(params))
        sol = characteristic_roots(params)
        assert large == pytest.approx(sol.gamma_p, abs=1e-12)
        assert small == pytest.approx(sol.gamma_secondary, abs=1e-12)


def test_neuts_matches_closed_form_stability():
    rng = np.random.default_rng(9)
    for _ in range(40):
        params = random_params(rng, stable=bool(rng.random() < 0.5))
        assert neuts_stability(qbd_blocks(params)) == \
            stability(params).stable


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


def test_csv_export_round_trip(tmp_path):
    table = exact_stationary_model1(A, k_max=10)
    out = tmp_path / "table.csv"
    table.to_csv(out, header_lines=["lambda=10"])
    lines = out.read_text().splitlines()
    assert lines[0] == "# lambda=10"
    assert lines[1] == "x,sigma,prob"
    data = table.to_json_dict()
    assert "entries" in data and "residual" in data


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


@pytest.mark.parametrize("model,x_max,y_max", [
    (Model.MODEL1, 0, None), (Model.MODEL1, -1, None),
    (Model.MODEL2, 0, 5), (Model.MODEL2, 5, 0), (Model.RSRD, 5, -1)])
def test_lattice_needs_both_sides(model, x_max, y_max):
    params = A if model is Model.MODEL1 else make_params(10, 30, 0.1, 10, model=model)
    with pytest.raises(InvalidParameters, match="x_max >= 1 and y_max >= 1"):
        truncated_stationary(params, x_max=x_max, y_max=y_max)
