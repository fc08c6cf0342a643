import dataclasses
import hashlib
import importlib
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uqtail import (DOWN, UP, ConvergenceError, Excursion, InvalidParameters, Model,
                    Trajectory, UnstableParameters, conditioned_excursion_slope,
                    empirical_distribution, excursion_verdict, full_kernel,
                    ld_excursions, make_params, regime_prediction, simulate,
                    stationary_table)
from uqtail.cli import _csv_header, _fmt, main
from uqtail.kernels import _moves, _origins
from uqtail.simulate import _BLOCK, _block_path, _csv_lines, _phase_path, _phase_rows
from uqtail.verify import random_params

from test_pins import pinned

A = make_params(10, 11, 0.1, 10)
B = make_params(20, 60, 0.01, 1)
T2 = make_params(10, 30, 0.1, 10, model=Model.MODEL2)


def test_determinism():
    t1 = simulate(A, steps=500, seed=12)
    t2 = simulate(A, steps=500, seed=12)
    assert np.array_equal(t1.x, t2.x) and np.array_equal(t1.status, t2.status)
    t3 = simulate(A, steps=500, seed=13)
    assert not np.array_equal(t1.x, t3.x)


def test_moves_are_legal():
    traj = simulate(A, steps=2000, seed=0)
    for i in range(2000):
        row = full_kernel(A, traj.state(i))
        assert row.prob(traj.state(i + 1)) > 0


def test_moves_are_legal_model2():
    traj = simulate(T2, steps=1000, seed=0)
    for i in range(1000):
        row = full_kernel(T2, traj.state(i))
        assert row.prob(traj.state(i + 1)) > 0


def test_near_empty_system_hugs_zero():
    params = make_params(0.0011, 11, 0.1, 10)
    traj = simulate(params, steps=5000, seed=1)
    assert np.mean(traj.x == 0) > 0.99


def test_start_state_respected():
    traj = simulate(A, steps=10, seed=0, start=(5, DOWN))
    assert traj.state(0) == (5, DOWN)


def test_empirical_distribution_normalized():
    traj = simulate(A, steps=200000, seed=2)
    emp = empirical_distribution(traj, burn_in=10000)
    assert emp.total() == pytest.approx(1.0, abs=1e-12)
    up = emp.pi[:, UP].sum()
    assert up == pytest.approx(10 / 10.1, abs=0.01)
    assert emp.notes == ()


def _reference_empirical(traj, burn_in):
    """empirical_distribution as np.unique counts of each state's code, in a
    dict keyed by state tuple."""
    x = traj.x[burn_in:]
    s = traj.status[burn_in:]
    if traj.y is None:
        code = x.astype(np.int64) * 2 + s
        values, counts = np.unique(code, return_counts=True)
        return {(int(v // 2), int(v % 2)): c / len(x) for v, c in zip(values, counts)}
    y = traj.y[burn_in:]
    span = int(y.max()) + 1
    code = (x.astype(np.int64) * span + y) * 2 + s
    entries = {}
    values, counts = np.unique(code, return_counts=True)
    for v, c in zip(values, counts):
        entries[(int(v // (2 * span)), int((v // 2) % span), int(v % 2))] = c / len(x)
    return entries


@pytest.mark.parametrize("params", [
    B, T2, make_params(10, 30, 0.1, 10, p=0.5, model=Model.MODEL2),
    make_params(10, 30, 0.1, 10, p=0.5, model=Model.RSRD)],
    ids=["B", "T2", "tandem-p0.5", "rsrd-p0.5"])
def test_empirical_law_matches_the_unique_count_reference(params, tmp_path):
    steps = 200_000
    burn = steps // 10   # the simulate verb's default burn-in
    traj = simulate(params, steps=steps, seed=0)
    entries = _reference_empirical(traj, burn)
    emp = empirical_distribution(traj, burn_in=burn)
    box = tuple(max(state[i] for state in entries) + 1 for i in range(emp.pi.ndim - 1))
    assert emp.pi.shape == box + (2,)
    assert {tuple(map(int, state)): emp.pi[state]
            for state in zip(*np.nonzero(emp.pi))} == entries
    # bit for bit the law that np.ravel_multi_index's cell numbers count
    coords = [c[burn:] for c in (traj.x, traj.y, traj.status) if c is not None]
    counts = np.bincount(np.ravel_multi_index(coords, emp.pi.shape), minlength=emp.pi.size)
    assert emp.pi.tobytes() == (counts / (steps + 1 - burn)).tobytes()
    # the simulate verb's CSV, against one written from the reference's sorted states
    (tmp_path / "params.json").write_text(params.to_json())
    assert main(["simulate", "--params", str(tmp_path / "params.json"),
                 "--steps", str(steps), "--out", str(tmp_path)]) == 0
    expected = [_csv_header(params, seed=0, burn_in=burn, steps=steps),
                "x,status,frequency\n" if emp.pi.ndim == 2 else "x,y,status,frequency\n"]
    expected += [f"{','.join(map(str, state))},{_fmt(entries[state])}\n"
                 for state in sorted(entries)]
    assert (tmp_path / "empirical.csv").read_bytes() == "".join(expected).encode()


def test_empirical_law_rejects_a_negative_coordinate():
    x = np.array([0, 1, 2], dtype=np.int32)
    status = np.array([UP, DOWN, UP], dtype=np.int8)
    for traj in (Trajectory(params=A, seed=0, x=-x, status=status),
                 Trajectory(params=T2, seed=0, x=x, status=status, y=-x),
                 Trajectory(params=A, seed=0, x=x, status=-status),
                 Trajectory(params=A, seed=0, x=x, status=status + 1)):
        with pytest.raises(ValueError, match="non-negative"):
            empirical_distribution(traj)


def test_empirical_law_refuses_a_box_too_large_to_hold():
    # the box runs from 0 to the largest x and y visited: over 3001 x 3001 x 2 cells here
    traj = simulate(T2, steps=10, seed=0, start=(3000, 3000, UP))
    with pytest.raises(ValueError, match=r"visited box \(30\d\d, 30\d\d, 2\) has more than"):
        empirical_distribution(traj)


def test_transience_diagnostic():
    unstable = make_params(14, 11, 0.1, 10)
    traj = simulate(unstable, steps=100000, seed=3)
    emp = empirical_distribution(traj, burn_in=0)
    assert any("transient" in note for note in emp.notes)


def test_empirical_rejects_bad_burn_in():
    traj = simulate(A, steps=100, seed=0)
    with pytest.raises(InvalidParameters):
        empirical_distribution(traj, burn_in=100)


def test_excursion_invariants():
    traj = simulate(A, steps=200000, seed=4)
    excursions = ld_excursions(traj, level_k=30)
    assert excursions
    for e in excursions:
        assert e.end_step > e.start_step
        assert 0.0 <= e.down_fraction <= 1.0
        assert e.peak >= 30
        assert traj.x[e.start_step] <= 2
        assert np.all(traj.x[e.start_step + 1:e.end_step] < 30)


def test_excursion_after_return_starts_at_low_visit():
    # the second climb leaves x = 2 at step 8 and never revisits it
    x = np.array([0, 1, 2, 3, 4, 5, 4, 3, 2, 3, 4, 5], dtype=np.int32)
    traj = Trajectory(params=A, seed=0, x=x,
                      status=np.zeros(len(x), dtype=np.int8))
    excursions = ld_excursions(traj, level_k=5, base_level=2)
    assert [(e.start_step, e.end_step) for e in excursions] == [(2, 5), (8, 11)]
    for e in excursions:
        assert traj.x[e.start_step] <= 2
        assert e.slope_estimate == 1.0


def test_excursion_requires_level_above_base():
    traj = simulate(A, steps=100, seed=0)
    with pytest.raises(InvalidParameters):
        ld_excursions(traj, level_k=2, base_level=2)


def test_no_excursions_is_empty_list():
    traj = simulate(A, steps=200, seed=0)
    assert ld_excursions(traj, level_k=150) == []


def test_regime_prediction():
    assert regime_prediction(A) == "UpDominated"
    assert regime_prediction(B) == "DownDominated"
    p = make_params(10, 30, 0.1, 10, p=0.5, model=Model.MODEL2)
    assert regime_prediction(p) == "UpDominated"  # mu*p = 15 < lam+beta = 20
    with pytest.raises(InvalidParameters):
        regime_prediction(make_params(10, 20, 0.1, 10))


def test_excursion_verdict_majority():
    traj = simulate(B, steps=70000, seed=11)
    excursions = ld_excursions(traj, level_k=30)
    assert excursion_verdict(excursions) == "DownDominated"
    with pytest.raises(ValueError):
        excursion_verdict([])


def test_trajectory_csv():
    traj = simulate(A, steps=5, seed=9)
    text = traj.to_csv()
    lines = text.splitlines()
    assert any(line.startswith("# lambda=") for line in lines)
    assert any(line.startswith("# seed=9") for line in lines)
    assert lines[-1].startswith("5,")


def test_conditioned_slope_doob_rows_are_stochastic():
    exact = conditioned_excursion_slope(A, level_k=30)
    assert exact.h_residual <= 1e-12
    h = {(x, s): exact.h[x - 3, s] for x in range(3, 30) for s in (UP, DOWN)}
    h.update({(30, s): 1.0 for s in (UP, DOWN)})
    h.update({(2, s): 0.0 for s in (UP, DOWN)})
    worst = 0.0
    for x in range(3, 30):
        for s in (UP, DOWN):
            row = full_kernel(A, (x, s))
            total = sum(p * h[t] / h[(x, s)] for t, p in row.targets)
            worst = max(worst, abs(total - 1.0))
    assert worst <= 1e-12


def test_conditioned_slope_reference_values():
    exact = conditioned_excursion_slope(A, level_k=30)
    assert exact.ratio_slope == pytest.approx(0.07903, abs=1e-4)
    assert exact.mean_slope == pytest.approx(0.10781, abs=1e-4)
    assert exact.remaining_mass < 1e-13
    assert 0.0 < exact.success_probability < 1.0
    # one level above the base is reached in one step
    assert conditioned_excursion_slope(A, level_k=3).mean_slope == 1.0


# mean_slope, ratio_slope and success_probability as the sparse (scipy) solve
# and step loop gave them before the dense per-level rewrite
SLOPE_REFERENCE = {
    (A, 30): (0.10780613856730627, 0.0790258787298421, 0.009227546152559085),
    (A, 200): (0.036320789405870885, 0.032542467718539164, 4.905619869191373e-09),
    (B, 30): (0.2731521190345832, 0.2657501093014838, 0.0016354091848558466),
    (B, 200): (0.2598064548229406, 0.25850222915876886, 4.263390893796141e-07),
}


@pytest.mark.parametrize("params,level_k", list(SLOPE_REFERENCE))
def test_conditioned_slope_matches_the_sparse_solve(params, level_k):
    exact = conditioned_excursion_slope(params, level_k=level_k)
    assert exact.h_residual <= 1e-12
    got = (exact.mean_slope, exact.ratio_slope, exact.success_probability)
    assert got == pytest.approx(SLOPE_REFERENCE[params, level_k], rel=1e-12, abs=0)


def test_conditioned_slope_rejects_bad_input():
    with pytest.raises(InvalidParameters):
        conditioned_excursion_slope(A, level_k=2, base_level=2)
    with pytest.raises(InvalidParameters):
        conditioned_excursion_slope(T2, level_k=30)
    # the one-step excursion returns before any solve, but not before the checks
    with pytest.raises(UnstableParameters):
        conditioned_excursion_slope(make_params(12, 11, 0.1, 10), level_k=3)


def test_conditioned_slope_refuses_reach_probabilities_that_underflow():
    # lambda/mu = lambda/beta = 0.01: level 200 lies about 1e-394 above level 3 in probability
    with pytest.raises(ArithmeticError, match="^reach probabilities underflow below level 200$"):
        conditioned_excursion_slope(make_params(1, 100, 0.1, 100), level_k=200)


def test_conditioned_slope_law_left_unsummed_is_a_convergence_error(monkeypatch):
    # no set is known to keep 1e-13 of the law past 10**6 steps: the step cap is planted
    monkeypatch.setattr(importlib.import_module("uqtail.simulate"), "_SLOPE_MAX_STEPS", 50)
    with pytest.raises(ConvergenceError, match=r"^conditioned excursion law keeps mass \S+ "
                                               "beyond 50 steps$"):
        conditioned_excursion_slope(A, level_k=30)


def _interior(state):
    return (*(1 for _ in state[:-1]), state[-1])


def _reference_rows(params):
    """Per phase, the interior class row as thresholds and (deltas, phase) moves."""
    rows = {}
    for origin in _origins(params.model, 1):
        row = full_kernel(params, origin)
        if origin == _interior(origin):
            cum = np.cumsum([prob for _, prob in row.targets])
            cum[-1] = 1.0
            moves = [(tuple(t - o for t, o in zip(target[:-1], origin)), target[-1])
                     for target, _ in row.targets]
            rows[origin[-1]] = (cum, moves)
    return rows


def _reference_path(params, uniforms, start):
    """The per-step rule: the first move j with u < cum[j] in the interior row
    of the current phase, unless it takes a coordinate below 0; states as rows."""
    rows = _reference_rows(params)
    path = np.empty((len(uniforms) + 1, len(start)), dtype=np.int64)
    path[0] = start
    *coords, s = start
    for i, u in enumerate(uniforms, start=1):
        cum, moves = rows[s]
        j = 0
        while u >= cum[j]:
            j += 1
        delta, to = moves[j]
        moved = [c + d for c, d in zip(coords, delta)]
        if min(moved) >= 0:
            coords, s = moved, to
        path[i] = (*coords, s)
    return path


def _reference_simulate(params, steps, seed, start):
    rng = np.random.default_rng(seed)
    uniforms = []
    i = 1
    while i <= steps:
        uniforms.append(rng.random(min(_BLOCK, steps + 1 - i)))
        i += len(uniforms[-1])
    return _reference_path(params, np.concatenate(uniforms), start)


def _assert_same_path(params, steps, seed, start):
    traj = simulate(params, steps=steps, seed=seed, start=start)
    columns = [traj.x] + ([] if traj.y is None else [traj.y]) + [traj.status]
    assert [c.dtype for c in columns] == [np.int32] * (len(columns) - 1) + [np.int8]
    assert np.array_equal(np.stack(columns, axis=1),
                          _reference_simulate(params, steps, seed, start))


@pytest.mark.parametrize("rates", [(10, 11, 0.1, 10), (20, 60, 0.01, 1),
                                   (14, 11, 0.1, 10), (0.0011, 11, 0.1, 10)])
@pytest.mark.parametrize("start", [(0, UP), (5, DOWN)])
@pytest.mark.parametrize("steps", [1, 70_000, 2 * _BLOCK + 1])
def test_sampler_matches_per_step_rule(rates, start, steps):
    _assert_same_path(make_params(*rates), steps, seed=2024, start=start)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), stable=st.booleans(),
       start=st.sampled_from([(0, UP), (0, DOWN), (3, UP)]),
       steps=st.integers(1, 3000))
def test_sampler_matches_per_step_rule_on_random_sets(seed, stable, start, steps):
    params = random_params(np.random.default_rng(seed), stable=stable)
    _assert_same_path(params, steps, seed=seed, start=start)


# the first three are decoupled (vectorized), the last two coupled (per-step)
TWO_SERVER = [T2, make_params(5, 30, 0.5, 3, model=Model.MODEL2),
              make_params(10, 30, 0.1, 10, model=Model.RSRD),
              make_params(10, 30, 0.1, 10, p=0.5, model=Model.MODEL2),
              make_params(10, 30, 0.1, 10, p=0.5, model=Model.RSRD)]


@pytest.mark.parametrize("params", TWO_SERVER)
def test_two_server_sampler_matches_per_step_rule(params):
    for start in ((0, 0, UP), (3, 0, DOWN), (0, 4, UP)):
        for steps in (1, 3000):
            _assert_same_path(params, steps, seed=7, start=start)
    # a second block of one step
    _assert_same_path(params, _BLOCK + 1, seed=8, start=(0, 0, UP))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), stable=st.booleans(),
       model=st.sampled_from([Model.MODEL2, Model.RSRD]), p=st.sampled_from([1.0, 0.5]),
       wide_c=st.booleans(), start=st.sampled_from([(0, 0, UP), (0, 3, DOWN), (2, 0, UP)]),
       steps=st.integers(1, 3000))
def test_two_server_sampler_matches_per_step_rule_on_random_sets(
        seed, stable, model, p, wide_c, start, steps):
    params = random_params(np.random.default_rng(seed), p=p, stable=stable, model=model)
    if wide_c:
        params = make_params(params.lam, params.mu, params.alpha, params.beta, p=p,
                             model=model, C=2 * params.C)
    _assert_same_path(params, steps, seed=seed, start=start)


@pytest.mark.parametrize("params", [A, B, *TWO_SERVER])
def test_sampler_at_thresholds_and_one_ulp_beside_them(params):
    # uniforms on every threshold and one ulp either side, between runs of
    # first and last moves that drive the chain onto its boundaries
    thresholds = [c for cum, _ in _reference_rows(params).values() for c in cum[:-1]]
    edges = np.array(thresholds + [np.nextafter(c, d) for c in thresholds for d in (0.0, 1.0)])
    rng = np.random.default_rng(5)
    uniforms = np.where(rng.random(6000) < 0.5, rng.random(6000),
                        rng.choice([0.0, 0.0, 0.0, 0.999999], size=6000))
    uniforms[::3] = rng.choice(edges, size=2000)
    rows = _phase_rows(params)
    for start in ((0, UP), (0, DOWN), (4, UP)):
        start = start if params.model is Model.MODEL1 else (start[0], 0, start[1])
        expected = _reference_path(params, uniforms, start)
        at_zero = (expected[:-1, :-1] == 0) & np.isin(uniforms, edges)[:, None]
        assert np.all(at_zero.sum(axis=0) > 100)   # each coordinate, at an edge
        got = np.stack([np.asarray(c) for c in _block_path(rows, uniforms, start)], axis=1)
        assert np.array_equal(got, expected[1:])


@pytest.mark.parametrize("params,share", [
    (make_params(1, 2, 50, 50), 0.96), (make_params(1, 2, 50, 50, model=Model.MODEL2), 0.94)],
    ids=["model1", "tandem"])
def test_block_path_where_almost_every_step_or_none_can_change_the_phase(params, share):
    # at alpha = beta = 50 the steps that set or swap the phase (events) take 97.1% of
    # the unit interval for Model 1 and 95.2% for the tandem; the uniforms left over make a
    # block without an event, along which the phase stays where it started
    table = _phase_rows(params)
    cuts, to_up, to_down, _ = table
    uniforms = np.random.default_rng(17).random(20_000)
    event = ((to_up != UP) | (to_down != DOWN))[np.searchsorted(cuts, uniforms, side="right")]
    assert event.mean() > share
    for block in (uniforms, uniforms[~event]):
        for start in ((0, UP), (3, DOWN)):
            start = start if params.model is Model.MODEL1 else (start[0], 2, start[1])
            expected = _reference_path(params, block, start)
            got = np.stack([np.asarray(c) for c in _block_path(table, block, start)], axis=1)
            assert np.array_equal(got, expected[1:])
    assert np.all(got[:, -1] == DOWN)


def _fold_sets():
    rng = np.random.default_rng(31)
    for i in range(24):
        model = (Model.MODEL1, Model.MODEL2, Model.RSRD)[i % 3]
        p = 0.5 if model is not Model.MODEL1 and i % 2 else 1.0
        params = random_params(rng, p=p, stable=i % 4 != 3, model=model)
        yield params
        yield make_params(params.lam, params.mu, params.alpha, params.beta, p=p,
                          model=model, C=2 * params.C)


@pytest.mark.parametrize("params", [A, B, *TWO_SERVER, *_fold_sets()])
def test_boundary_rows_are_interior_rows_with_blocked_moves_folded(params):
    classes = {o: full_kernel(params, o) for x0 in (0, 1) for o in _origins(params.model, x0)}
    for origin, row in classes.items():
        interior = classes[_interior(origin)]
        folded = {}
        for target, prob in interior.targets:
            moved = tuple(t - i + o for t, i, o in
                          zip(target[:-1], interior.origin[:-1], origin[:-1]))
            key = (*moved, target[-1]) if min(moved) >= 0 else origin
            folded[key] = folded.get(key, 0.0) + prob
        expected = row.as_dict()
        assert set(folded) <= set(expected) | {origin}
        assert max(abs(folded.get(k, 0.0) - expected.get(k, 0.0))
                   for k in set(folded) | set(expected)) <= 1e-15, origin


@pytest.mark.parametrize("params", [A, B, *TWO_SERVER, *_fold_sets()])
def test_interval_table_reads_each_phase_row(params):
    # at each merged interval's left end and one ulp below its right end,
    # both phases' rows searched on their own give the table's moves
    cuts, to_up, to_down, moves = _phase_rows(params)
    assert np.all(np.diff(cuts) > 0) and len(to_up) == len(to_down) == len(cuts) + 1
    assert moves.shape == (1 if params.model is Model.MODEL1 else 2, 2 * len(to_up))
    ends = np.concatenate(([0.0], cuts, [1.0]))
    rows = _reference_rows(params)
    checked = 0
    for k, (left, right) in enumerate(zip(ends[:-1], ends[1:])):
        if left >= right:   # a first cut at 0, or a cut at 1: no uniform lands here
            continue
        for u in (left, np.nextafter(right, 0.0)):
            assert np.searchsorted(cuts, u, side="right") == k
            for sigma, targets in ((UP, to_up), (DOWN, to_down)):
                cum, row_moves = rows[sigma]
                delta, to = row_moves[np.searchsorted(cum, u, side="right")]
                assert (tuple(moves[:, 2 * k + sigma].tolist()), int(targets[k])) == (delta, to)
                checked += 1
    assert checked >= 4 * len(cuts)


def test_phase_rows_reject_a_coordinate_move_that_changes_phase(monkeypatch):
    # from (1, UP), Up moves to (0, DOWN) or (2, UP): the first changes x and the phase
    table = ((((-1, 1), 0.5, 0), ((1, 0), 0.5, None)), _moves(A)[DOWN])
    monkeypatch.setattr(importlib.import_module("uqtail.simulate"), "_moves",
                        lambda params: table)
    with pytest.raises(ValueError, match="blocking"):
        _phase_rows(A)


# SHA-256 of x (int32) and status (int8) for seed 2024 and 2 * _BLOCK + 1
# steps, as the earlier sampler, which read the boundary class rows, wrote them
MODEL1_PATHS = {
    ("A", (0, UP)): ("e83d4715e8a7274c8caf1ca0b6f18604c94d192333f50cc5a3bceb89708a794b",
                     "52b6480fca8e569d5c74272cd742ada4a8d7ba52ac9f7f999a1ba8e11dfd0b4c"),
    ("A", (5, DOWN)): ("5752919797d8d3bd3a636a4ec0b1fcca2d4777e5f12a3da739a8f0cb25bf42f6",
                       "fb4796db2c527eea675726e0afe6e627b87b8dfaa3e355e158379d480e096095"),
    ("B", (0, UP)): ("1a94a8016ae54b7ad753ab0dc296a5e78da415bf040ac3f8c018bfefd1ca0427",
                     "a3bfd55ef8501aeb88d7f3c82fea773167ce4614e66f7c619c38fd43d789685a"),
    ("B", (5, DOWN)): ("45dcf138baef24d70208cc8b89ae4254e5b4a0b061d7a2f77a6257c89e69f12c",
                       "1ab0d3cce15118de96997f2c43fc2d7f9586b7982e0b65ea3f2fc080326bfb35"),
}


@pytest.mark.parametrize("name,start", list(MODEL1_PATHS))
def test_model1_paths_are_pinned(name, start):
    traj = simulate({"A": A, "B": B}[name], steps=2 * _BLOCK + 1, seed=2024, start=start)
    assert _path_digests(traj) == MODEL1_PATHS[name, start]


def _path_digests(traj):
    """SHA-256 of x[, y] as little-endian int32 and of status as int8."""
    columns = [(traj.x, "<i4")] + ([] if traj.y is None else [(traj.y, "<i4")])
    return tuple(hashlib.sha256(np.ascontiguousarray(column, dtype=dtype).tobytes()).hexdigest()
                 for column, dtype in columns + [(traj.status, "i1")])


# SHA-256 of x, y (int32) and status (int8) for seed 2024 and 2 * _BLOCK + 1
# steps from (0, 0, UP), as the sampler that searched each phase's row for
# every uniform wrote them
TWO_SERVER_PATHS = {
    "T2": ("1a073a99ac850a4c8ed7f62ebdee60851153243cb0a9e395b4baf6a4c27a967f",
           "112e92d145f08e2a50f07f01fe3da88e0cb91c69fde27e815d6e822175fcba91",
           "2b765787f5b4aa983aed2e13ff876202c6cc9667ff2d11fdc94a9f892ba2f38f"),
    "tandem-p0.5": ("1fce03964d9cd7d3de0056d73867781831573514c2708eddd77c051d1cc699dc",
                    "c01a3fa335058ff57110d4f1822a3bd43ca79364c4fb09baa621495a4a4d5acf",
                    "2b765787f5b4aa983aed2e13ff876202c6cc9667ff2d11fdc94a9f892ba2f38f"),
    "rsrd-p0.5": ("70b5c8bf196bb11cfd3a18b9310944db9279aa168968fc145a52158d4f7a186b",
                  "dfbda04edb7d1480a33d15abb506fa734e056108b2f799ddc48c3c600f6f87f3",
                  "558979f2a2e3369cf6afeb2f99e6cdd1bb3153f896dbb97e963bd38ef89ca707"),
    "rsrd": ("a0c8c85142774d9a21548c6ee8571097a464bec084c6c634f6240b3dea51317b",
             "830ea8fa867b52a7ec0c4e21cfac52e5c253bbdd0321645ad4e02e1a84cc8891",
             "e6b02e8ac8e50ddfcd7859061aa0bb3c1f26b807143bbc6f692ec0beabcb5b63"),
}


@pytest.mark.parametrize("name", list(TWO_SERVER_PATHS))
def test_two_server_paths_are_pinned(name):
    model = Model.RSRD if name.startswith("rsrd") else Model.MODEL2
    params = make_params(10, 30, 0.1, 10, p=0.5 if name.endswith("p0.5") else 1.0, model=model)
    traj = simulate(params, steps=2 * _BLOCK + 1, seed=2024, start=(0, 0, UP))
    assert _path_digests(traj) == TWO_SERVER_PATHS[name]


@pytest.mark.parametrize("p", [1.0, 0.5])
def test_tandem_law_matches_the_truncated_lattice(p):
    # 1e6 steps from seed 0 read 0.0033 (p = 1) and 0.012 (p = 0.5); at p = 1
    # the law is the product form, at p = 0.5 the 60 x 60 lattice
    params = make_params(10, 30, 0.1, 10, p=p, model=Model.MODEL2)
    table = stationary_table(params, x_max=60, y_max=60)
    traj = simulate(params, steps=1_000_000, seed=0)
    assert empirical_distribution(traj, burn_in=1000).total_variation(table) <= 0.02


def _reference_csv_rows(traj):
    if traj.y is None:
        return "".join(f"{i},{traj.x[i]},{traj.status[i]}\n" for i in range(len(traj.x)))
    return "".join(f"{i},{traj.x[i]},{traj.y[i]},{traj.status[i]}\n"
                   for i in range(len(traj.x)))


def _assert_same_lines(text, expected):
    # name the first differing line; a diff of the whole text is too slow
    got, want = text.splitlines(), expected.splitlines()
    bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert bad is None, f"line {bad}: {got[bad]!r} != {want[bad]!r}"
    assert text == expected


@pytest.mark.parametrize("rows", [0, 1, 2, 20, _BLOCK + 3, 2 * _BLOCK + 1])
def test_trajectory_csv_matches_fstrings(rows):
    widths = np.array([0, 9, 10, 99, 100, 99_999, 100_000, 10 ** 9, 2 ** 31 - 1],
                      dtype=np.int32)
    x = np.resize(widths, rows)
    y = np.resize(widths[::-1], rows)
    status = np.resize(np.array([UP, DOWN], dtype=np.int8), rows)
    for traj in (Trajectory(params=A, seed=3, x=x, status=status),
                 Trajectory(params=T2, seed=3, x=x, status=status, y=y)):
        text = traj.to_csv()
        head, _, body = text.partition("step,")
        assert head.endswith("# seed=3\n")
        _assert_same_lines(body.partition("\n")[2], _reference_csv_rows(traj))
        file = io.BytesIO()   # the blocks streamed to a binary file
        assert traj.to_csv(file) is None
        assert file.getvalue() == text.encode()
    one = simulate(A, steps=1, seed=9)
    assert one.to_csv().endswith("status\n" + _reference_csv_rows(one))
    if rows:   # an empty path writes the header alone
        with pytest.raises(ValueError):
            Trajectory(params=A, seed=0, x=-1 - x, status=status).to_csv()


def test_trajectory_csv_across_a_power_of_ten():
    # x and y keep one digit until step 10**5, then take two: a chunk ends at 10**4,
    # _BLOCK and 10**5, and of the four chunks the middle two hold no padding
    rows = 10 ** 5 + 50
    x = np.resize(np.arange(10, dtype=np.int32), rows)
    x[10 ** 5:] += 5
    status = np.resize(np.array([UP, DOWN], dtype=np.int8), rows)
    for traj in (Trajectory(params=A, seed=4, x=x, status=status),
                 Trajectory(params=T2, seed=4, x=x, status=status, y=x[::-1].copy())):
        chunks = list(traj._csv_chunks())[1:]
        assert [chunk.tobytes().count(b"\n") for chunk in chunks] == [
            10 ** 4, _BLOCK - 10 ** 4, 10 ** 5 - _BLOCK, 50]
        text = traj.to_csv()
        _assert_same_lines(text.partition("status\n")[2], _reference_csv_rows(traj))


def _lazy_walk(rng, rows, start, move):
    """|start + S_i|, S a walk whose every step is +-1 with probability move, else 0."""
    steps = rng.choice([-1, 1], size=rows - 1) * (rng.random(rows - 1) < move)
    return np.abs(start + np.concatenate(([0], np.cumsum(steps)))).astype(np.int32)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), tandem=st.booleans(),
       rows=st.sampled_from([10 ** 4, _BLOCK, 10 ** 5]).flatmap(
           lambda n: st.integers(n - 10, n + 3000)),
       starts=st.tuples(*[st.sampled_from([0, 9, 10, 99, 100])] * 2),
       moves=st.tuples(*[st.sampled_from([1.0, 0.3, 0.01, 1e-3, 1e-4])] * 2))
@example(seed=5, tandem=True, rows=10 ** 6 + 20, starts=(10, 99), moves=(1e-3, 0.01))
def test_trajectory_csv_matches_fstrings_on_walks(seed, tandem, rows, starts, moves):
    # x and y cross 9 <-> 10 and 99 <-> 100 every few steps (move 1) or a few times
    # a path (move 1e-4), on paths that end just before or after 10**4, _BLOCK
    # and 10**5; the explicit example's steps reach 7 digits
    rng = np.random.default_rng(seed)
    x, y = (_lazy_walk(rng, rows, start, move) for start, move in zip(starts, moves))
    status = rng.integers(0, 2, size=rows).astype(np.int8)
    traj = (Trajectory(params=T2, seed=seed, x=x, y=y, status=status) if tandem
            else Trajectory(params=A, seed=seed, x=x, status=status))
    _assert_same_lines(traj.to_csv().partition("status\n")[2], _reference_csv_rows(traj))


@pytest.mark.parametrize("columns", [
    [np.arange(9_999_990, 10_000_010), np.arange(20, dtype=np.int32) % 3],
    [np.arange(20), np.zeros(20, dtype=np.int32), np.ones(20, dtype=np.int8)],
    [np.array([7]), np.array([123], dtype=np.int32), np.array([DOWN], dtype=np.int8)],
], ids=["power-of-ten-inside", "all-zero-column", "one-row"])
def test_csv_lines_match_fstrings(columns):
    rows = zip(*(column.tolist() for column in columns))
    expected = "".join(",".join(map(str, row)) + "\n" for row in rows)
    assert _csv_lines(columns).tobytes().decode() == expected


# the simulate and ldpath verbs' files, byte for byte, as tests/pins.json pins them
test_simulate_verb_files_are_pinned = pinned("simulate")
test_ldpath_verb_files_are_pinned = pinned("ldpath")


def _reference_excursions(trajectory, level_k, base_level=2):
    """ld_excursions as a rescan of x[i:] for every excursion."""
    x, status = trajectory.x, trajectory.status
    excursions = []
    i = 0
    while i < len(x):
        hits = np.nonzero(x[i:] >= level_k)[0]
        if len(hits) == 0:
            break
        end = i + int(hits[0])
        low = np.nonzero(x[i:end] <= base_level)[0]
        if len(low):   # no low visit before the passage: skip it
            start = i + int(low[-1])
            excursions.append(Excursion(
                start_step=start, end_step=end, peak=int(x[end]),
                down_fraction=float(np.mean(status[start:end + 1] == DOWN)),
                slope_estimate=(int(x[end]) - int(x[start])) / (end - start)))
        back = np.nonzero(x[end:] <= base_level)[0]
        if len(back) == 0:
            break
        i = end + int(back[0])
    return excursions


@pytest.mark.parametrize("params", [A, B])
def test_excursions_match_rescan(params):
    traj = simulate(params, steps=200_000, seed=4)
    for level_k, base_level in ((30, 2), (8, 0), (12, 5)):
        found = ld_excursions(traj, level_k=level_k, base_level=base_level)
        assert found == _reference_excursions(traj, level_k, base_level)
    assert len(ld_excursions(traj, level_k=8, base_level=0)) > 10


@pytest.mark.parametrize("level_k", [5, 8])
def test_excursions_skip_a_start_above_base(level_k):
    # the path starts at level_k (5), or above base_level and reaches
    # level_k (8) before base_level: that first passage is no excursion
    traj = simulate(A, steps=70_000, seed=13, start=(5, DOWN))
    first_low = int(np.flatnonzero(traj.x <= 2)[0])
    assert np.flatnonzero(traj.x >= level_k)[0] < first_low
    found = ld_excursions(traj, level_k=level_k)
    assert found == _reference_excursions(traj, level_k)
    tail = Trajectory(A, 13, traj.x[first_low:], traj.status[first_low:])
    shifted = [dataclasses.replace(e, start_step=e.start_step + first_low,
                                   end_step=e.end_step + first_low)
               for e in ld_excursions(tail, level_k=level_k)]
    assert found == shifted and len(found) > 10
    assert all(traj.x[e.start_step] <= 2 and e.end_step > e.start_step for e in found)


def test_sampler_through_a_phase_swap_interval():
    # a step swaps Up and Down where lambda + alpha + beta > C: validate admits C down to
    # 1 - 1e-14 of the rate sum, and mu = 1e-15 lies below that share.  x leaves 0 for good,
    # so the set has no boundary visits to count; uniforms on every threshold, one ulp either
    # side and inside the swap interval, and the paths must still agree
    params = make_params(1, 1e-15, 1, 1, C=2.9999999999999707)
    rows = _phase_rows(params)
    cuts, to_up, to_down, _ = rows
    swap = np.flatnonzero((to_up == DOWN) & (to_down == UP))
    assert swap.tolist() == [2]
    low, high = cuts[1], cuts[2]
    assert (low, high) == (0.3333333333333268, 0.3333333333333366)
    thresholds = [c for cum, _ in _reference_rows(params).values() for c in cum[:-1]]
    edges = np.array(thresholds + [np.nextafter(c, d) for c in thresholds for d in (0.0, 1.0)])
    rng = np.random.default_rng(5)
    uniforms = rng.random(6000)
    uniforms[::3] = rng.choice(edges, size=2000)
    uniforms[1::3] = rng.uniform(low, high, 2000)
    for start in ((0, UP), (0, DOWN), (4, UP)):
        expected = _reference_path(params, uniforms, start)
        inside = (low <= uniforms) & (uniforms < high)
        assert np.all(expected[1:, -1][inside] != expected[:-1, -1][inside])   # each one swaps
        assert all(np.sum(inside & (expected[:-1, -1] == s)) > 100 for s in (UP, DOWN))
        got = np.stack([np.asarray(c) for c in _block_path(rows, uniforms, start)], axis=1)
        assert np.array_equal(got, expected[1:])


def test_phase_path_sets_keeps_and_swaps():
    # a step whose targets swap Up and Down needs lambda + alpha + beta > C, which a
    # valid C allows only within 1e-14 of the rate sum (see the test above); the
    # phase path follows it
    rng = np.random.default_rng(8)
    to_up, to_down = (rng.integers(0, 2, 500).astype(np.int8) for _ in range(2))
    for s in (UP, DOWN):
        expected = [s]
        for a, b in zip(to_up, to_down):
            expected.append(a if expected[-1] == UP else b)
        assert _phase_path(s, to_up, to_down).tolist() == expected
