import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqtail import (DOWN, UP, Excursion, InvalidParameters, Model, Trajectory,
                    UnstableParameters, conditioned_excursion_slope,
                    empirical_distribution, excursion_verdict, full_kernel,
                    ld_excursions, make_params, regime_prediction, simulate)
from uqtail.simulate import (_BLOCK, _model1_path, _model1_rows, _move_table,
                             _phase_path)
from uqtail.verify import random_params

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
    assert sum(emp.entries.values()) == pytest.approx(1.0, abs=1e-12)
    up = sum(v for k, v in emp.entries.items() if k[1] == UP)
    assert up == pytest.approx(10 / 10.1, abs=0.01)
    assert emp.notes == ()


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


def test_conditioned_slope_rejects_bad_input():
    with pytest.raises(InvalidParameters):
        conditioned_excursion_slope(A, level_k=2, base_level=2)
    with pytest.raises(InvalidParameters):
        conditioned_excursion_slope(T2, level_k=30)
    # the one-step excursion returns before any solve, but not before the checks
    with pytest.raises(UnstableParameters):
        conditioned_excursion_slope(make_params(12, 11, 0.1, 10), level_k=3)


def _reference_path(table, uniforms, start):
    """The per-step Model 1 sampler: the first move j with u < cum[j] of row
    (min(x, 1), sigma)."""
    xs = np.empty(len(uniforms) + 1, dtype=np.int32)
    ss = np.empty(len(uniforms) + 1, dtype=np.int8)
    x, s = start
    xs[0], ss[0] = x, s
    for i, u in enumerate(uniforms, start=1):
        cum, moves = table[(1 if x else 0, s)]
        j = 0
        while u >= cum[j]:
            j += 1
        dx, s = moves[j]
        x += dx
        xs[i], ss[i] = x, s
    return xs, ss


def _reference_simulate(params, steps, seed, start=(0, UP)):
    rng = np.random.default_rng(seed)
    uniforms = []
    i = 1
    while i <= steps:
        uniforms.append(rng.random(min(_BLOCK, steps + 1 - i)))
        i += len(uniforms[-1])
    return _reference_path(_move_table(params), np.concatenate(uniforms), start)


def _assert_same_path(params, steps, seed, start):
    traj = simulate(params, steps=steps, seed=seed, start=start)
    xs, ss = _reference_simulate(params, steps, seed, start)
    assert traj.x.dtype == np.int32 and traj.status.dtype == np.int8
    assert np.array_equal(traj.x, xs) and np.array_equal(traj.status, ss)


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


def test_sampler_takes_the_boundary_row_at_an_ulp_gap():
    # on A, rows (0, Up) and (1, Up) put the Up -> Down threshold at
    # 0.67524115755627 and 0.6752411575562702; a uniform between them keeps
    # (1, Up)'s phase but sends (0, Up) Down
    table = _move_table(A)
    gap = table[(0, UP)][0][0]
    assert gap == 0.67524115755627 and table[(1, UP)][0][1] > gap
    thresholds = [c for cum, _ in table.values() for c in cum[:-1]]
    edges = np.array(thresholds + [np.nextafter(c, d) for c in thresholds for d in (0.0, 1.0)])
    rng = np.random.default_rng(5)
    uniforms = np.where(rng.random(20_000) < 0.5, 0.1, rng.random(20_000))
    uniforms[::7] = rng.choice(edges, size=len(uniforms[::7]))
    rows = _model1_rows(table)
    for start in ((0, UP), (0, DOWN), (4, UP)):
        xs, ss = _reference_path(table, uniforms, start)
        at_gap = (xs[:-1] == 0) & (ss[:-1] == UP) & (uniforms == gap)
        assert at_gap.sum() > 10
        x, s = _model1_path(rows, uniforms, *start)
        assert np.array_equal(x, xs[1:]) and np.array_equal(s, ss[1:])


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


@pytest.mark.parametrize("rows", [2, 20, _BLOCK + 3])
def test_trajectory_csv_matches_fstrings(rows):
    widths = np.array([0, 9, 10, 99, 100, 99_999, 100_000], dtype=np.int32)
    x = np.resize(widths, rows)
    y = np.resize(widths[::-1], rows)
    status = np.resize(np.array([UP, DOWN], dtype=np.int8), rows)
    for traj in (Trajectory(params=A, seed=3, x=x, status=status),
                 Trajectory(params=T2, seed=3, x=x, status=status, y=y)):
        head, _, body = traj.to_csv().partition("step,")
        assert head.endswith("# seed=3\n")
        _assert_same_lines(body.partition("\n")[2], _reference_csv_rows(traj))
    one = simulate(A, steps=1, seed=9)
    assert one.to_csv().endswith("status\n" + _reference_csv_rows(one))
    with pytest.raises(ValueError):
        Trajectory(params=A, seed=0, x=-x, status=status).to_csv()


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


def test_phase_path_sets_keeps_and_swaps():
    # a step whose targets swap Up and Down needs lambda + alpha + beta > C,
    # which no valid C allows; the phase path still follows it
    rng = np.random.default_rng(8)
    to_up, to_down = (rng.integers(0, 2, 500).astype(np.int8) for _ in range(2))
    for s in (UP, DOWN):
        expected = [s]
        for a, b in zip(to_up, to_down):
            expected.append(a if expected[-1] == UP else b)
        assert _phase_path(s, to_up, to_down).tolist() == expected
