import dataclasses
import hashlib
import math

import numpy as np
import pytest

from uqtail import Model, asymptotics, kernels, make_params, stability, twist, verify
from uqtail.kernels import _fold
from uqtail.verify import (_CHUNK, _P_CHOICES, PARAMS_A, PARAMS_B, _odd_p_rows,
                           _p_choice_rows, _sets, check_drift, check_escape_closed_form,
                           check_harmonicity, check_perron_root, check_rows_stochastic,
                           check_spectral_roots, check_stability_equivalence,
                           check_summability_gate, check_twisted_rows, random_params,
                           run_checks)


def _uniform_calls_params(rng, p=1.0, stable=True, model=Model.MODEL1):
    """random_params as four scalar Generator.uniform calls: the draws that
    fixed every grid of the invariant suite and the tests."""
    mu = rng.uniform(1.0, 50.0)
    alpha = math.exp(rng.uniform(math.log(1e-3), math.log(2.0)))
    beta = rng.uniform(0.5, 30.0)
    bound = beta / (alpha + beta) * mu * p
    lam = bound * rng.uniform(0.1, 0.9) if stable else bound * rng.uniform(1.05, 3.0)
    return make_params(lam, mu, alpha, beta, p=p, model=model)


@pytest.mark.parametrize("p,stable,model", [
    (1.0, True, Model.MODEL1), (1.0, False, Model.MODEL1), (1.0, True, Model.MODEL2),
    (0.5, True, Model.MODEL2), (0.5, False, Model.MODEL2),
], ids=["model1-stable", "model1-unstable", "tandem-p1", "tandem-p05-stable",
        "tandem-p05-unstable"])
def test_random_params_draws_the_uniform_calls_sets(p, stable, model):
    # one random(4) per set, and one random((n, 4)) for a stack of n sets, must give
    # the sets of four uniform calls, bit for bit: alpha is math.exp of each log draw,
    # as np.exp differs in the last bit on some draws
    rng, reference, stacked = (np.random.default_rng(20) for _ in range(3))
    sets = [random_params(rng, p=p, stable=stable, model=model) for _ in range(1000)]
    assert sets == [_uniform_calls_params(reference, p=p, stable=stable, model=model)
                    for _ in range(1000)]
    stack = _sets(stacked.random((1000, 4)), p, stable, model)
    for name in ("lam", "mu", "alpha", "beta", "C"):
        assert getattr(stack, name).tolist() == [getattr(s, name) for s in sets]
    assert stack.model is model and stack.p == p
    assert (rng.bit_generator.state == reference.bit_generator.state
            == stacked.bit_generator.state)


def test_p_draw_matches_choice():
    # the grid checks pick p by integers(2), which must take choice's bits
    rng, reference = np.random.default_rng(21), np.random.default_rng(21)
    drawn = [_P_CHOICES[rng.integers(2)] for _ in range(10_000)]
    assert drawn == [float(reference.choice([0.5, 1.0])) for _ in range(10_000)]
    assert rng.bit_generator.state == reference.bit_generator.state


def test_stacked_draw_takes_p_and_stable_per_set():
    rng, reference = np.random.default_rng(23), np.random.default_rng(23)
    p, stable = np.tile([0.5, 1.0, 0.7], 100), np.arange(300) % 7 != 3
    stack = _sets(rng.random((300, 4)), p, stable, Model.MODEL2)
    sets = [random_params(reference, p=float(q), stable=bool(s), model=Model.MODEL2)
            for q, s in zip(p, stable)]
    for name in ("lam", "mu", "alpha", "beta", "p", "C"):
        assert getattr(stack, name).tolist() == [getattr(s, name) for s in sets]


@pytest.mark.parametrize("grid", [1, 2, 201, 2 * _CHUNK + 1])
@pytest.mark.parametrize("draw,one_set", [
    (_p_choice_rows, lambda rng, k: [_P_CHOICES[rng.integers(2)], *rng.random(4)]),
    (_odd_p_rows, lambda rng, k: [rng.uniform(0.3, 1.0) if k % 2 else 1.0, *rng.random(4)]),
], ids=["p-choice", "odd-p"])
def test_chunk_rows_are_the_one_set_draws(draw, one_set, grid):
    # a chunk's rows, (p, four uniforms) per set, equal the sets' one-set draws, and
    # the generator ends in the same state: p by integers(2) takes a pair of sets'
    # coins from one word's halves, and the last set or two leave the high half of
    # their word buffered as one-set draws do
    rng, reference = np.random.default_rng(grid), np.random.default_rng(grid)
    rows = np.vstack([draw(rng, min(_CHUNK, grid - start)) for start in range(0, grid, _CHUNK)])
    assert rows.tolist() == [one_set(reference, k) for k in range(grid)]
    assert rng.bit_generator.state == reference.bit_generator.state


VERIFY_DIGESTS = {
    (20, 0): "ab8c0c799a77740707cca7be4887e6ee92dd1f94ad3b26070a404d1b3d76416d",
    (20, 1): "b745008d07e79b113d9c33abbdd65fd17d5b735aa86043a5c760f44e060ddf3f",
    (20, 2): "ea5069626bb4c051a67d3625c89651f382a252e144266efa198866ab3d9a985a",
    (20, 3): "3e9d8ca94f5e0e70ee33da7d8234b3e8cb25602d6cc02e6801455860ac75f8cd",
    (20, 4): "436421479dd7a18fcbafeb93c899081ae3d0c0d3ec48c8864e8604ff8f9f13e2",
    (20, 5): "ea4756540872ebb2679611501e8c893dffe487eaf90211ecc06f5e733bfb8da4",
    (20, 6): "ce70dfa979c46242d57d03b60fefd263ad51c88a5eba66226435121ce978dc52",
    (20, 7): "7f1f9e4d100bc71ab18d7a0a35d1946845dedc9735cbe8f5ba59687ef5d0cd14",
    (20, 8): "721c1f9173bdc80da8b6d4e21432fec7ef3de3ab8bd8acb6d6d2a9776e52c7fa",
    (20, 9): "7d38806d1ee1f8296f31f3072f2524f7ea5bb12a45fca638fe583761d3c3f379",
    (20, 10): "a9bbfe743849aca209c5fb93f285fa273975ab9e23360f15ef9f9a40762014c0",
    (20, 11): "e348c193f9e094b4ce65d1017c8d422261e3d2c83d18152cbc2acd1df74c6015",
    (20, 12): "addb5a8efff440a2e09b7467b5204aada3c4baf87c1383b31711f5322f164c61",
    (50, 0): "21b192f85e1d48bd004f1c1224bd03fd33acedf9542c7dc1d5050be661c2fed4",
    (50, 1): "ade9b72be1f35224dda2506ae1f5e8c3ecadb4a5f6721c09600835814e5ac004",
    (50, 2): "aa2c7dffa9fd446d63d0fafa10029376010b3c9c9b673584c7116cd20e6237d5",
    (50, 3): "4a87129e8e1011860b7560deb1f67d3b1d1cf12ff0192d8d146637fe4c9af893",
    (50, 4): "9234e629f633519675d7a4dd36a7ddd359ca2842b0aedf491636bf10a7a2cb61",
    (50, 5): "5ea630d990f54f6c9473811d0f54d086fa5cf76b7817dbe5fee9d6a854f07caa",
    (50, 6): "16068aaaaded392af4d4674e53180679e4ad8111b11727236cab869ff7330172",
    (50, 7): "7b305bfd3ae3c0bcfbb9fe5e931fa38b494c6d0441fcae3cd4c74b2577d30fd5",
    (50, 8): "025eb030ba9584c1f6b5ee13c24574e6d01a25cd1ec41efae23c7c9fd260a3aa",
    (50, 9): "21eeb5548be30563425bf10e8b67f9cebd1e5611f1700e8ccf9b2fdd80075b92",
    (50, 10): "9211368c99af0ed423dd6bca5a52dd3646b1e349628e7b2933dae506c0f99413",
    (50, 11): "c2be76b913ea5421219ee3c88ad1fa5d0574da1e3c459fd8e80eee979df32bcf",
    (50, 12): "a9d208337896a1f666d0ca15ccccd3d691235ffcc15c43e3cc6fe5897830c835",
    (200, 0): "b3a809921b733d03e46df2a0f793d41a111a9da6ea3ab3e5adf08ec39bcdba87",
    (200, 1): "72929150df626d79afc8224ed9373566670f516c8d5da21c5a9c3576ec52a4b3",
    (200, 2): "180be83cb917f7c94d56b259a136e5c5165c22af4d58ba1aaa3ecee02f33c769",
    (200, 3): "58496bf5cb5f8adb47b9d16f6848a0e3b6fe7e2518738ce2c35420ff9ef79720",
    (200, 4): "3b2c68e7e95c1a9be382ee398c9fa48b5f8096a8a67ed7b5f632242f62fcabaa",
    (200, 5): "8106defb3e6f87872a78b63a3b72bb8e7ce53673840ec21d2937667d6d3780f9",
    (200, 6): "66b495c028001531aa0709d7f9d3fc0f2fd83397ce40ef60356f93dac4bba437",
    (200, 7): "0d73904839350e84d9bc1e70009ebad4a21c5710c5a7cb0a9d677669d1ecb28a",
    (200, 8): "c0f9c07155400e919ccdcf30a4f2ce0eebca38f67d9795d263d8e54e83306e44",
    (200, 9): "a4e9154f73a08aa2001c34d2a412a31693e4006498697c5774b5d1fd6b2494f9",
    (200, 10): "e1e18edafc6eafb3801fee8fcf543810001d37ede933cee915072a8711569650",
    (200, 11): "510b6d48316ee1b2fbb2f2e2dc81b74019e3947dd8b567901d008347efb8ad6f",
    (200, 12): "c671a01616c1f03b9f36e8d8fd821b8a6e8a3ef660d42cfb3417e572306eef46",
    (1031, 11): "1a5d4f48825f916dc770ecc9f54295d43601a82cde333d3cf65e55e47f71b23d",
}


@pytest.mark.parametrize("grid,seed", list(VERIFY_DIGESTS))
def test_run_checks_prints_the_pinned_lines(grid, seed):
    # SHA-256 of the lines `uqtail verify` prints, as the suite printed them when
    # it drew its grids one set at a time: no printed digit may move
    lines = "\n".join(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}"
                      for res in run_checks(grid, seed))
    assert hashlib.sha256(lines.encode()).hexdigest() == VERIFY_DIGESTS[grid, seed]


def _scalar_sets(check, grid, seed):
    """The sets `check` drew one set at a time before it drew stacks, and the
    generator's state after them."""
    rng = np.random.default_rng(seed)
    m1, m2 = Model.MODEL1, Model.MODEL2
    if check in (check_harmonicity, check_twisted_rows):
        sets = [random_params(rng, p=0.5 if i % 4 == 3 else 1.0, model=m2 if i % 2 else m1)
                for i in range(grid)]
    elif check is check_rows_stochastic:
        sets = [random_params(rng, p=rng.uniform(0.3, 1.0) if i % 2 else 1.0,
                              stable=i % 5 != 4, model=m2 if i % 2 else m1)
                for i in range(grid)]
    elif check in (check_spectral_roots, check_summability_gate):
        sets = []
        for _ in range(grid):
            p = _P_CHOICES[rng.integers(2)]
            tandem = p != 1.0 or check is check_summability_gate
            sets.append(random_params(rng, p=p, model=m2 if tandem else m1))
    elif check in (check_perron_root, check_escape_closed_form):
        # the escape check's A and B, which lead its stacks, draw nothing
        sets = [random_params(rng) for _ in range(grid)]
    elif check is check_drift:
        sets = [random_params(rng, model=m1 if rng.random() < 0.5 else m2) for _ in range(grid)]
    else:
        sets = [random_params(rng, p=p, stable=bool(rng.random() < 0.5), model=model)
                for model, p in ((m1, 1.0), (m2, 0.5)) for _ in range(grid)]
    return sets, rng.bit_generator.state


def _key(params):
    return (params.model.value, params.lam, params.mu, params.alpha, params.beta,
            params.p, params.C)


GRID_CHECKS = [check_rows_stochastic, check_harmonicity, check_twisted_rows,
               check_spectral_roots, check_perron_root, check_stability_equivalence,
               check_drift, check_escape_closed_form, check_summability_gate]


@pytest.mark.parametrize("check", GRID_CHECKS, ids=lambda check: check.__name__)
def test_grid_checks_draw_the_scalar_sets_across_chunks(monkeypatch, check):
    # a grid of two chunks, the second partial, draws the same sets bit for bit
    # and leaves the generator where the loop of one set at a time did
    grid, drawn, rngs = _CHUNK + 7, [], []
    stacks = verify._grid

    def recorded(rng, *args, **kwargs):
        rngs.append(rng)
        for stack in stacks(rng, *args, **kwargs):
            assert len(stack.lam) <= _CHUNK
            fields = np.broadcast_arrays(stack.lam, stack.mu, stack.alpha, stack.beta,
                                         stack.p, stack.C)
            drawn.extend((stack.model.value, *values)
                         for values in zip(*(field.tolist() for field in fields)))
            yield stack

    monkeypatch.setattr(verify, "_grid", recorded)
    assert check(grid, 11).passed
    sets, state = _scalar_sets(check, grid, 11)
    assert sorted(drawn) == sorted(map(_key, sets))
    assert rngs[-1].bit_generator.state == state


def test_escape_check_leads_with_the_reference_sets(monkeypatch):
    evaluated = []
    summary = verify.twist_summary
    monkeypatch.setattr(verify, "twist_summary",
                        lambda params: evaluated.append(params) or summary(params))
    assert check_escape_closed_form(3, 0).passed
    (stack,) = evaluated
    assert len(stack.lam) == 5
    for name in ("lam", "mu", "alpha", "beta", "p", "C"):
        assert np.broadcast_to(getattr(stack, name), 5)[:2].tolist() == \
            [getattr(PARAMS_A, name), getattr(PARAMS_B, name)]


def _with_first_move_scaled(moves):
    def scaled(params):
        up, down = moves(params)
        (step, prob, low), *rest = up
        return ((step, prob * (1.0 + 1e-9), low), *rest), down
    return scaled


def _roots_with(field, value):
    roots = verify.characteristic_roots
    return lambda params: dataclasses.replace(roots(params), **{field: value(roots(params))})


def _stability_bound_doubled(params):
    report = stability(params)
    return dataclasses.replace(report, stable=params.lam < 2.0 * report.effective_rate * params.p)


def _escape_up_scaled(twist_pass):
    esc, blocks = asymptotics._escape(twist_pass)
    return dataclasses.replace(esc, up=esc.up * (1.0 + 1e-8)), blocks


def _fold_first_step_scaled(moves, origin, h=None):
    (step, prob), *rest = _fold(moves, origin, h)
    return [(step, prob * (1.0 + 1e-9)), *rest]


PLANTED_DEFECTS = [
    (check_rows_stochastic, kernels, "_fold", _fold_first_step_scaled),
    (check_harmonicity, verify, "_moves", _with_first_move_scaled(verify._moves)),
    (check_twisted_rows, verify, "_moves", _with_first_move_scaled(verify._moves)),
    (check_spectral_roots, verify, "characteristic_roots",
     _roots_with("t2", lambda sol: sol.t2 * (1.0 + 1e-9))),
    (check_perron_root, verify, "characteristic_roots",
     _roots_with("t2", lambda sol: sol.t2 * (1.0 + 1e-9))),
    (check_stability_equivalence, verify, "stability", _stability_bound_doubled),
    (check_drift, twist, "_moves", _with_first_move_scaled(kernels._moves)),
    (check_escape_closed_form, verify, "_escape", _escape_up_scaled),
    (check_summability_gate, verify, "characteristic_roots",
     _roots_with("gamma_p", lambda sol: sol.gamma_secondary)),
]


@pytest.mark.parametrize("check,module,name,defect", PLANTED_DEFECTS,
                         ids=[planted[0].__name__ for planted in PLANTED_DEFECTS])
def test_grid_check_fails_on_its_planted_defect(monkeypatch, check, module, name, defect):
    # each stacked check catches the defect it exists for, at the default grid
    assert check(200, 7).passed
    monkeypatch.setattr(module, name, defect)
    result = check(200, 7)
    assert result.passed is False, result.detail


def test_rate_matrix_check_fails_on_a_nan(monkeypatch):
    # Python's max(worst, nan) keeps worst: the check folds with _worst instead
    monkeypatch.setattr(verify, "rate_matrix", lambda *blocks: np.full((2, 2), np.nan))
    result = verify.check_rate_matrix()
    assert result.passed is False, result.detail
    assert "max entry gap = nan" in result.detail


def test_tail_reproduction_check_fails_on_a_nan(monkeypatch):
    levels = verify._model1_levels

    def nan_levels(params, k_max):
        pi, beyond = levels(params, k_max)
        return np.full_like(pi, np.nan), beyond
    monkeypatch.setattr(verify, "_model1_levels", nan_levels)
    result = verify.check_tail_reproduction()
    assert result.passed is False, result.detail
    assert result.detail.endswith(": nan")
