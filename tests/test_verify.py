import dataclasses
import hashlib
import math

import numpy as np
import pytest

from uqtail import Model, asymptotics, kernels, make_params, stability, verify
from uqtail.kernels import _fold
from uqtail.verify import (_CHUNK, PARAMS_A, PARAMS_B, _sets, check_drift,
                           check_escape_closed_form, check_harmonicity, check_perron_root,
                           check_rows_stochastic, check_spectral_roots,
                           check_stability_equivalence, check_summability_gate,
                           check_twisted_rows, random_params, run_checks)


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


def test_stacked_draw_takes_p_and_stable_per_set():
    rng, reference = np.random.default_rng(23), np.random.default_rng(23)
    p, stable = np.tile([0.5, 1.0, 0.7], 100), np.arange(300) % 7 != 3
    stack = _sets(rng.random((300, 4)), p, stable, Model.MODEL2)
    sets = [random_params(reference, p=float(q), stable=bool(s), model=Model.MODEL2)
            for q, s in zip(p, stable)]
    for name in ("lam", "mu", "alpha", "beta", "p", "C"):
        assert getattr(stack, name).tolist() == [getattr(s, name) for s in sets]


VERIFY_DIGESTS = {
    (20, 0): "e30d820df9b815a6b17972bbd68023792c41cc5948f86621595e9079b70d7302",
    (20, 1): "a373ba9c1180fe515061fb3dd7ef5f1dba457d231d3999afa6cf48cecb19c886",
    (20, 2): "ed1ff0ed9ea8a6324b31159ab0d1b834105f65f75b76ec440eeb88616d13efe4",
    (20, 3): "6220e9603a6b1563c2531395d947dc8420c24ee700a1ebde14ae74ce901c06da",
    (20, 4): "bc80f562a9d914c1a303d0f2bbfe6c083ae3a0627efa89d3a9c0ef4e78474dbf",
    (20, 5): "ee6f56e6b25669a87c2e282832f12f078915b2cb194107a4b9bba8f73c324c77",
    (20, 6): "99709ea32f7f6d0718fa0ee4c3f3c85eac425ba459217418bf1b7b780c2e759c",
    (20, 7): "e50e40bc850c9b855f20ca79ae76bd63d6df9306bcfd3974da8e570a9badb869",
    (20, 8): "205426dafb3f119f84c38b79f50954b362ce56cee358dc87bc5734670f193ef5",
    (20, 9): "d7dbd569e44b00037749b43c53d3d67df24b49b2bcef0b7449c517aaf64c989a",
    (20, 10): "2379e3267744b7620f4f65dfa6f0aebfa9d980ee28bb210f5835db0851f4d7af",
    (20, 11): "4da27e8edb2299523a7b68de4e3f32f498d499b383d0e8688f484f2bc0f2f59c",
    (20, 12): "b628322bd7dc2c2305fd10503234904c96ca1d796376fd91147a1e056dc297e4",
    (50, 0): "7d3882bb73f3a16182bcd6aacb6658b71c75f5b88ab7eba07704825f4af82f34",
    (50, 1): "ee0c35cc26ec3e9b385bea8c1fb0d737cde035ffcab6c6e5a0b106e9c37d8e81",
    (50, 2): "0c1e579f484b8884e3efcf1929b0370230f18dde596cd0e1c35b70b12f198742",
    (50, 3): "93069e18c440f34b9d08d25c49ef80db3870fda0243730c23d16e0c8e200d3b3",
    (50, 4): "916db24b369154a698a0b8f526cf29acc14f73400743853333ed16e909daef29",
    (50, 5): "1f46a85d2edb2788a7e17b76864296477a3426193654482b19dfb07d3128d90f",
    (50, 6): "9624acdf69217b29b9ef2ef04d66934a85a34b36955ada28b0d4d6fdcbd7fdc2",
    (50, 7): "04c097406ea9381f81ed1a5c16bdb35b0dd7ff2ce09ba2e6da3a35afe99d4951",
    (50, 8): "c88338d85e587e8fff1811dad7dea91646daee87d08df00eaa47574b116faba5",
    (50, 9): "05413d3060a81f97d8a080579d8a0be36007a14752e3977a01b3aefc3c30fca8",
    (50, 10): "f5dc03d388d21bb29868451bb75a2c268f46023af1654dbdc1c611ea6feac09b",
    (50, 11): "51905f9de1ce9fa667cd2ee9062116be9475b5d5a1de871cc51661e57139c1bd",
    (50, 12): "03b440af4bad233da64fcd6656c811901690fe74c51069605ae9e30a3169ade9",
    (200, 0): "729c10511693625c9858de4f9be52169026eb68ba43484b64086fb28c53665c7",
    (200, 1): "bf6c3a701a174afc37e90e9cc636dc54ae69ef9426c22858492706115337f38b",
    (200, 2): "f31a385808ea7f4f65b69687bcbc508b05148b38ae302572b2b4f40114824420",
    (200, 3): "e8d975e9df206de14b446cec192e863c0f15f77e9f2d8ee47bcace284ec260ab",
    (200, 4): "0619349b76d12be57fd09b9adbea7b3c6000e0fd96645b950a2e49af0ccfe39f",
    (200, 5): "303901f533dc4121aea9735a8b7078d7bd381700ca5795f0a26cb2e28663f386",
    (200, 6): "2aaf64b061ed113f6368743cf859f4bf3804dc8ac4c6864cb21940168018bce1",
    (200, 7): "3b2a572a3e3c841f95850b7992bc09be120b5e4f45c194c9b9e6110611d77618",
    (200, 8): "8d4ea033016cc92a87789e28980d774713cb515b39e6409dd5d50d6fdfb299ef",
    (200, 9): "fdf0698672ae18c0521e2e42690f9fd9203666c39ce0cef6510f575d50cdec94",
    (200, 10): "01d5ff37202e9a378bba863257a45638a4af7d53246199503f4ee1acc4103dab",
    (200, 11): "b50f03ab897fc5c7d71ff6aa9c528d1ed6a85bd4ed3fa63df0e77678737a90c5",
    (200, 12): "3e8e573265bdede1b25e9c0471e60e85cad14b624d3cf1f677f2ba2ab6d23998",
    (1031, 11): "a8cb0cb20ec8913d1b2cc0a25ab39dae579b648ca57cdde2f01ca2b80d8b9b3d",
}


@pytest.mark.parametrize("grid,seed", list(VERIFY_DIGESTS))
def test_run_checks_prints_the_pinned_lines(grid, seed):
    # SHA-256 of the lines `uqtail verify` prints: a printed digit that moves
    # must be re-pinned here, so that no change to them goes unnoticed
    lines = "\n".join(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}"
                      for res in run_checks(grid, seed))
    assert hashlib.sha256(lines.encode()).hexdigest() == VERIFY_DIGESTS[grid, seed]


def _scalar_sets(check, grid, seed):
    """The sets `check` draws, one at a time: each takes one rng.random(5), a
    lead uniform u that sets its labels, then random_params' four uniforms; and
    the generator's state after them.  The escape check's A and B, which lead its
    stacks, draw nothing."""
    rng = np.random.default_rng(seed)
    m1, m2 = Model.MODEL1, Model.MODEL2
    sets = []
    # the stability check draws grid Model 1 sets, then grid tandem sets
    for i in range(2 * grid if check is check_stability_equivalence else grid):
        u, *uniforms = rng.random(5)
        if check in (check_harmonicity, check_twisted_rows):
            labels = dict(p=0.5 if i % 4 == 3 else 1.0, model=m2 if i % 2 else m1)
        elif check is check_rows_stochastic:
            labels = dict(p=0.3 + 0.7 * u if i % 2 else 1.0, stable=i % 5 != 4,
                          model=m2 if i % 2 else m1)
        elif check in (check_spectral_roots, check_summability_gate):
            tandem = u < 0.5 or check is check_summability_gate
            labels = dict(p=0.5 if u < 0.5 else 1.0, model=m2 if tandem else m1)
        elif check is check_drift:
            labels = dict(model=m1 if u < 0.5 else m2)
        elif check is check_stability_equivalence:
            labels = dict(p=0.5 if i >= grid else 1.0, stable=u < 0.5,
                          model=m2 if i >= grid else m1)
        else:
            labels = {}
        sets.append(_sets(np.array(uniforms), **labels))
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
    # and leaves the generator where the loop of one set at a time does
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
    esc = asymptotics._escape(twist_pass)
    return dataclasses.replace(esc, up=esc.up * (1.0 + 1e-8))


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
    (check_drift, kernels, "_moves", _with_first_move_scaled(kernels._moves)),
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
    boundary = verify._boundary

    def nan_boundary(params):
        pi0, r, mass = boundary(params)
        return np.full_like(pi0, np.nan), r, mass
    monkeypatch.setattr(verify, "_boundary", nan_boundary)
    result = verify.check_tail_reproduction()
    assert result.passed is False, result.detail
    assert result.detail.endswith(": nan")
