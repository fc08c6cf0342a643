import dataclasses
import hashlib
import math

import numpy as np
import pytest

from uqtail import Model, asymptotics, kernels, make_params, stability, verify
from uqtail.asymptotics import _eta_model1
from uqtail.kernels import _fold
from uqtail.verify import (_CHUNK, PARAMS_A, PARAMS_B, _sets, check_drift,
                           check_escape_closed_form, check_exact_coefficient,
                           check_harmonicity, check_perron_root,
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
    (20, 0): "ae48731f0026086b336698b3e7f26d9014094d2f1498cc1505c4b7602c8b0b1b",
    (20, 1): "b04df7e05739ae973dc643b743e60fc181230da278d2a81e6bd2b44c33073839",
    (20, 2): "d578b2806f340c7f47873c3b812a2ed587c938ed44a502d999ed4a185be8762c",
    (20, 3): "78301a8bfc49dc59ed97e258703aff7bd85a8327f30eba0f16912db695e35fc3",
    (20, 4): "9a584c233caa04aae413e193571afdea0c3c4fdd7dbd1de4debe2ae78aa531d4",
    (20, 5): "e8ea0300e9fc1af315ab17a97f35925984e09ebf33a72ca2c08356d4bb6cfbcf",
    (20, 6): "98d9a428f0959f8c4a003cd06acb4965b76480a7faed4217770f2da38afb3543",
    (20, 7): "01b8b755d694b9215aff54bdfeebc4a41e0e01515d4582514156758ad662a12d",
    (20, 8): "e7778f10532660e23d01333fc89000008b3fc07c090b794ef3a94ad0b7d0d8d6",
    (20, 9): "667b4dfaa0f882d1d44504cf38fcdbf66b0d91859fcdabb59cb419ca30c25986",
    (20, 10): "f0dab2db54856ccaf797295d42fa269b334c222cbc2f4786241bc2d7da55fefc",
    (20, 11): "b231aae8338263d16409b62d1c0160099a896fdee6b373769ada72c557eae5cd",
    (20, 12): "33398d710b434f623af29c36c16a2f44e9b585741fb1580d27a8d8b2e155fbe0",
    (50, 0): "369018749958f3174ef8f09c6b19478f63bc5fa53b1f324cc4d82259a5109b47",
    (50, 1): "cdf8605addf3cc317d6a9fe92d371f40bf30e38b3cd0f1910e7d07d927a97a9c",
    (50, 2): "68ef9c081e9617b5501bc9e1f24bd7725ef9a5fbd59750db7301bd5e1f7edef5",
    (50, 3): "a54f1440bcfeb51394a44745d90e5da06025f49606775397f1855c6a7ba136fd",
    (50, 4): "328a290a2b6e1efe7506aed5bd4d7636268ac35a54e00aaa31146b6a5485bf51",
    (50, 5): "2cbd359e62502d784a210fb84259a62a92c33f6a548de8420c9231b074db54b9",
    (50, 6): "1c20fbe86d161003b78eac72403f62dca9acc98f570184dddec012ab7976a44a",
    (50, 7): "47d41558a72dd9a1da7f954d94a3dcc0d413da5854a166bb83c639e0d1c40ec1",
    (50, 8): "561b6726751b719ee3f7feee1293a6b04c33fdca84cdaacd00d4b2e9010b0282",
    (50, 9): "46a26dcadc343cee82bb5fd6a3c33f406bcc6637818f91625b218c71a9bad1fd",
    (50, 10): "e7cef6cf71cb72db14143f2aaf9bb4441c9047aa494c6e2f6031ae4c0a70f52d",
    (50, 11): "24521b7fcfed0b74bdab55612c428769a79bf17e55997aa432d7aa6e221564f8",
    (50, 12): "6339cf5523fcae0eee83515c8ff81b1666ce6c04620528dd80602ebad7e11a9b",
    (200, 0): "98ce4c9c1d8cecc13db70263c222a84ba6f832cae4bea2854fbce0b00928b29f",
    (200, 1): "4198ee103c34d0ef2793a0a7f9bd766dce94fcb969a92419a38d0a5f24f283ac",
    (200, 2): "c22d857da4d97187e872eb68e22fb7388647138bbcc79f6ab69119fc9df003e7",
    (200, 3): "11721a33e54e34cb0c0d9c376387f23cddaf760df48480ea4840fe34d08c5ffd",
    (200, 4): "3054a95c419e0e94fae767611ec97f6fa03bc97c4b7e998c4f6b56feb7d2b57e",
    (200, 5): "2e7012ca8377549e71473e355184405dda8c16f92daf5a4cd4332ec6125f3c23",
    (200, 6): "b46b51e4c31bf47331ce57c5c631e49d386b559381702ec796a06a85acfe7c77",
    (200, 7): "007156bcc2c3784f81e24ae02401d9bda1c1ddeb33884b2682d0f052fb3cbc34",
    (200, 8): "b61082d8960fce492af38a223f55be9755255ad8d3371b3f3fcf6647f42fc773",
    (200, 9): "2ded93bee76d48c6900db0e2994b6030b9180e3aebc666b59d9444644a9f9073",
    (200, 10): "3ffb6d3b222ccf6c24e8bb532df5a489fa6dc1d27fe85860280895d2558ce740",
    (200, 11): "8f205a003e03aa2c51696f2854de8ca8d9a0358052606587b26b38dd642cb8c2",
    (200, 12): "9438381b74a953db362c848f0dfe07543a1ce6c99fc981844bd58d41d0606c6c",
    (1031, 11): "b07ca5d2f86e7eb944e56c3368a0c84816fa0797e7513bf49cd04f0d7c5337eb",
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
    the generator's state after them.  The A and B that lead the escape and
    exact-coefficient checks' stacks draw nothing."""
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
               check_drift, check_escape_closed_form, check_exact_coefficient,
               check_summability_gate]


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
    summary = verify.twist_summary
    for check in (check_escape_closed_form, check_exact_coefficient):
        evaluated = []
        monkeypatch.setattr(verify, "twist_summary",
                            lambda params: evaluated.append(params) or summary(params))
        assert check(3, 0).passed
        (stack,) = evaluated
        assert len(stack.lam) == 5
        for name in ("lam", "mu", "alpha", "beta", "p", "C"):
            assert np.broadcast_to(getattr(stack, name), 5)[:2].tolist() == \
                [getattr(PARAMS_A, name), getattr(PARAMS_B, name)]


def test_exact_coefficient_check_holds_at_a_tiny_alpha(monkeypatch):
    # alpha = 2.5e-12 with mu > lambda + beta, after A and B: C(Up) = 4.9e-12 lies under a
    # gamma_2^k term of weight 0.41, which the oracle must not cancel against
    stack = make_params(*(np.r_[getattr(verify._REFERENCE, r), v]
                          for r, v in zip(verify._RATES, (26.32, 44.89, 2.531e-12, 15.48))))
    monkeypatch.setattr(verify, "_reference_led", lambda grid, seed: iter([stack]))
    result = check_exact_coefficient(20, 0)
    assert result.passed, result.detail


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


def _eta_scaled(twist_pass, esc, t2_minus_1):
    return _eta_model1(twist_pass, esc, t2_minus_1) * (1.0 + 1e-10)


def _sqrt_s_scaled(twist_pass):
    # the decomposition's gamma_1 - gamma_2 reads sqrt(s_p) from the pass's roots
    asym = asymptotics.tail_constants(twist_pass)
    roots = dataclasses.replace(asym.roots, sqrt_s=asym.roots.sqrt_s * (1.0 + 1e-9))
    return dataclasses.replace(asym, roots=roots)


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
    (check_exact_coefficient, asymptotics, "_eta_model1", _eta_scaled),
    (check_exact_coefficient, verify, "tail_constants", _sqrt_s_scaled),
    (check_summability_gate, verify, "characteristic_roots",
     _roots_with("gamma_p", lambda sol: sol.gamma_secondary)),
]


@pytest.mark.parametrize("check,module,name,defect", PLANTED_DEFECTS,
                         ids=[planted[0].__name__ + {_eta_scaled: "-eta", _sqrt_s_scaled: "-sqrt-s"}
                              .get(planted[3], "") for planted in PLANTED_DEFECTS])
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

    def nan_boundary(params, roots):
        pi0, r, mass = boundary(params, roots)
        return np.full_like(pi0, np.nan), r, mass
    monkeypatch.setattr(verify, "_boundary", nan_boundary)
    result = verify.check_tail_reproduction()
    assert result.passed is False, result.detail
    assert result.detail.endswith(": nan")
