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
    (20, 0): "33139a4d95db0766ca68e11ec8fd0e9e06dcaf7b26c1af7e2e2b796d8f4b434e",
    (20, 1): "170b702df3b2f45da4477f7cf2b3254ef2d01423c693b6003ecc2e448c91cfc0",
    (20, 2): "fac727a9d686cdbecbb69adfc33c5ca372cf7684722009645669fb2c0d6b5f1f",
    (20, 3): "b06c037e69158dd62d690a10d06414fc3210db079625ada71bfd20bf3e18321d",
    (20, 4): "87be594808db882bd7d5e1c795e6d0f21d2d51d203ed21e8c56f35a988282aa4",
    (20, 5): "2c085b0f242c3e3badbfbd3aca0270003f2701e064683b420d09639c00c46511",
    (20, 6): "a2ad64c5c0c2461250d3351d82d982781c548ffafbf64cbf785f91634d3cd71e",
    (20, 7): "932566ed37db61339ac361fe1ec3540ac7300ba2b83e065610bc0e70509f6f00",
    (20, 8): "0974a641fd423008ce208b773ffbe3b8b8a2e2063d9bbe9a71600db1040c1cec",
    (20, 9): "7df386cbd560c04b3811984bac749702691d84e5022a314b388ed008423209ef",
    (20, 10): "6c391f219401a040a24b4e28de9454d8f2943c647e96b9517a4dc579def16a6f",
    (20, 11): "a4087199a5aee6884da7cb120f9fa8184b9c3e8392c2c82e31cc26a73ae20112",
    (20, 12): "998efc0ec29f60e878042675ec003b24ac4e70c0201cb288310ce4e334ab1bf8",
    (50, 0): "12718575a8baf5d28d407c509409e14d6bb28580472adf89d12aa5b2b2307292",
    (50, 1): "c0cc6a6b7ccac3a87b22eb776099f8de93af75541ef84f7ba58874ad99c225c4",
    (50, 2): "07a41caaadcf32b84e607dff899d94d3f975f3f380b976f295b75f6b86833363",
    (50, 3): "c23cd8b05e040d0e2337ab9a5d0fef0c7722373dee1092488ccc337cd214aad3",
    (50, 4): "804fd091467c6b8f9899d9927dbbee9e12866194dc9112e539cbc1aac4e371f1",
    (50, 5): "d87a57bdca8b85da3932fdc8fb561ecd50d3d9f415b6759582c098ffc52d77e5",
    (50, 6): "5f076da989056340186d17533240a0c8b6e8330856ac929e6cffdda82644d0be",
    (50, 7): "335a6bc88d52254a7e951a47f4986c7136fb9e290d52040643ee09ff12e359bd",
    (50, 8): "26ad93b11cd48d72a2e91b76be76d803fe0f1f9be25a61a426cac39555ccbc6f",
    (50, 9): "43cead7f96cc2639e273b212aa489a9812d9cd1383fca5d07194635c8131ec71",
    (50, 10): "e68373cf5d7ea2b8916bddfd18d063f2cd28a3efcd4044f6d96acf3ec3056e74",
    (50, 11): "0374b0578329415b3779134ebecea8b56d1960c5acdbaf77b8ab698494af2530",
    (50, 12): "ae3bd755a167f39416a8de905939a23572ff493b25fa60151f9252a27f91ba57",
    (200, 0): "d5a50507f937f20e6324d2d17ca78080f45622feb2280fb30e9bc01d7534c419",
    (200, 1): "5e7fbed94e4e27d7d22b94a54bfcf1590c94569a762e28f584d114c4395a689e",
    (200, 2): "468b0b5a41a46af6e82260870e32aff79ad8a4187f9a49acd189e2a3b5ec3655",
    (200, 3): "2c86100252d7ad73d3c37a4ac2b1e92ea1d7821c4fc36de4fb63d67a5f8a0a8e",
    (200, 4): "710f2acfb27b39f55870b5f86e3a0b9ccc5236d0db717627a70c32700e3e2b37",
    (200, 5): "d4ab70f5c69df45349133f0966af8714800794d56cd1ea742817ebacf812a9fb",
    (200, 6): "ab4a57af091def456a31b68f96b37ab6c514998cba818b58a9c6d96c97e7cfb6",
    (200, 7): "bb2a4c2b278c22467407a7c02875047f5c72d8962713a9b82593aff8688f46d5",
    (200, 8): "cf49faa2b7cafbe7a9a16137a4ffe42b118dad8c27ed91d1cc8fc50f8f8943eb",
    (200, 9): "13b80b67fca15c1667221cb83ce509c358619b92178050e478157aa93a17806e",
    (200, 10): "8ae9566a53f26a91e15a1de8daa9d437e94cf8046a640b266484451db3eb764b",
    (200, 11): "336117fbe0043e9647e2035481214d67ea46a8eff7c6b74805c33e328a0e23a2",
    (200, 12): "d71947d442f4ed2b9e93aa19548b7125859dc4202f0449abdb7befb2ac237254",
    (1031, 11): "099b8cdf5037a309715917dcb5cb7175cea8056b35ad1199679167bb702b832f",
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


def _eta_scaled(twist_pass, esc):
    return _eta_model1(twist_pass, esc) * (1.0 + 1e-10)


def _rho_inverted(twist_pass):
    # the check's rho = secondary_gamma / gamma becomes gamma_1 / gamma_2
    asym = asymptotics.tail_constants(twist_pass)
    return dataclasses.replace(asym, secondary_gamma=asym.gamma ** 2 / asym.secondary_gamma)


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
    (check_exact_coefficient, verify, "tail_constants", _rho_inverted),
    (check_summability_gate, verify, "characteristic_roots",
     _roots_with("gamma_p", lambda sol: sol.gamma_secondary)),
]


@pytest.mark.parametrize("check,module,name,defect", PLANTED_DEFECTS,
                         ids=[planted[0].__name__ + {_eta_scaled: "-eta", _rho_inverted: "-rho"}
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

    def nan_boundary(params):
        pi0, r, mass = boundary(params)
        return np.full_like(pi0, np.nan), r, mass
    monkeypatch.setattr(verify, "_boundary", nan_boundary)
    result = verify.check_tail_reproduction()
    assert result.passed is False, result.detail
    assert result.detail.endswith(": nan")
