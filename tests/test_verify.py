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
    (20, 0): "cf5e6fc6dcee28363e8b888ecf536260cdfd9a7d698c940b24805f19b4dbc8bd",
    (20, 1): "a64a14e70063538920a1682c63747d8f2c6b922a8154b2e087fb9e743ca82a82",
    (20, 2): "c557f811a81c7bd8c236ccd229d30f27ed29f0339d75c73be3d38d174e74cc70",
    (20, 3): "714c77ec653bf8c86866a17b3f14a5f833f0c5eebb5b3d57d6262e4a0f548a42",
    (20, 4): "bb2b4346d546ee56fb80fb14f2a7b6cde61785966a736285f1362565ff7fb874",
    (20, 5): "f036990b64cd53a06ef193c1d77ecd9c1249be5e9f347c845c8d415b2563290c",
    (20, 6): "83bf735b5ec17d4dd974b797eb86fc46ad59f7fb22c21a99b57508aeb3efe1f8",
    (20, 7): "cccbc86aaf689279a5263e7255c11cba7889ae3eda89bd677165578105e3a0e4",
    (20, 8): "421a0fbb81f8376a37c5947fdeb52c67ef21f682eb8941f3efe2591d173e949f",
    (20, 9): "2bb3011e1df2ae0c00c69984cb6cec0edad8204ab1b63ae8dce566b31855c3f5",
    (20, 10): "bea88f1f7241f08dd72a16433e581b1e4e20767b19de9de6c9270721d667207f",
    (20, 11): "336ff6352e2efeaba559991e28e125c1bdbf7c6635f498a98c8a4fab49f1d4d2",
    (20, 12): "9e5bf8b7209df314acc081dc37173317b4ecf6eb31f082feea9867ea7f008954",
    (50, 0): "081c7e416011a39f5a18ac2b65a6f9c410958f7f2951a014fe7a730a75c53d91",
    (50, 1): "eaa3a094539ea270eda2baad9d35add4746e9fc310299069149f7ef0bcd68de6",
    (50, 2): "da5bfe6b2a9885e34c9e02ff2469a6e7a3e7670542273bf64ab7d2a28b10f65c",
    (50, 3): "85bc47d8f1bbf6620715e6de76ec2c96b46b6188c23f31ba15f0f7b48f69405c",
    (50, 4): "75f4faf16cdf6942c1adbb2cbe2e1592409ba0c3f502264a9f6520144dafef6b",
    (50, 5): "35148233061752c2cd1f7ff5245ba03cb587c99d251ba655d23b684c0aac272f",
    (50, 6): "7c713d1334272c4e6d227e20c3d479dc03a7db00a42ad525cd599e59721ee7b2",
    (50, 7): "80424080fbc2118ef57d96495505e14f70d0cb80b0c9d0ae81e76c9d936fe5b7",
    (50, 8): "ff74342832d64cbb942a7b7e887bd5fe120aa0a326d7a15fa1def31a16a3bcf2",
    (50, 9): "13369d796098b29d780afa8b60ebcaa1a0cdd96f2c17e07e7a786bbe82f43b02",
    (50, 10): "89f5bb948ba6c10a0552c1edecd03d6e2030569c7bae5b9c288563029ed887f3",
    (50, 11): "0011bec4f2429e4ce5ebf8c4023be07aa69720864c5b0edc44b81d04a495a6c2",
    (50, 12): "fbf75f2b2886bf99c2190fe51f277c5c4174211de7d49c6fc0309e131913bdbe",
    (200, 0): "acf8799f3a55d84b625f0dedfb9964ccc2db0c41702ac673558752aefaee3d13",
    (200, 1): "645364bcb55aa21499788818c5879a6389dd63901640d4dec9b547285f6973d1",
    (200, 2): "a4c614c86394c10fb47a8b691f14e6738062c12082f23ee91633664dd6a543d0",
    (200, 3): "d2e1bd11f0dc33be0897d1afca8a485d06bf96faadd8da29e196a4c8b9852c1b",
    (200, 4): "57e4322f015206f3ddf872d3a6ee8bfff4c16ae03dcb5c09884ac7c3bfb4fbf7",
    (200, 5): "6a24839c0ac249c552644e65eb8838527d44d914bdcca5f32e01564428a7f496",
    (200, 6): "f1cfda4c997a478a6593cc4057e228a840bbfa1a868047999249056c3221b2ef",
    (200, 7): "c8e3dd27391c621e88d8c84f466194e580c481bf713cab4d60972552af714823",
    (200, 8): "e187aa75c2db24d1ad0712ed56395bf26fb66060e844849a65c3f9a5e2fa8354",
    (200, 9): "d8e84ae317f1c4ba517a5db05fa284fc14a7f1c44271f2eda01e49211e58c367",
    (200, 10): "64c107e0b7077da6ecfec5d03f5739d555d34ed85c38775b836faa3e912dc1f1",
    (200, 11): "1a218095f4e8f7d6f4b1b1d5a137265a9ac60a7b777102960d83d228394e2638",
    (200, 12): "e5d4d2cce2801955c4be51cdde79c1356f72f605c889e599316f460bc433b1d0",
    (1031, 11): "8c1e445417f9f9b11af4231deab7ef63a5bf6989361dd983d06e477d143903d2",
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


def _eta_scaled(twist_pass, esc):
    return _eta_model1(twist_pass, esc) * (1.0 + 1e-10)


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

    def nan_boundary(params):
        pi0, r, mass = boundary(params)
        return np.full_like(pi0, np.nan), r, mass
    monkeypatch.setattr(verify, "_boundary", nan_boundary)
    result = verify.check_tail_reproduction()
    assert result.passed is False, result.detail
    assert result.detail.endswith(": nan")
