import math

import numpy as np
import pytest

from uqtail import Model, make_params
from uqtail.verify import _P_CHOICES, random_params


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
    # one random(4) per set must give the sets of four uniform calls, bit for bit
    rng, reference = np.random.default_rng(20), np.random.default_rng(20)
    for _ in range(1000):
        assert (random_params(rng, p=p, stable=stable, model=model)
                == _uniform_calls_params(reference, p=p, stable=stable, model=model))
    assert rng.bit_generator.state == reference.bit_generator.state


def test_p_draw_matches_choice():
    # the grid checks pick p by integers(2), which must take choice's bits
    rng, reference = np.random.default_rng(21), np.random.default_rng(21)
    drawn = [_P_CHOICES[rng.integers(2)] for _ in range(10_000)]
    assert drawn == [float(reference.choice([0.5, 1.0])) for _ in range(10_000)]
    assert rng.bit_generator.state == reference.bit_generator.state
