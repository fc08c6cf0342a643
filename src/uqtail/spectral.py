"""Exponential-tilt spectrum of the free process.

The tilted phase kernel, its Perron eigenvalue, the quadratic characteristic
equation selecting the geometric decay rates, and the closed-form stability
test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import row_classes
from .params import InvalidParameters, Model, ModelParams


@dataclass(frozen=True)
class SpectralSolution:
    s_p: float
    t1: float
    t2: float
    gamma_p: float          # 1 / t2, the dominant decay rate under stability
    gamma_secondary: float  # 1 / t1, the subdominant rate
    g_constant: float | None  # defined for p = 1 only
    t2_valid: bool


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    effective_rate: float     # beta/(alpha+beta) * mu
    if_and_only_if: bool      # True for Model 1 and Model 2 with p = 1


def characteristic_roots(params: ModelParams) -> SpectralSolution:
    """Roots of lam^2 t^2 - lam(mu*p+lam+alpha+beta) t + mu*p(lam+beta).

    The larger root is computed by the quadratic formula and the smaller one
    from the product of roots, which keeps full precision when alpha is tiny.
    """
    lam, mu, alpha, beta, p = params.lam, params.mu, params.alpha, params.beta, params.p
    mup = mu * p
    s_p = (mup - lam - beta - alpha) ** 2 + 4.0 * alpha * mup
    sqrt_s = math.sqrt(s_p)
    b = lam + beta + mup + alpha
    t1 = (b + sqrt_s) / (2.0 * lam)
    t2 = mup * (lam + beta) / (lam * lam * t1)
    g_constant = None
    if p == 1.0:
        den = lam + beta - mu - alpha + sqrt_s
        g_constant = den / 2.0 + 2.0 * alpha * beta / den
    # the tilt equation requires its right-hand side positive at the root
    q = 2.0 * lam * t2 * t2 - (alpha + beta + mup + 2.0 * lam) * t2 + mup
    return SpectralSolution(s_p=s_p, t1=t1, t2=t2, gamma_p=1.0 / t2,
                            gamma_secondary=1.0 / t1, g_constant=g_constant,
                            t2_valid=q < 0.0)


def feynman_kac(params: ModelParams, theta: float) -> tuple[np.ndarray, float]:
    """Tilted 2x2 phase kernel of the Model 1 free process and its Perron root."""
    if params.model is not Model.MODEL1:
        raise InvalidParameters("the tilted phase kernel needs a Model 1 parameter set")
    matrix = np.zeros((2, 2))
    for (x0, sigma), row in row_classes(params).items():
        if x0 == 1:
            for (x, to), prob in row.targets:
                matrix[sigma, to] += prob * math.exp(theta * (x - x0))
    (a, b), (c, d) = matrix
    half_gap = math.sqrt(((a - d) / 2.0) ** 2 + b * c)
    return matrix, (a + d) / 2.0 + half_gap


def stability(params: ModelParams) -> StabilityReport:
    """Closed-form stability test lam < beta/(alpha+beta) * mu * p."""
    lam, mu, alpha, beta, p = params.lam, params.mu, params.alpha, params.beta, params.p
    effective = beta / (alpha + beta) * mu
    stable = lam < effective * p
    iff = params.model is Model.MODEL1 or p == 1.0
    return StabilityReport(stable=stable, effective_rate=effective, if_and_only_if=iff)
