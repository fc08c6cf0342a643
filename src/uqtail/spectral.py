"""Exponential-tilt spectrum of the free process.

The tilted phase kernel, its Perron eigenvalue, the quadratic characteristic
equation selecting the geometric decay rates, and the closed-form stability
test.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .kernels import level_blocks
from .params import (InvalidParameters, Model, ModelParams, UnstableParameters, elementwise,
                     first_failing, holds, select)


@dataclass(frozen=True)
class SpectralSolution:
    s_p: float
    t1: float
    t2: float
    gamma_p: float          # 1 / t2, the dominant decay rate under stability
    gamma_secondary: float  # 1 / t1, the subdominant rate
    g_constant: float | None  # defined for p = 1 only
    t2_valid: bool
    # shared by every later stage, which never recomputes them; not reported
    sqrt_s: float = field(repr=False)
    den: float = field(repr=False)  # lam + beta - mu*p - alpha + sqrt(s_p)


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    effective_rate: float     # beta/(alpha+beta) * mu; mu for RS-RD
    if_and_only_if: bool      # False only for the tandem with p < 1


def characteristic_roots(params: ModelParams) -> SpectralSolution:
    """Roots of lam^2 t^2 - lam(mu*p+lam+alpha+beta) t + mu*p(lam+beta).

    The larger root is computed by the quadratic formula and the smaller one
    from the product of roots, which keeps full precision when alpha is tiny.
    On a stack, g_constant needs p = 1 in every set.  RS-RD's product form
    decays at lambda/(mu p) instead, and raises InvalidParameters.  A t2 that
    is 0 or not finite raises ArithmeticError, naming t1 where t1 overflowed.
    """
    if params.model is Model.RSRD:
        raise InvalidParameters("the characteristic roots are defined for Model 1 "
                                "and the tandem only")
    lam, mu, alpha, beta, p = params.lam, params.mu, params.alpha, params.beta, params.p
    mup = mu * p
    s_p = (mup - lam - beta - alpha) ** 2 + 4.0 * alpha * mup
    sqrt_s = elementwise(math.sqrt, s_p)
    b = lam + beta + mup + alpha
    t1 = (b + sqrt_s) / (2.0 * lam)
    # lam^2 loses bits below the smallest normal float (lam < 1.5e-154) and is 0
    # below lam = 1.5e-162; there lam (lam t1), near lam (b + sqrt_s) / 2, keeps them
    lam2 = lam * lam
    t2 = mup * (lam + beta) / select(lam2 >= sys.float_info.min, lam2 * t1, lam * (lam * t1))
    # an extreme load underflows t2 to 0, where 1 / t2 would divide by 0; so does
    # lam = 5e-324, whose t1 overflows.  mu p (lam + beta) can overflow instead
    # (mu = beta = 1e300), where 1 / t2 would read gamma_1 = 0
    if not holds((t2 != 0.0) & (t2 < math.inf)):   # NaN fails too
        index, where = first_failing(np.logical_not((t2 != 0.0) & (t2 < math.inf)))
        at = f"at lambda = {np.asarray(lam)[index].item()!r}"
        if np.asarray(t2)[index] != 0.0:
            raise ArithmeticError(f"the smaller root t2{where} is not finite {at}")
        if math.isinf(np.asarray(t1)[index]):
            raise ArithmeticError(f"the larger root t1{where} overflows {at}, so the smaller "
                                  "root t2 underflows to 0")
        raise ArithmeticError(f"the smaller root t2{where} underflows to 0 {at}")
    # den = sqrt(s) - c = (s - c^2) / (sqrt(s) + c) = 4 alpha (lam + beta) / (sqrt(s) + c);
    # the difference cancels catastrophically when c > 0 and alpha is small
    c = mup - lam - beta + alpha
    # both branches are evaluated: |c| keeps the unused one's divisor from 0 at c < 0
    den = select(c > 0.0, 4.0 * alpha * (lam + beta) / (sqrt_s + abs(c)),
                 lam + beta - mup - alpha + sqrt_s)
    g_constant = den / 2.0 + 2.0 * alpha * beta / den if holds(p == 1.0) else None
    # the tilt equation requires its right-hand side positive at the root
    q = 2.0 * lam * t2 * t2 - (alpha + beta + mup + 2.0 * lam) * t2 + mup
    return SpectralSolution(s_p=s_p, t1=t1, t2=t2, gamma_p=1.0 / t2,
                            gamma_secondary=1.0 / t1, g_constant=g_constant,
                            t2_valid=q < 0.0, sqrt_s=sqrt_s, den=den)


def feynman_kac(params: ModelParams, theta: float) -> tuple[np.ndarray, float]:
    """Tilted 2x2 phase kernel A2 e^-theta + A1 + A0 e^theta of the Model 1
    free process, from its level blocks at x0 = 1, and its Perron root; on a
    stack, theta holds one value per set, and the kernels have shape (..., 2, 2)."""
    if params.model is not Model.MODEL1:
        raise InvalidParameters("the tilted phase kernel needs a Model 1 parameter set")
    up, local, down = level_blocks(params)
    e_down, e_up = (np.asarray(elementwise(math.exp, t))[..., None, None] for t in (-theta, theta))
    matrix = down * e_down + local + up * e_up
    a, b, c, d = (matrix[..., i, j] for i in (0, 1) for j in (0, 1))
    half_gap = elementwise(math.sqrt, ((a - d) / 2.0) ** 2 + b * c)
    return matrix, (a + d) / 2.0 + half_gap


def stability(params: ModelParams) -> StabilityReport:
    """Closed-form stability test lam < effective_rate * p.

    The effective rate is beta/(alpha+beta) * mu for Model 1 and the tandem.
    For RS-RD it is mu: the network's product form is invariant, and it is
    summable exactly when lam < mu * p.
    """
    lam, mu, alpha, beta, p = params.lam, params.mu, params.alpha, params.beta, params.p
    effective = mu if params.model is Model.RSRD else beta / (alpha + beta) * mu
    iff = params.model is not Model.MODEL2 or p == 1.0
    return StabilityReport(stable=lam < effective * p, effective_rate=effective,
                           if_and_only_if=iff)


def _require_stable(params: ModelParams, stage: str) -> None:
    """UnstableParameters naming `stage` and the first unstable set, unless all are stable."""
    stable = stability(params).stable
    if not holds(stable):
        index, where = first_failing(np.logical_not(stable))
        bound = "mu p" if params.model is Model.RSRD else "beta/(alpha+beta) mu p"
        raise UnstableParameters(f"{stage} requires a stable parameter set, lambda < {bound}; "
                                 f"got lambda = {np.asarray(params.lam)[index].item()!r}{where}")
