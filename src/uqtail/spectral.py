"""Exponential-tilt spectrum of the free process.

The tilted phase kernel, its Perron eigenvalue, the quadratic characteristic
equation selecting the geometric decay rates, and the closed-form stability
test.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .kernels import level_blocks
from .params import (InvalidParameters, Model, ModelParams, UnstableParameters, _require,
                     elementwise)


@dataclass(frozen=True)
class SpectralSolution:
    s_p: float
    t1: float
    t2: float
    gamma_p: float          # 1 / t2, the dominant decay rate under stability
    gamma_secondary: float  # 1 / t1, the subdominant rate
    g_constant: float | None  # defined for p = 1 only
    # shared by every later stage, which never recomputes them; not reported
    sqrt_s: float = field(repr=False)
    den: float = field(repr=False)  # lam + beta - mu*p - alpha + sqrt(s_p)
    params: ModelParams = field(repr=False, compare=False)   # the set these roots solve

    @cached_property   # t2 - 1 from the margin, formed on the first read only
    def t2_minus_1(self):
        return _t2_minus_1(self.params, self.sqrt_s)


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    effective_rate: float     # beta/(alpha+beta) * mu; mu for RS-RD
    if_and_only_if: bool      # False only for the tandem with p < 1


@np.errstate(over="ignore", invalid="ignore", divide="ignore")   # the t2 gate names them
def characteristic_roots(params: ModelParams) -> SpectralSolution:
    """Roots of lam^2 t^2 - lam(mu*p+lam+alpha+beta) t + mu*p(lam+beta).

    The larger root is computed by the quadratic formula and the smaller one
    from the product of roots, which keeps full precision when alpha is tiny;
    its readers take t2 - 1 from the margin, the cached `t2_minus_1`, not from t2.
    On a stack, g_constant needs p = 1 in every set.  RS-RD's product form
    decays at lambda/(mu p) instead, and raises InvalidParameters.  A t2 that
    is 0 or not finite raises ArithmeticError, naming t1 where t1 overflowed.
    """
    if params.model is Model.RSRD:
        raise InvalidParameters("the characteristic roots are defined for Model 1 "
                                "and the tandem only")
    lam, mu, alpha, beta, p = params.lam, params.mu, params.alpha, params.beta, params.p
    mup = mu * p
    gap = mup - lam - beta - alpha
    s_p = gap * gap + 4.0 * alpha * mup
    sqrt_s = np.sqrt(s_p)
    b = lam + beta + mup + alpha
    t1 = (b + sqrt_s) / (2.0 * lam)
    # lam^2 loses bits below the smallest normal float (lam < 1.5e-154) and is 0
    # below lam = 1.5e-162; there lam (lam t1), near lam (b + sqrt_s) / 2, keeps them
    lam2 = lam * lam
    t2 = mup * (lam + beta) / np.where(lam2 >= sys.float_info.min, lam2 * t1, lam * (lam * t1))
    # an extreme load underflows t2 to 0, where 1 / t2 would divide by 0; so does
    # lam = 5e-324, whose t1 overflows.  mu p (lam + beta) can overflow instead
    # (mu = beta = 1e300), where 1 / t2 would read gamma_1 = 0.  An inf t1 makes t2
    # 0 or NaN, so its row, read after the one a NaN fails, fails only where t2 is 0
    _require([(t2 < math.inf, "the smaller root t2{where} is not finite at lambda = {!r}", lam),
              (t1 != math.inf, "the larger root t1{where} overflows at lambda = {!r}, so the "
               "smaller root t2 underflows to 0", lam),
              (t2 != 0.0, "the smaller root t2{where} underflows to 0 at lambda = {!r}", lam)],
             ArithmeticError)
    # den = sqrt(s) - c = (s - c^2) / (sqrt(s) + c) = 4 alpha (lam + beta) / (sqrt(s) + c);
    # the difference cancels catastrophically when c > 0 and alpha is small
    c = mup - lam - beta + alpha
    # both branches are evaluated: |c| keeps the unused one's divisor from 0 at c < 0
    den = np.where(c > 0.0, 4.0 * alpha * (lam + beta) / (sqrt_s + abs(c)),
                   lam + beta - mup - alpha + sqrt_s)[()]   # a set's as a scalar
    g_constant = den / 2.0 + 2.0 * alpha * beta / den if (p == 1.0).all() else None
    return SpectralSolution(s_p=s_p, t1=t1, t2=t2, gamma_p=1.0 / t2,
                            gamma_secondary=1.0 / t1, g_constant=g_constant,
                            sqrt_s=sqrt_s, den=den, params=params)


def _t2_minus_1(params: ModelParams, sqrt_s):
    """t2 - 1 = 2 q(1) / (lam (D + sqrt(s_p))), D = (mu p - lam) + alpha + beta > 0 under
    stability.  The one subtraction, q(1) = mu p beta - lam (alpha + beta), is rounded once:
    SumK, K = 3 (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 2005), of exact products
    (Dekker, Numer. Math. 18, 1971) of factors scaled by powers of 2 to near 1."""
    lam, alpha, beta, mup = params.lam, params.alpha, params.beta, params.mu * params.p
    (mu_m, beta_m, lam_m, d_m), (e_mu, e_beta, e_lam, e_d) = np.frexp(
        np.array([mup, beta, lam, mup - lam + alpha + beta + sqrt_s]))
    shift = e_mu + e_beta - e_lam   # lam alpha and lam beta scale as mu p beta
    a = np.array([mu_m, lam_m, lam_m])
    b = np.array([beta_m, *-np.ldexp(np.array([alpha, beta]), -shift)])
    (a1, a2), (b1, b2) = ((s - (s - x), x - (s - (s - x))) for x in (a, b)
                          for s in (134217729.0 * x,))   # Veltkamp's halves, at 2^27 + 1
    product = a * b
    terms = [*product, *(((a1 * b1 - product) + a1 * b2 + a2 * b1) + a2 * b2)]   # exact
    for i in [1, 2, 3, 4, 5] * 2:   # two passes, each carrying the sum to the last term
        total = terms[i - 1] + terms[i]   # Knuth's two-sum
        back = total - terms[i - 1]
        terms[i - 1], terms[i] = (terms[i - 1] - (total - back)) + (terms[i] - back), total
    return np.ldexp(2.0 * (sum(terms[:-1]) + terms[-1]) / (lam_m * d_m), shift - e_d)


def feynman_kac(params: ModelParams, theta: float) -> tuple[np.ndarray, float]:
    """Tilted 2x2 phase kernel A2 e^-theta + A1 + A0 e^theta of the Model 1
    free process, from its level blocks at x0 = 1, and its Perron root; on a
    stack, theta holds one value per set, and the kernels have shape (..., 2, 2)."""
    if params.model is not Model.MODEL1:
        raise InvalidParameters("the tilted phase kernel needs a Model 1 parameter set")
    up, local, down = level_blocks(params)
    e_down, e_up = (elementwise(math.exp, t)[..., None, None] for t in (-theta, theta))
    matrix = down * e_down + local + up * e_up
    a, b, c, d = (matrix[..., i, j] for i in (0, 1) for j in (0, 1))
    half_gap = np.sqrt(((a - d) / 2.0) ** 2 + b * c)
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


def _require_stable(params: ModelParams, stage: str) -> StabilityReport:
    """The set's `stability`; UnstableParameters naming `stage` unless every set is stable."""
    report = stability(params)
    bound = "mu p" if params.model is Model.RSRD else "beta/(alpha+beta) mu p"
    _require([(report.stable, "{} requires a stable parameter set, lambda < {}; "
               "got lambda = {!r}{where}", stage, bound, params.lam)], UnstableParameters)
    return report
