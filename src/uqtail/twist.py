"""Harmonic functions, by which `kernels._fold` twists (h-transforms) the
class rows, the stationary law of the twisted chain's phase, and the
horizontal drift of the twisted chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import level_blocks
from .params import DOWN, UP, InvalidParameters, Model, ModelParams, _require
from .spectral import SpectralSolution, _require_stable, _stable_roots, characteristic_roots

_DRIFT_AGREEMENT = 1e-10


@dataclass(frozen=True)
class HarmonicFunction:
    """Positive h with (free kernel) h = h, exponential in the queue lengths.

    h(x, U) = base^x for Model 1, h(x, y, U) = base^(x+y) for Model 2;
    Down states carry the extra factor down_weight.
    """
    model: Model
    base: float
    down_weight: float

    def _exponent(self, state: tuple) -> int:
        return state[0] if self.model is Model.MODEL1 else state[0] + state[1]

    def _weight(self, state: tuple) -> float:
        return self.down_weight if state[-1] == DOWN else 1.0

    @np.errstate(over="ignore")   # the gate below names it
    def value(self, state: tuple) -> float:
        """h(state); OverflowError where the power or its product with the Down weight is inf."""
        out = self.base ** self._exponent(state) * self._weight(state)
        _require([(out < math.inf, "h{}{where} overflows: t2 = {!r} to the power {}", state,
                   self.base, self._exponent(state))], OverflowError)
        return out

    def ratio(self, origin: tuple, target: tuple) -> float:
        """h(target) / h(origin) from the change in exponent, so it never
        overflows however far the states lie from the origin."""
        d = self._exponent(target) - self._exponent(origin)
        return self.base ** d * self._weight(target) / self._weight(origin)


@dataclass(frozen=True)
class TwistRates:
    """One-step probabilities of the twisted chain's phase for the tandem model."""
    lam_t: float    # y-birth
    mu_t: float     # y-death
    alpha_t: float  # Up -> Down
    beta_t: float   # Down -> Up
    B: float        # 1 - lam_t / mu_t


@dataclass(frozen=True)
class ProductFormPhi:
    """Stationary law of the tandem twisted chain's phase (y, status)."""
    ratio: float      # lam_t / mu_t
    B: float          # 1 - ratio
    up_share: float   # beta_t / (alpha_t + beta_t)
    down_share: float = field(repr=False)  # alpha_t / (alpha_t + beta_t)

    def __call__(self, y: int, sigma: int) -> float:
        share = self.up_share if sigma == UP else self.down_share
        return self.B * self.ratio ** y * share


@dataclass(frozen=True)
class Drift:
    value: float       # closed form, per uniformized step
    estimate: float    # phi-weighted mean x-increment of the twisted rows
    per_time: float    # value * C


@dataclass(frozen=True)
class TwistSummary:
    """One pass through the h-transform of a parameter set.

    The unreported fields carry what later stages (escape, eta, prefactors)
    read instead of deriving it again: its roots, which carry the set, and its twisted blocks.
    """
    model: Model
    harmonic: HarmonicFunction
    rates: TwistRates | None
    phi: object
    drift: Drift
    roots: SpectralSolution = field(repr=False)
    blocks: tuple = field(repr=False)   # `level_blocks` at y cut 0 (Model 1), 1 (tandem)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")   # the Down weight gate names them
def _harmonic(roots: SpectralSolution) -> HarmonicFunction:
    """h from the roots; ArithmeticError (see `_require`) where the Down weight
    2 beta / den is not finite, as where den underflows (alpha = 5e-324)."""
    down_weight = 2.0 * roots.params.beta / roots.den
    _require([(down_weight < math.inf,   # NaN fails too
               "h's Down weight 2 beta / den{where} is not finite: den = {!r}", roots.den)],
             ArithmeticError)
    return HarmonicFunction(model=roots.params.model, base=roots.t2, down_weight=down_weight)


def harmonic(params: ModelParams) -> HarmonicFunction:
    """Closed-form harmonic function of the free process (needs stability, in
    every set of a stack); RS-RD has no free process and raises InvalidParameters."""
    if params.model is Model.RSRD:
        raise InvalidParameters("the harmonic function is defined for Model 1 and the tandem only")
    return _harmonic(_stable_roots(params, "the harmonic function"))


def twist_summary(params: ModelParams) -> TwistSummary:
    """The h-transform of Model 1 or the tandem (p = 1), of a set or a stack, derived once.

    From one stability check and one `characteristic_roots`: h, the phase
    law phi (with the tandem's twisted rates), the twisted blocks and the
    drift.  The drift's closed form must agree with the phi-weighted mean x
    step A0 1 - A2 1 of the twisted blocks to 1e-10 of the larger of its two
    terms, and be positive for the tail method to apply; else ArithmeticError
    (see `_require`).
    """
    twist, disagree, nonpositive = _twist(params)
    value, estimate = twist.drift.value, twist.drift.estimate
    _require([(np.logical_not(disagree),
               "drift closed form {!r} and aggregate {!r} disagree{where}", value, estimate),
              (np.logical_not(nonpositive), "twisted chain drift{where} is not positive ({!r}); "
               "tail method inapplicable for these parameters", value)], ArithmeticError)
    return twist


@np.errstate(over="ignore", invalid="ignore", divide="ignore")   # the drift gates name them
def _twist(params: ModelParams):
    """`twist_summary` without its raise: the twist, and per set whether the
    drift's closed form and aggregate disagree and whether it is not positive."""
    tandem = params.model is Model.MODEL2 and (params.p == 1.0).all()
    if not (params.model is Model.MODEL1 or tandem):
        raise InvalidParameters("the twist is derived for Model 1 and the tandem (p = 1) only")
    _require_stable(params, "the twist")
    sol = characteristic_roots(params)
    h = _harmonic(sol)
    lam, mu, alpha, beta, C = params.lam, params.mu, params.alpha, params.beta, params.C
    den, g = sol.den, sol.g_constant
    # the phase chain's Up/Down shares, beta_t and alpha_t over their sum
    shares = den / 2.0 / g, 2.0 * alpha * beta / den / g
    # den_minus = b - sqrt(s) = (b^2 - s) / (b + sqrt(s)), b = lam + beta + mu + alpha, with
    # b^2 - s = 4 mu (lam + beta) at p = 1; the difference cancels at light load
    den_minus = 4.0 * mu * (lam + beta) / (lam + beta + mu + alpha + sol.sqrt_s)
    rates, phi = None, np.stack(shares, axis=-1)
    if tandem:
        # B = 1 - lam_t/mu_t, in a form free of cancellation as alpha -> 0
        rates = TwistRates(lam_t=den_minus / (2.0 * C), mu_t=mu / C,
                           alpha_t=2.0 * alpha * beta / (C * den), beta_t=den / (2.0 * C),
                           B=2.0 * alpha / (den + 2.0 * alpha))
        phi = ProductFormPhi(ratio=rates.lam_t / rates.mu_t, B=rates.B,
                             up_share=shares[UP], down_share=shares[DOWN])
    gain, loss = den_minus / 2.0, lam * mu * den / (g * den_minus)
    value = (gain - loss) / C
    blocks = level_blocks(params, 1 if tandem else 0, h=h)
    steps = blocks[0].sum(axis=-1) - blocks[2].sum(axis=-1)   # mean x step by phase
    # rows are identical for all y >= 1, so the tandem's geometric tail of phi,
    # of total mass ratio, is aggregated exactly instead of being truncated
    estimate = sum(shares[sigma] * steps[..., 2 * y + sigma] * factor
                   for y, factor in enumerate((phi.B, phi.ratio) if tandem else (1.0,))
                   for sigma in (UP, DOWN))
    # relative to the larger term the closed form subtracts (probabilities per step, so never
    # looser than _DRIFT_AGREEMENT absolute); both gates are negated, so that NaN fails them
    agree = abs(value - estimate) <= _DRIFT_AGREEMENT * np.maximum(gain, loss) / C
    return TwistSummary(model=params.model, harmonic=h, rates=rates, phi=phi,
                        drift=Drift(value=value, estimate=estimate, per_time=value * C),
                        roots=sol, blocks=blocks), ~agree, ~(value > 0.0)
