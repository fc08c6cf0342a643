"""Harmonic functions, twisted (h-transformed) kernels, the stationary law
of the twisted chain's phase, and the horizontal drift of the twisted chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import TransitionRow, free_kernel, row_classes
from .params import DOWN, UP, InvalidParameters, Model, ModelParams, UnstableParameters
from .spectral import SpectralSolution, characteristic_roots, stability

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

    def value(self, state: tuple) -> float:
        return self.base ** self._exponent(state) * self._weight(state)

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

    def __call__(self, y: int, sigma: int) -> float:
        share = self.up_share if sigma == UP else 1.0 - self.up_share
        return self.B * self.ratio ** y * share

    def table(self, y_max: int = 200) -> np.ndarray:
        """Array of shape (y_max + 1, 2); tail mass above y_max is ratio^(y_max+1)."""
        ys = self.B * self.ratio ** np.arange(y_max + 1)
        return np.column_stack([ys * self.up_share, ys * (1.0 - self.up_share)])

    def tail_mass(self, y_max: int = 200) -> float:
        return self.ratio ** (y_max + 1)


@dataclass(frozen=True)
class Drift:
    value: float       # closed form, per uniformized step
    estimate: float    # phi-weighted mean x-increment of the twisted rows
    per_time: float    # value * C


@dataclass(frozen=True)
class TwistSummary:
    model: Model
    harmonic: HarmonicFunction
    rates: TwistRates | None
    phi: object
    drift: Drift


def _require_stable(params: ModelParams, model: Model) -> SpectralSolution:
    if not stability(params, model).stable:
        raise UnstableParameters("operation requires a stable parameter set")
    return characteristic_roots(params)


def harmonic(params: ModelParams, model: Model) -> HarmonicFunction:
    """Closed-form harmonic function of the free process (needs stability)."""
    sol = _require_stable(params, model)
    lam, mu, alpha, beta, p = params.lam, params.mu, params.alpha, params.beta, params.p
    sqrt_s = math.sqrt(sol.s_p)
    down_weight = 2.0 * beta / (lam + beta - mu * p - alpha + sqrt_s)
    return HarmonicFunction(model=model, base=sol.t2, down_weight=down_weight)


def twist_row(row: TransitionRow, h: HarmonicFunction) -> TransitionRow:
    """Free-kernel row reweighted by h(target)/h(origin)."""
    return TransitionRow(row.origin, tuple((target, prob * h.ratio(row.origin, target))
                                           for target, prob in row.targets))


def twisted_kernel(params: ModelParams, model: Model, state: tuple) -> TransitionRow:
    """Twisted row of the free chain at `state` (`twist_row` of its free row)."""
    return twist_row(free_kernel(params, model, state), harmonic(params, model))


def markov_part_stationary(params: ModelParams, model: Model):
    """Stationary law of the twisted chain's phase.

    Model 1: length-2 array over (Up, Down).  Model 2 (tandem only): the
    product-form law over (y, status).
    """
    sol = _require_stable(params, model)
    if model is Model.MODEL1:
        lam, mu, alpha, beta = params.lam, params.mu, params.alpha, params.beta
        den = lam + beta - mu - alpha + math.sqrt(sol.s_p)
        g = sol.g_constant
        return np.array([den / 2.0 / g, 2.0 * alpha * beta / den / g])
    rates = model2_twist_rates(params)
    return ProductFormPhi(ratio=rates.lam_t / rates.mu_t, B=rates.B,
                          up_share=rates.beta_t / (rates.alpha_t + rates.beta_t))


def model2_twist_rates(params: ModelParams) -> TwistRates:
    """Twisted phase-chain probabilities for the tandem (p = 1) model."""
    if params.p != 1.0:
        raise InvalidParameters("twisted rates are defined for the tandem (p = 1) only")
    sol = _require_stable(params, Model.MODEL2)
    lam, mu, alpha, beta, C = params.lam, params.mu, params.alpha, params.beta, params.C
    sqrt_s = math.sqrt(sol.s_p)
    den = lam + beta - mu - alpha + sqrt_s
    lam_t = (lam + beta + mu + alpha - sqrt_s) / (2.0 * C)
    mu_t = mu / C
    alpha_t = 2.0 * alpha * beta / (C * den)
    beta_t = den / (2.0 * C)
    return TwistRates(lam_t=lam_t, mu_t=mu_t, alpha_t=alpha_t, beta_t=beta_t,
                      B=1.0 - lam_t / mu_t)


def horizontal_drift(params: ModelParams, model: Model) -> Drift:
    """Mean x-increment per step of the twisted chain under its phase law.

    Returns the closed form together with an independently aggregated
    estimate (phi-weighted mean increment of twisted rows); the two must
    agree to 1e-10, and the drift must be positive for the tail method to
    apply.
    """
    sol = _require_stable(params, model)
    lam, mu, alpha, beta, C = params.lam, params.mu, params.alpha, params.beta, params.C
    sqrt_s = math.sqrt(sol.s_p)
    den_minus = lam + beta + mu + alpha - sqrt_s
    den_plus = lam + beta - mu - alpha + sqrt_s
    if model is Model.MODEL1:
        value = (den_minus / 2.0 - lam * mu * den_plus / (sol.g_constant * den_minus)) / C
        phi = markov_part_stationary(params, Model.MODEL1)
        weights = {(UP,): phi[UP], (DOWN,): phi[DOWN]}
    else:
        if model is not Model.MODEL2 or params.p != 1.0:
            raise InvalidParameters("drift is defined for the tandem (p = 1) only")
        value = (den_minus / 2.0
                 - 2.0 * lam * mu * den_plus ** 2
                 / (den_minus * (4.0 * alpha * beta + den_plus ** 2))) / C
        phi = markov_part_stationary(params, Model.MODEL2)
        # rows are identical for all y >= 1, so the geometric tail of phi is
        # aggregated exactly instead of being truncated
        weights = {(0, UP): phi(0, UP), (0, DOWN): phi(0, DOWN),
                   (1, UP): phi.up_share * phi.ratio * phi.B / (1.0 - phi.ratio),
                   (1, DOWN): (1.0 - phi.up_share) * phi.ratio * phi.B / (1.0 - phi.ratio)}
    # weighted mean x-increments of the twisted x0 = 1 class rows
    h = harmonic(params, model)
    estimate = sum(weights[origin[1:]] * twist_row(row, h).mean_x_increment()
                   for origin, row in row_classes(params, model).items() if origin[0] == 1)
    if abs(value - estimate) > _DRIFT_AGREEMENT * max(1.0, abs(value)):
        raise ArithmeticError(
            f"drift closed form {value!r} and aggregate {estimate!r} disagree")
    if value <= 0.0:
        raise ArithmeticError(f"twisted chain drift is not positive ({value!r}); "
                              "tail method inapplicable for these parameters")
    return Drift(value=value, estimate=estimate, per_time=value * C)


def twist_summary(params: ModelParams, model: Model) -> TwistSummary:
    rates = model2_twist_rates(params) if (model is Model.MODEL2 and params.p == 1.0) else None
    return TwistSummary(model=model,
                        harmonic=harmonic(params, model),
                        rates=rates,
                        phi=markov_part_stationary(params, model),
                        drift=horizontal_drift(params, model))
