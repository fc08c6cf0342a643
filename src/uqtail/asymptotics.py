"""Tail asymptotics assembly: escape probabilities of the twisted chain, the
boundary constant eta, the closed-form prefactors, the two-term expansion,
small-breakdown limits, the matched-M/M/1 comparison, empirical tail fits,
and the product-form reference distribution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .params import (DOWN, UP, InvalidParameters, Model, ModelParams,
                     make_params)
from .kernels import row_classes
from .qbd import (StationaryTable, _lattice_matrix, _lattice_shape, boundary_vector,
                  first_passage, level_blocks, truncated_stationary)
from .spectral import characteristic_roots
from .twist import harmonic, horizontal_drift, markov_part_stationary, twist_row

_ESCAPE_RESIDUAL = 1e-12


@dataclass(frozen=True)
class EscapeProbs:
    up: float
    down: float
    x_max_used: int  # always 0: no lattice is cut
    residual: float  # max |A2 + A1 G + A0 G^2 - G| of the closed-form G


@dataclass(frozen=True)
class EtaEstimate:
    value: float
    # a truncation bound for Model 2; the name stays because perfbench/spans.py reads it
    std_error: float
    method: str  # "exact" (Model 1) or "qbd" (Model 2)


@dataclass(frozen=True)
class TailAsymptotic:
    model: Model
    gamma: float
    prefactor_up: float | None
    prefactor_down: float | None
    eta: float | None
    escape_up: float | None
    escape_down: float | None
    secondary_gamma: float | None
    secondary_weight: float | None
    y_ratio: float | None  # per-unit-of-y geometric factor (tandem model)
    provenance: str


@dataclass(frozen=True)
class TwoTermFit:
    w2: float
    w3: float
    k_window: tuple[int, int]
    max_relative_residual: float
    geometric_ok: bool


@dataclass(frozen=True)
class TailFit:
    gamma_est: float
    log_prefactor_est: float
    k_window: tuple[int, int]
    max_relative_deviation: float


@dataclass(frozen=True)
class TwoGeometricFit:
    rates: tuple[float, float]
    weights: tuple[float, float]
    dominant_rate: float  # rate of the larger-weight term
    k_window: tuple[int, int]


@dataclass(frozen=True)
class Mm1Comparison:
    gamma_1: float
    mm1_ratio: float
    dominance: bool  # gamma_1 >= mm1_ratio, always true under stability
    lambda0: float
    mu0: float

    def pi0(self, level: int) -> float:
        rho = self.lambda0 / self.mu0
        return (1.0 - rho) * rho ** level


@dataclass(frozen=True)
class AlphaLimits:
    case: str  # "service_below_lam_beta" or "service_above_lam_beta"
    limit_gamma: float
    limit_g: float | None
    limit_drift_per_time: float | None  # limit of C * drift
    limit_prefactor_up: float | None    # None when eta-dependent or unknown
    limit_prefactor_down: float
    limit_b: float | None               # tandem model only
    alpha_eval: float
    gamma_at_eval: float
    g_at_eval: float | None
    drift_per_time_at_eval: float | None
    b_at_eval: float | None
    gamma_gap: float
    prefactor_up_at_eval: float | None
    prefactor_up_limit_gap: float | None


def _twisted_blocks(params: ModelParams,
                    y_cut: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(up, local, down) blocks of the twisted free chain with x as the level,
    from the twisted x0 = 1 class rows; phases and the y cut as in
    `qbd.level_blocks`.
    """
    h = harmonic(params)
    rows = row_classes(params).items()
    return level_blocks([twist_row(row, h) for origin, row in rows if origin[0] == 1], y_cut)


def _escape_first_passage(params: ModelParams, y_cut: int = 0) -> np.ndarray:
    """Escape probabilities from level 0 for every phase of `_twisted_blocks`.

    The free chain leaves level 0 upwards by the same up block A0 as any
    level, so escape = A0 (1 - G 1) with G from `qbd.first_passage`.  For
    Model 1 this is the numeric reference for `escape_probabilities`.
    """
    a0, a1, a2 = _twisted_blocks(params, y_cut)
    return a0 @ (1.0 - first_passage(a0, a1, a2).sum(axis=1))


def escape_probabilities(params: ModelParams) -> EscapeProbs:
    """P(twisted chain started at (0, sigma) never revisits level 0).

    The free chain moves down a level only by a service in Up, so under
    stability its first-passage matrix is G(sigma, U) = 1, G(sigma, D) = 0.
    The twist rescales it to G~(sigma, U) = h(0, U) / h(1, sigma), hence
    escape(sigma) = (lambda/C) (h(1, sigma) - 1) / h(0, sigma).  G~ is checked
    against G = A2 + A1 G + A0 G^2 and must be strictly substochastic.
    """
    if params.model is not Model.MODEL1:
        raise InvalidParameters("the closed-form escape needs a Model 1 parameter set")
    h = harmonic(params)
    t2, w = h.base, h.down_weight
    g = np.array([[1.0 / t2, 0.0], [1.0 / (t2 * w), 0.0]])
    a0, a1, a2 = _twisted_blocks(params)
    residual = float(np.max(np.abs(a2 + a1 @ g + a0 @ g @ g - g)))
    if not (residual <= _ESCAPE_RESIDUAL and np.all(g.sum(axis=1) < 1.0)):
        raise ArithmeticError(
            f"closed-form first-passage matrix fails: residual {residual:.3g} "
            f"(bound {_ESCAPE_RESIDUAL:g}), row sums {g.sum(axis=1)} (must be < 1)")
    scale = params.lam / params.C
    return EscapeProbs(up=scale * (t2 - 1.0), down=scale * (t2 - 1.0 / w),
                       x_max_used=0, residual=residual)


def eta(params: ModelParams, *, table: StationaryTable | None = None) -> EtaEstimate:
    """Boundary constant: sum over the boundary of pi * h * escape probability.

    Model 1 has a two-state boundary, so the value is exact.  The tandem
    boundary is infinite: pi comes from the truncated oracle, and the escape
    probabilities from the first-passage matrix of the twisted free chain
    with y cut at twice the table's y_max.
    """
    if params.model is Model.MODEL1:
        return _eta_model1(params, escape_probabilities(params))
    return _eta_model2(params, table)


def _eta_model1(params: ModelParams, esc: EscapeProbs) -> EtaEstimate:
    pi0 = boundary_vector(params)
    h = harmonic(params)
    value = pi0[UP] * esc.up + pi0[DOWN] * h.value((0, DOWN)) * esc.down
    return EtaEstimate(value=float(value), std_error=0.0, method="exact")


def _eta_model2(params: ModelParams, table: StationaryTable | None) -> EtaEstimate:
    if params.model is not Model.MODEL2 or params.p != 1.0:
        raise InvalidParameters("the boundary constant is computed for the tandem (p = 1) only")
    sol = characteristic_roots(params)
    if not params.lam / (params.mu * params.p) < sol.gamma_p:
        raise ArithmeticError("boundary sum not summable: lambda/(mu p) >= gamma_p")
    if table is None:
        table = truncated_stationary(params, x_max=60, y_max=60)
    h = harmonic(params)
    y_max = table.y_max
    # weights[2y + sigma] = pi(0, y, sigma) h(0, y, sigma), in `_twisted_blocks` order
    weights = np.array([table.prob((0, y, sigma)) * h.value((0, y, sigma))
                        for y in range(y_max + 1) for sigma in (UP, DOWN)])
    # geometric-tail gate on the last min(10, y_max + 1) levels of the weights
    levels = weights.reshape(-1, 2).sum(axis=1)
    ys = [y for y in range(max(1, y_max - 8), y_max + 1) if levels[y - 1] > 0]
    ratios = [float(levels[y] / levels[y - 1]) for y in ys]
    if not ratios or max(ratios) >= 1.0:
        raise ArithmeticError(
            f"boundary sum tail is not decreasing geometrically: ratios "
            f"{[round(r, 4) for r in ratios]} at y = {ys}, first >= 1 at y = "
            f"{next((y for y, r in zip(ys, ratios) if r >= 1.0), None)}; "
            "enlarge the truncated table")
    rho = max(ratios)
    remainder = levels[-1] * rho / (1.0 - rho)  # escape probability bounded by 1
    value, coarse = (
        float(weights @ _escape_first_passage(params, cut)[:weights.size])
        for cut in (2 * y_max, y_max))
    return EtaEstimate(value=value, std_error=abs(value - coarse) + float(remainder),
                       method="qbd")


def prefactors(params: ModelParams, model: Model | None = None, *,
               table: StationaryTable | None = None,
               seed: int = 0) -> TailAsymptotic:
    """Closed-form tail constants of the dominant geometric term.

    `model` and `seed` may be omitted; perfbench/run.py passes both.  A given
    `model` must be params.model; `seed` is unused, as nothing here is random.
    """
    if model not in (None, params.model):
        raise InvalidParameters(f"model {model} does not match the parameters' {params.model}")
    sol = characteristic_roots(params)
    lam, mu, alpha, beta = params.lam, params.mu, params.alpha, params.beta
    if params.model is Model.MODEL2 and params.p != 1.0:
        return TailAsymptotic(model=params.model, gamma=sol.gamma_p, prefactor_up=None,
                              prefactor_down=None, eta=None, escape_up=None,
                              escape_down=None, secondary_gamma=sol.gamma_secondary,
                              secondary_weight=None, y_ratio=None,
                              provenance="shape-only")
    drift = horizontal_drift(params)
    sqrt_s = math.sqrt(sol.s_p)
    den = lam + beta - mu - alpha + sqrt_s
    g = sol.g_constant
    if params.model is Model.MODEL1:
        esc = escape_probabilities(params)
        est = _eta_model1(params, esc)
        scale = est.value / drift.value
        return TailAsymptotic(model=params.model, gamma=sol.gamma_p,
                              prefactor_up=scale * den / 2.0 / g,
                              prefactor_down=scale * alpha / g,
                              eta=est.value, escape_up=esc.up, escape_down=esc.down,
                              secondary_gamma=sol.gamma_secondary,
                              secondary_weight=None, y_ratio=None,
                              provenance="closed-form")
    est = eta(params, table=table)
    b = 1.0 - (lam + beta + mu + alpha - sqrt_s) / (2.0 * mu)
    scale = est.value / drift.value * b
    return TailAsymptotic(model=params.model, gamma=sol.gamma_p,
                          prefactor_up=scale * den / 2.0 / g,
                          prefactor_down=scale * alpha / g,
                          eta=est.value, escape_up=None, escape_down=None,
                          secondary_gamma=sol.gamma_secondary,
                          secondary_weight=None, y_ratio=lam / mu,
                          provenance="closed-form+qbd")


def two_term_tail(params: ModelParams, table: StationaryTable,
                  k_lo: int = 1, k_hi: int | None = None) -> TwoTermFit:
    """Two-term geometric expansion pi(k, Up) ~ w2 gamma_1^k + w3 gamma^k.

    w2 is the closed-form dominant prefactor; w3 has no closed form and is
    fitted by least squares on the residuals at small k.
    """
    asym = prefactors(params)
    gamma1, gamma = asym.gamma, asym.secondary_gamma
    w2 = asym.prefactor_up
    if k_hi is None:
        k_hi = min(40, table.x_max)
    ks = np.arange(k_lo, k_hi + 1)
    pi_up = np.array([table.prob((int(k), UP)) for k in ks])
    resid = pi_up - w2 * gamma1 ** ks
    weights = gamma ** ks
    w3 = float(np.dot(resid, weights) / np.dot(weights, weights))
    # diagnostics restricted to k where the second term is resolvable
    resolvable = np.abs(w3) * weights > 1e-10 * w2 * gamma1 ** ks
    if resolvable.any():
        pred = w2 * gamma1 ** ks + w3 * weights
        max_rel = float(np.max(np.abs((pi_up - pred) / pi_up)[resolvable]))
        r = resid[resolvable]
        ratios = r[1:] / r[:-1] if len(r) > 2 and np.all(r != 0) else np.array([])
        geometric_ok = bool(len(ratios) == 0
                            or abs(np.median(ratios) - gamma) <= 0.2 * gamma)
    else:
        max_rel = float("nan")
        geometric_ok = False
    return TwoTermFit(w2=w2, w3=w3, k_window=(k_lo, k_hi),
                      max_relative_residual=max_rel, geometric_ok=geometric_ok)


def alpha_limits(lam: float, mu: float, beta: float, p: float = 1.0,
                 model: Model = Model.MODEL1, alpha_eval: float = 1e-6,
                 evaluate_prefactor: bool = False) -> AlphaLimits:
    """Vanishing-breakdown-rate limits, with numeric evaluation at alpha_eval."""
    split = mu * p - (lam + beta)
    if split == 0.0:
        raise InvalidParameters("degenerate case mu*p = lambda+beta; limit split undefined")
    below = split < 0.0
    limit_gamma = lam / (mu * p) if below else lam / (lam + beta)
    limit_g = limit_drift = limit_c_up = None
    limit_b = None
    if p == 1.0:
        if below:
            limit_g = lam + beta - mu
            limit_drift = mu - lam
        else:
            limit_g = beta * (mu - lam - beta) / (lam + beta)
            limit_drift = lam + beta
        limit_c_up = None if below else 0.0  # below: eta-dependent, checked numerically
        if model is Model.MODEL2:
            limit_b = 0.0 if below else (mu - lam - beta) / mu
    pe = make_params(lam, mu, alpha_eval, beta, p=p, model=model)
    sol = characteristic_roots(pe)
    g_at = sol.g_constant
    drift_at = b_at = None
    if p == 1.0:
        drift_at = horizontal_drift(pe).per_time
        if model is Model.MODEL2:
            b_at = 1.0 - (lam + beta + mu + alpha_eval - math.sqrt(sol.s_p)) / (2.0 * mu)
    c_up_at = c_up_gap = None
    if evaluate_prefactor and model is Model.MODEL1:
        asym = prefactors(pe)
        c_up_at = asym.prefactor_up
        if below:
            target = asym.eta * pe.C / (mu - lam)
            c_up_gap = abs(c_up_at - target) / target
        else:
            c_up_gap = abs(c_up_at)  # the limit is 0; report the raw magnitude
    return AlphaLimits(
        case="service_below_lam_beta" if below else "service_above_lam_beta",
        limit_gamma=limit_gamma, limit_g=limit_g, limit_drift_per_time=limit_drift,
        limit_prefactor_up=limit_c_up, limit_prefactor_down=0.0, limit_b=limit_b,
        alpha_eval=alpha_eval, gamma_at_eval=sol.gamma_p, g_at_eval=g_at,
        drift_per_time_at_eval=drift_at, b_at_eval=b_at,
        gamma_gap=abs(sol.gamma_p - limit_gamma) / limit_gamma,
        prefactor_up_at_eval=c_up_at, prefactor_up_limit_gap=c_up_gap)


def mm1_comparison(params: ModelParams) -> Mm1Comparison:
    """Match a plain M/M/1 queue with the same effective rates, service
    beta/(alpha+beta) mu p, and compare tails."""
    lam, mu, alpha, beta, p = params.lam, params.mu, params.alpha, params.beta, params.p
    sol = characteristic_roots(params)
    mm1_ratio = (alpha + beta) / beta * lam / (mu * p)
    return Mm1Comparison(gamma_1=sol.gamma_p, mm1_ratio=mm1_ratio,
                         dominance=sol.gamma_p >= mm1_ratio,
                         lambda0=lam, mu0=beta / (alpha + beta) * mu * p)


def tail_fit(table: StationaryTable, sigma: int, k_min: int, k_max: int,
             y: int | None = None) -> TailFit:
    """Log-linear least squares of pi over a window of levels."""
    ks, logs = [], []
    for k in range(k_min, k_max + 1):
        state = (k, sigma) if table.y_max is None else (k, y if y is not None else 0, sigma)
        value = table.prob(state)
        if value > 1e-300:
            ks.append(k)
            logs.append(math.log(value))
    if len(ks) < 5:
        raise ValueError(f"fit window holds {len(ks)} usable points; need at least 5")
    slope, intercept = np.polyfit(ks, logs, 1)
    deviation = float(np.max(np.abs(1.0 - np.exp(slope * np.array(ks) + intercept - np.array(logs)))))
    return TailFit(gamma_est=float(math.exp(slope)), log_prefactor_est=float(intercept),
                   k_window=(k_min, k_max), max_relative_deviation=deviation)


def two_geometric_fit(table: StationaryTable, sigma: int, k_min: int,
                      k_max: int) -> TwoGeometricFit:
    """Model-free fit of pi(k, sigma) = w a^k + v b^k on a window of levels.

    A sum of two geometrics satisfies a linear two-step recurrence; its
    coefficients are fitted by least squares (rows scaled to equalize the
    widely varying magnitudes) and the rates recovered as the roots.
    """
    ks = np.arange(k_min, k_max + 1)
    pi = np.array([table.prob((int(k), sigma)) for k in ks])
    if np.any(pi <= 0.0) or len(ks) < 6:
        raise ValueError("fit window needs at least 6 strictly positive entries")
    rows = np.column_stack([pi[1:-1], pi[:-2]])
    rhs = pi[2:]
    scale = 1.0 / rhs
    c1, c2 = np.linalg.lstsq(rows * scale[:, None], rhs * scale, rcond=None)[0]
    roots = np.roots([1.0, -c1, -c2])
    if np.iscomplexobj(roots) and np.max(np.abs(roots.imag)) > 1e-12 * np.max(np.abs(roots)):
        raise ArithmeticError("recurrence roots are not real; window is not two-geometric")
    roots = np.real(roots)
    basis = np.column_stack([roots[0] ** ks, roots[1] ** ks])
    weights = np.linalg.lstsq(basis / pi[:, None], np.ones_like(pi), rcond=None)[0]
    dominant = float(roots[int(np.argmax(np.abs(weights)))])
    return TwoGeometricFit(rates=(float(roots[0]), float(roots[1])),
                           weights=(float(weights[0]), float(weights[1])),
                           dominant_rate=dominant, k_window=(k_min, k_max))


def rs_rd_stationary(params: ModelParams, x_max: int, y_max: int) -> StationaryTable:
    """Closed-form product stationary law of the rerouting comparison network.

    The residual is the global balance of the closed form against the
    actual kernel, pi P - pi on the window, with P the (x_max + 2) x
    (y_max + 2) lattice of `_lattice_matrix` so that inflow sources one step
    outside the window are evaluated in closed form too.  Raises
    InvalidParameters unless x_max >= 1 and y_max >= 1.
    """
    if params.model is not Model.RSRD:
        raise InvalidParameters("the product form needs an RS-RD parameter set")
    lam, mu, alpha, beta, p = params.lam, params.mu, params.alpha, params.beta, params.p
    _lattice_shape(Model.RSRD, x_max, y_max)   # raises on an empty side
    r = lam / (mu * p)
    if r >= 1.0:
        raise InvalidParameters("product form requires lambda < mu * p")
    norm = (1.0 - r) ** 2
    share = np.array([beta / (alpha + beta), alpha / (alpha + beta)])  # by sigma
    powers = np.array([r ** k for k in range(x_max + y_max + 3)])
    x, y = np.ogrid[:x_max + 2, :y_max + 2]
    pi = norm * powers[x + y][..., None] * share
    inflow = pi.ravel() @ _lattice_matrix(params, pi.shape)
    window = pi[:x_max + 1, :y_max + 1]
    residual = float(np.max(np.abs(
        inflow.reshape(pi.shape)[:x_max + 1, :y_max + 1] - window)))
    states = itertools.product(range(x_max + 1), range(y_max + 1), (UP, DOWN))
    entries = dict(zip(states, window.ravel().tolist()))
    tail = 1.0 - (1.0 - r ** (x_max + 1)) * (1.0 - r ** (y_max + 1))
    return StationaryTable(model=Model.RSRD, entries=entries, x_max=x_max,
                           y_max=y_max, residual=residual, tail_mass_bound=tail,
                           truncation_warning=tail > 1e-8)
