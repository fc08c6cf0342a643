"""Tail asymptotics assembly: escape probabilities of the twisted chain, the
boundary constant eta, the closed-form prefactors, the two-term expansion,
small-breakdown limits, the matched-M/M/1 comparison, empirical tail fits,
and the product-form reference distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import (DOWN, UP, InvalidParameters, Model, ModelParams,
                     make_params)
from .qbd import (StationaryTable, _lattice_inflow, _lattice_shape, boundary_vector,
                  first_passage, level_blocks, truncated_stationary)
from .spectral import characteristic_roots
from .twist import TwistSummary, twist_summary

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


def _escape_first_passage(rows, y_cut: int = 0) -> np.ndarray:
    """Escape probabilities from level 0 for every phase of the twisted
    class rows `rows`, with phases and the y cut as in `qbd.level_blocks`.

    The free chain leaves level 0 upwards by the same up block A0 as any
    level, so escape = A0 (1 - G 1) with G from `qbd.first_passage`.  For
    Model 1 this is the numeric reference for `escape_probabilities`.
    """
    a0, a1, a2 = level_blocks(rows, y_cut)
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
    return _escape(twist_summary(params))[0]


def _escape(twist: TwistSummary) -> tuple[EscapeProbs, tuple[np.ndarray, ...]]:
    """`escape_probabilities` of a twist, with the twisted (up, local, down)
    blocks its first-passage matrix was checked against."""
    t2, w = twist.harmonic.base, twist.harmonic.down_weight
    g = np.array([[1.0 / t2, 0.0], [1.0 / (t2 * w), 0.0]])
    a0, a1, a2 = level_blocks(twist.rows)
    residual = float(np.max(np.abs(a2 + a1 @ g + a0 @ g @ g - g)))
    if not (residual <= _ESCAPE_RESIDUAL and np.all(g.sum(axis=1) < 1.0)):
        raise ArithmeticError(
            f"closed-form first-passage matrix fails: residual {residual:.3g} "
            f"(bound {_ESCAPE_RESIDUAL:g}), row sums {g.sum(axis=1)} (must be < 1)")
    scale = twist.params.lam / twist.params.C
    return EscapeProbs(up=scale * (t2 - 1.0), down=scale * (t2 - 1.0 / w),
                       x_max_used=0, residual=residual), (a0, a1, a2)


def eta(params: ModelParams, *, table: StationaryTable | None = None) -> EtaEstimate:
    """Boundary constant: sum over the boundary of pi * h * escape probability.

    Model 1 has a two-state boundary, so the value is exact.  The tandem
    (p = 1 only) boundary is infinite: pi comes from the truncated oracle,
    and the escape probabilities from the first-passage matrix of the
    twisted free chain with y cut at twice the table's y_max.
    """
    twist = twist_summary(params)
    if params.model is Model.MODEL1:
        return _eta_model1(twist, _escape(twist)[0])
    return _eta_model2(twist, table)


def _eta_model1(twist: TwistSummary, esc: EscapeProbs) -> EtaEstimate:
    pi0 = boundary_vector(twist.params)
    value = pi0[UP] * esc.up + pi0[DOWN] * twist.harmonic.value((0, DOWN)) * esc.down
    return EtaEstimate(value=float(value), std_error=0.0, method="exact")


def _eta_model2(twist: TwistSummary, table: StationaryTable | None) -> EtaEstimate:
    params = twist.params
    if not params.lam / (params.mu * params.p) < twist.roots.gamma_p:
        raise ArithmeticError("boundary sum not summable: lambda/(mu p) >= gamma_p")
    if table is None:
        table = truncated_stationary(params, x_max=60, y_max=60)
    h = twist.harmonic
    y_max = table.pi.shape[1] - 1
    # weights[2y + sigma] = pi(0, y, sigma) h(0, y, sigma), in `level_blocks` order
    weights = table.pi[0].ravel() * np.array(
        [h.value((0, y, sigma)) for y in range(y_max + 1) for sigma in (UP, DOWN)])
    # geometric-tail gate on the last min(10, y_max + 1) levels of the weights
    levels = weights.reshape(-1, 2).sum(axis=1)
    low = max(1, y_max - 8)
    ys = [y for y in range(low, y_max + 1) if levels[y - 1] > 0]
    if not ys:
        raise ArithmeticError(
            f"boundary sum tail has no positive weight at y = {low - 1}..{y_max - 1}, "
            "where the tail gate takes its ratios: the truncated table holds only "
            "zeros there (values below its solve's accuracy, clipped), so a larger "
            "table cannot help")
    ratios = [float(levels[y] / levels[y - 1]) for y in ys]
    if not ratios or max(ratios) >= 1.0:
        raise ArithmeticError(
            f"boundary sum tail is not decreasing geometrically: ratios "
            f"{[round(r, 4) for r in ratios]} at y = {ys}, first >= 1 at y = "
            f"{next((y for y, r in zip(ys, ratios) if r >= 1.0), None)}; "
            "enlarge the truncated table")
    rho = max(ratios)
    # escape = A0 (1 - G 1) is at most A0's largest row sum, the same at every y cut >= 1
    up_mass = float(level_blocks(twist.rows, 1)[0].sum(axis=1).max())
    remainder = levels[-1] * rho / (1.0 - rho) * up_mass
    value, coarse = (
        float(weights @ _escape_first_passage(twist.rows, cut)[:weights.size])
        for cut in (2 * y_max, y_max))
    return EtaEstimate(value=value, std_error=abs(value - coarse) + float(remainder),
                       method="qbd")


def prefactors(params: ModelParams, model: Model | None = None, *,
               table: StationaryTable | None = None,
               seed: int = 0) -> TailAsymptotic:
    """Tail constants of the dominant geometric term (`tail_constants` of the
    set's `twist_summary`); shape-only for the feedback tandem (p < 1).

    `model` and `seed` may be omitted; perfbench/run.py passes both.  A given
    `model` must be params.model; `seed` is unused, as nothing here is random.
    """
    if model not in (None, params.model):
        raise InvalidParameters(f"model {model} does not match the parameters' {params.model}")
    if params.model is Model.MODEL2 and params.p != 1.0:
        sol = characteristic_roots(params)
        return TailAsymptotic(model=params.model, gamma=sol.gamma_p, prefactor_up=None,
                              prefactor_down=None, eta=None, escape_up=None,
                              escape_down=None, secondary_gamma=sol.gamma_secondary,
                              secondary_weight=None, y_ratio=None,
                              provenance="shape-only")
    return tail_constants(twist_summary(params), table=table)


def tail_constants(twist: TwistSummary, *,
                   table: StationaryTable | None = None) -> TailAsymptotic:
    """C(sigma) = eta phi(0, sigma) / (d h(0, sigma)) from one twist pass.

    phi is the twisted phase law, d the drift and eta the boundary constant,
    for Model 1 and the tandem (p = 1) alike (Adan, Foley & McDonald).  The
    tandem's eta reads `table` (default: a 60 x 60 truncated solve).
    """
    params, h = twist.params, twist.harmonic
    if params.model is Model.MODEL1:
        esc = _escape(twist)[0]
        est = _eta_model1(twist, esc)
        phi0, origins = twist.phi, ((0, UP), (0, DOWN))
        extra = dict(escape_up=esc.up, escape_down=esc.down, y_ratio=None,
                     provenance="closed-form")
    else:
        est = _eta_model2(twist, table)
        phi0 = [twist.phi(0, sigma) for sigma in (UP, DOWN)]
        origins = ((0, 0, UP), (0, 0, DOWN))
        extra = dict(escape_up=None, escape_down=None, y_ratio=params.lam / params.mu,
                     provenance="closed-form+qbd")
    c_up, c_down = (est.value * phi0[origin[-1]] / (twist.drift.value * h.value(origin))
                    for origin in origins)
    return TailAsymptotic(model=params.model, gamma=twist.roots.gamma_p,
                          prefactor_up=c_up, prefactor_down=c_down, eta=est.value,
                          secondary_gamma=twist.roots.gamma_secondary,
                          secondary_weight=None, **extra)


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
        k_hi = min(40, len(table.pi) - 1)
    ks = np.arange(k_lo, k_hi + 1)
    pi_up = table.levels(UP, k_lo, k_hi)
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
    twist = twist_summary(pe) if p == 1.0 else None
    sol = twist.roots if twist else characteristic_roots(pe)
    g_at = sol.g_constant
    drift_at = twist.drift.per_time if twist else None
    b_at = twist.phi.B if twist and model is Model.MODEL2 else None
    c_up_at = c_up_gap = None
    if evaluate_prefactor and model is Model.MODEL1:
        asym = tail_constants(twist)
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
    values = table.levels(sigma, k_min, k_max, y or 0).tolist()
    ks = [k for k, value in zip(range(k_min, k_max + 1), values) if value > 1e-300]
    logs = [math.log(value) for value in values if value > 1e-300]
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
    pi = table.levels(sigma, k_min, k_max)
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
    actual kernel, pi P - pi on the window, with P the kernel on the
    (x_max + 2) x (y_max + 2) lattice so that inflow sources one step outside
    the window are evaluated in closed form too.  The inflow pi P is summed
    from shifted slices of pi by `qbd._lattice_inflow`; no matrix is built
    and scipy is not loaded.  Raises InvalidParameters unless x_max >= 1 and
    y_max >= 1.
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
    inflow = _lattice_inflow(params, pi)
    window = pi[:x_max + 1, :y_max + 1]
    residual = float(np.max(np.abs(inflow[:x_max + 1, :y_max + 1] - window)))
    tail = 1.0 - (1.0 - r ** (x_max + 1)) * (1.0 - r ** (y_max + 1))
    return StationaryTable(pi=window, model=Model.RSRD, residual=residual,
                           tail_mass_bound=tail, truncation_warning=tail > 1e-8)
