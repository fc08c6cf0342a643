"""Tail asymptotics assembly: escape probabilities of the twisted chain, the
boundary constant eta, the closed-form prefactors, the two-term expansion,
small-breakdown limits, the matched-M/M/1 comparison and empirical tail
fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import level_blocks
from .params import (DOWN, UP, InvalidParameters, Model, ModelParams,
                     UnstableParameters, _require, make_params)
from .qbd import (_TAIL_ERROR, StationaryTable, TruncationError, _boundary, _model1_roots, _pi0,
                  first_passage, truncated_stationary)
from .spectral import SpectralSolution, StabilityReport, _require_stable, characteristic_roots
from .twist import TwistSummary, twist_summary

_ESCAPE_RESIDUAL = 1e-12
_ALPHA_EVAL = 1e-6   # the breakdown rate at which alpha_limits evaluates the limits
_ETA_TABLE = 60      # x_max = y_max of the tandem eta's own truncated table


@dataclass(frozen=True)
class EscapeProbs:
    up: float
    down: float


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
    y_ratio: float | None  # per-unit-of-y geometric factor (tandem model)
    provenance: str
    # neither reported nor compared: the pass the tail came from, and eta's bound
    stability: StabilityReport = field(repr=False, compare=False)   # the report its gate formed
    roots: SpectralSolution = field(repr=False, compare=False)
    twist: TwistSummary | None = field(repr=False, compare=False)   # None: shape-only
    eta_error_bound: float | None = field(repr=False, compare=False)   # 0 for Model 1


@dataclass(frozen=True)
class TwoTermFit:
    w2: float   # weight of gamma_1^k, the dominant term
    w3: float   # weight of gamma^k, the secondary term


@dataclass(frozen=True)
class TailFit:
    gamma_est: float
    log_prefactor_est: float
    max_relative_deviation: float


@dataclass(frozen=True)
class Mm1Comparison:
    gamma_1: float
    mm1_ratio: float
    # gamma_1 >= mm1_ratio: true for Model 1 and the tandem whenever the matched
    # queue is stable, false for RS-RD, whose lambda/(mu p) lies below mm1_ratio
    dominance: bool
    lambda0: float
    mu0: float


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


def _escape_first_passage(a0: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Escape probabilities from level 0 for every phase of the twisted
    chain with blocks A0, A1, A2 (a set's or a stack's) as `level_blocks` lays them.

    The free chain leaves level 0 upwards by the same up block A0 as any
    level, so escape = A0 (1 - G 1) with G from `qbd.first_passage`.  For
    Model 1 this is the numeric reference for `_escape`.
    """
    return (a0 @ (1.0 - first_passage(a0, a1, a2).sum(axis=-1))[..., None])[..., 0]


def _escape(twist: TwistSummary) -> EscapeProbs:
    """P(twisted chain started at (0, sigma) never revisits level 0), for a
    Model 1 twist of a set or a stack (whose gates hold per set).

    The free chain moves down a level only by a service in Up, so under
    stability its first-passage matrix is G(sigma, U) = 1, G(sigma, D) = 0.
    The twist rescales it to G~(sigma, U) = h(0, U) / h(1, sigma), hence
    escape(sigma) = (lambda/C) (h(1, sigma) - 1) / h(0, sigma), t2 - 1 the roots'
    margin (`t2_minus_1`).  A gamma_1 = 1/t2 that rounds to 1 is refused by name;
    G~ is checked against the twist's G = A2 + A1 G + A0 G^2 and must be strictly
    substochastic.
    """
    t2, w = twist.harmonic.base, twist.harmonic.down_weight
    a0, a1, a2 = twist.blocks
    g = np.empty((*np.shape(t2), 2, 2))
    g[..., UP, 0], g[..., DOWN, 0] = 1.0 / t2, 1.0 / (t2 * w)
    g[..., 1] = g[..., 0] * 0.0   # the Down column: 0, or NaN where 1 / (t2 w) overflows
    residual = np.abs(a2 + a1 @ g + a0 @ g @ g - g).max(axis=(-2, -1))
    rows = g.sum(axis=-1)
    _require([_decay_below_1(twist.roots),
              ((residual <= _ESCAPE_RESIDUAL) & (rows < 1.0).all(axis=-1),
               "closed-form first-passage matrix{where} fails: residual {:.3g} (bound {:g}), "
               "row sums {} (must be < 1)", residual, _ESCAPE_RESIDUAL, rows)], ArithmeticError)
    roots = twist.roots
    scale = roots.params.lam / roots.params.C
    return EscapeProbs(up=scale * roots.t2_minus_1, down=scale * (t2 - 1.0 / w))


def _decay_below_1(roots: SpectralSolution):
    """The `_require` row refusing a gamma_1 = 1/t2 that rounds to 1 or above, by 1 - gamma_1."""
    return (roots.gamma_p < 1.0, "the decay rate gamma_1 = 1/t2{where} rounds to {!r}: "
            "1 - gamma_1 = (t2 - 1)/t2 = {!r}", roots.gamma_p, roots.t2_minus_1 / roots.t2)


def _eta_model1(twist: TwistSummary, esc: EscapeProbs) -> float:
    """Boundary constant eta: the sum over the boundary of pi * h * escape probability, exact
    on Model 1's two-state boundary, with pi0 from the twist's roots and h(0, sigma) = (1, w)."""
    pi0 = _pi0(twist.roots)[0]
    return pi0[..., UP] * esc.up + pi0[..., DOWN] * twist.harmonic.down_weight * esc.down


def _eta_weights(h, y_max: int) -> np.ndarray:
    """h(0, y, sigma) = t2^y (1, w), (y_max + 1, 2), or ArithmeticError from its first inf;
    each power libm's, as `h.value`'s: numpy's array power (SVML) can differ in the last bit."""
    with np.errstate(over="ignore"):   # the gate names it
        column = np.array([h.base ** y for y in range(y_max + 1)])[:, None] * (1.0, h.down_weight)
    finite = (column < math.inf).all(axis=-1)
    _require([(finite.all(), "eta's boundary weights: h(0, y, sigma), a multiple of t2^y, "
               "overflows from y = {}, t2 = {!r}", np.argmin(finite), h.base)], ArithmeticError)
    return column


def _eta_model2(twist: TwistSummary, table: StationaryTable | None) -> tuple[float, float]:
    """The tandem's (p = 1) eta and its truncation bound.  pi on its infinite
    boundary comes from `table` (default: a fixed 60 x 60 truncated solve), the escape
    probabilities from the twisted free chain's first passage with y cut at 2 y_max."""
    params = twist.roots.params
    if np.ndim(params.lam):
        raise InvalidParameters("the tandem's eta reads one set's truncated table, not a stack")
    if not params.lam / params.mu < twist.roots.gamma_p:   # p = 1, by the twist's own gate
        raise ArithmeticError("boundary sum not summable: lambda/mu >= gamma_p")
    h = twist.harmonic
    y_max = _ETA_TABLE if table is None else table.pi.shape[1] - 1
    column = _eta_weights(h, y_max)   # before the solve
    fixed = f"eta's truncated table has the fixed size {_ETA_TABLE} x {_ETA_TABLE}"
    advice = fixed if table is None else "enlarge the truncated table"   # the caller set the size
    if table is None:
        table = truncated_stationary(params, x_max=_ETA_TABLE, y_max=_ETA_TABLE,
                                     tail_error=math.inf)
        if table.tail_mass_bound > _TAIL_ERROR:
            raise TruncationError(f"{fixed}, and its estimated tail mass "
                                  f"{table.tail_mass_bound:.3g} exceeds {_TAIL_ERROR}")
    weights = table.pi[0].ravel() * column.ravel()   # pi(0, y, sigma) h(0, y, sigma)
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
    if max(ratios) >= 1.0:
        raise ArithmeticError(
            f"boundary sum tail is not decreasing geometrically: ratios "
            f"{[round(r, 4) for r in ratios]} at y = {ys}, first >= 1 at y = "
            f"{next((y for y, r in zip(ys, ratios) if r >= 1.0), None)}; {advice}")
    rho = max(ratios)
    # escape = A0 (1 - G 1) is at most A0's largest row sum, the same at every y cut >= 1
    up_mass = float(twist.blocks[0].sum(axis=-1).max())
    remainder = levels[-1] * rho / (1.0 - rho) * up_mass
    value, coarse = (
        float(weights @ _escape_first_passage(*level_blocks(params, cut, h=h))[:weights.size])
        for cut in (2 * y_max, y_max))
    return value, abs(value - coarse) + float(remainder)


def prefactors(params: ModelParams, model: Model | None = None, *,
               table: StationaryTable | None = None,
               seed: int = 0) -> TailAsymptotic:
    """Tail constants of the dominant geometric term (`tail_constants` of the
    set's `twist_summary`); shape-only for the feedback tandem (p < 1 in every set;
    the twist refuses a stack that mixes p = 1 and p < 1).  Raises UnstableParameters
    off stability.

    `model` and `seed` may be omitted; perfbench/run.py passes both.  A given
    `model` must be params.model; `seed` is unused, as nothing here is random.
    """
    if model not in (None, params.model):
        raise InvalidParameters(f"model {model} does not match the parameters' {params.model}")
    if params.model is Model.MODEL2 and (params.p != 1.0).all():
        report, sol = _require_stable(params, "the shape-only tail"), characteristic_roots(params)
        return TailAsymptotic(model=params.model, gamma=sol.gamma_p, prefactor_up=None,
                              prefactor_down=None, eta=None, escape_up=None, escape_down=None,
                              secondary_gamma=sol.gamma_secondary, y_ratio=None,
                              provenance="shape-only", stability=report, roots=sol, twist=None,
                              eta_error_bound=None)
    return tail_constants(twist_summary(params), table=table)


def tail_constants(twist: TwistSummary, *,
                   table: StationaryTable | None = None) -> TailAsymptotic:
    """C(sigma) = eta phi(0, sigma) / (d h(0, sigma)) from one twist pass.

    phi is the twisted phase law, d the drift and eta the boundary constant,
    for Model 1, of a set or a stack, and the tandem (p = 1) (Adan, Foley & McDonald).
    The tandem's eta reads one set's `table` (default: a 60 x 60 truncated solve).
    """
    params, d = twist.roots.params, twist.drift.value
    if params.model is Model.MODEL1:
        esc = _escape(twist)
        eta, bound = _eta_model1(twist, esc), 0.0
        # phi(Up) = den / (2 g) and phi(Down) / h(0, D) = alpha / g; eta / d comes first,
        # so that a phi below the doubles' range (7e-332 on R_DD's sets) leaves no 0
        eta_d, g = eta / d, twist.roots.g_constant
        c_up, c_down = eta_d * (twist.roots.den / 2.0) / g, eta_d * params.alpha / g
        extra = dict(escape_up=esc.up, escape_down=esc.down, y_ratio=None,
                     provenance="closed-form")
    else:
        eta, bound = _eta_model2(twist, table)
        c_up, c_down = (eta * twist.phi(0, sigma) / (d * weight)   # h(0, 0, sigma) = (1, w)
                        for sigma, weight in ((UP, 1.0), (DOWN, twist.harmonic.down_weight)))
        extra = dict(escape_up=None, escape_down=None, y_ratio=params.lam / params.mu,
                     provenance="closed-form+qbd")
    return TailAsymptotic(model=params.model, gamma=twist.roots.gamma_p,
                          prefactor_up=c_up, prefactor_down=c_down, eta=eta,
                          secondary_gamma=twist.roots.gamma_secondary, stability=twist.stability,
                          roots=twist.roots, twist=twist, eta_error_bound=bound, **extra)


def _two_term(roots: SpectralSolution):
    """Model 1's pi(k, sigma) = w2 gamma_1^k + w3 gamma_2^k, as (w2, w3), each (..., 2).

    pi(k) = pi0 R^k, so w2 = pi0 (R - gamma_2 I) / d and w3 = pi0 (gamma_1 I - R) / d, d =
    gamma_1 - gamma_2 = s sqrt(s_p) / (lambda + beta), s = lambda / mu (Neuts, 1981).  The
    gaps R_UU - gamma_2 = s den / (2 (lambda + beta)) and R_DD - gamma_2, which is R_UD R_DU
    over it, are positive; pi0 proportional to (lambda + beta, alpha) gives w3 = pi0(D)
    gamma_2 (R_DU / gap_U, -1) / d.  So nothing cancels.
    """
    pi0, r, _ = _boundary(roots)
    s, r_ud, lam_beta = r[..., DOWN, UP], r[..., UP, DOWN], roots.params.lam + roots.params.beta
    gap_up = s * roots.den / (2.0 * lam_beta)
    d = s * roots.sqrt_s / lam_beta
    up, down = pi0[..., UP], pi0[..., DOWN]
    w2 = np.stack([up * gap_up + down * s, up * r_ud + down * (r_ud * s / gap_up)], axis=-1)
    w3_down = -down * roots.gamma_secondary / d
    return w2 / d[..., None], np.stack([-w3_down * s / gap_up, w3_down], axis=-1)


def two_term_tail(params: ModelParams) -> TwoTermFit:
    """Model 1's pi(k, Up) = w2 gamma_1^k + w3 gamma^k, w2 = C(Up): `_two_term`'s Up entries."""
    w2, w3 = _two_term(_model1_roots(params, "the two-term expansion"))
    return TwoTermFit(w2=w2[..., UP], w3=w3[..., UP])


def alpha_limits(params: ModelParams) -> AlphaLimits:
    """Vanishing-breakdown-rate limits of Model 1 and the tandem at the set's
    other rates, with numeric evaluation at alpha = 1e-6 and the default C
    (for Model 1, of the prefactor C(Up) too); the set's own alpha and C are
    not read.  RS-RD, which has neither roots nor twist, raises
    InvalidParameters."""
    lam, mu, beta, p, model = params.lam, params.mu, params.beta, params.p, params.model
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
    pe = make_params(lam, mu, _ALPHA_EVAL, beta, p=p, model=model)
    twist = twist_summary(pe) if p == 1.0 else None
    sol = twist.roots if twist else characteristic_roots(pe)
    g_at = sol.g_constant
    drift_at = twist.drift.per_time if twist else None
    b_at = twist.phi.B if twist and model is Model.MODEL2 else None
    c_up_at = c_up_gap = None
    if model is Model.MODEL1:
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
        alpha_eval=_ALPHA_EVAL, gamma_at_eval=sol.gamma_p, g_at_eval=g_at,
        drift_per_time_at_eval=drift_at, b_at_eval=b_at,
        gamma_gap=abs(sol.gamma_p - limit_gamma) / limit_gamma,
        prefactor_up_at_eval=c_up_at, prefactor_up_limit_gap=c_up_gap)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")   # the gates name them
def mm1_comparison(params: ModelParams) -> Mm1Comparison:
    """Match a plain M/M/1 queue with the same effective rates, service
    beta/(alpha+beta) mu p, and compare tails.  gamma_1 is gamma_p, or RS-RD's
    product-form rate lambda/(mu p).  Raises UnstableParameters unless that
    queue's load is below 1: the stability condition of Model 1 and the
    tandem, and a stricter one than RS-RD's lambda < mu p; ArithmeticError where
    gamma_p rounds to 1, as `tail_constants` does."""
    lam, mu, alpha, beta, p = params.lam, params.mu, params.alpha, params.beta, params.p
    mu0 = beta / (alpha + beta) * mu * p
    if not lam < mu0:
        raise UnstableParameters("the M/M/1 comparison requires a stable parameter set "
                                 f"whose matched queue has load below 1, got {lam / mu0}")
    if params.model is Model.RSRD:
        gamma_1 = lam / (mu * p)
    else:
        roots = characteristic_roots(params)
        _require([_decay_below_1(roots)], ArithmeticError)
        gamma_1 = roots.gamma_p
    mm1_ratio = (alpha + beta) / beta * lam / (mu * p)
    return Mm1Comparison(gamma_1=gamma_1, mm1_ratio=mm1_ratio,
                         dominance=gamma_1 >= mm1_ratio, lambda0=lam, mu0=mu0)


def tail_fit(table: StationaryTable, sigma: int, k_min: int, k_max: int,
             y: int | None = None) -> TailFit:
    """Log-linear least squares of pi over a window of levels, at `y` on an
    (x, y, sigma) table; InvalidParameters for a `y` on an (x, sigma) table."""
    if y is not None and table.pi.ndim == 2:
        raise InvalidParameters(f"y = {y} given, but the table's states (x, sigma) have no y")
    values = table.levels(sigma, k_min, k_max, y or 0).tolist()
    ks = [k for k, value in zip(range(k_min, k_max + 1), values) if value > 1e-300]
    logs = [math.log(value) for value in values if value > 1e-300]
    if len(ks) < 5:
        raise ValueError(f"fit window holds {len(ks)} usable points; need at least 5")
    slope, intercept = _line(ks, logs)
    deviation = max(abs(1.0 - math.exp(slope * k + intercept - l)) for k, l in zip(ks, logs))
    return TailFit(gamma_est=math.exp(slope), log_prefactor_est=intercept,
                   max_relative_deviation=deviation)


def _line(ks: list[int], logs: list[float]) -> tuple[float, float]:
    """(slope, intercept) of the least-squares line through the points (k, l): sum
    (n k - sum k) l / D and sum (sum k^2 - k sum k) l / D, D = n sum k^2 - (sum k)^2,
    each summed in integers and so the exact value, correctly rounded."""
    n, k1, k2 = len(ks), sum(ks), sum(k * k for k in ks)
    scale = max(value.as_integer_ratio()[1] for value in logs)   # a power of 2
    scaled = [int(value * scale) for value in logs]   # exact
    det = (n * k2 - k1 * k1) * scale
    return (sum((n * k - k1) * v for k, v in zip(ks, scaled)) / det,
            sum((k2 - k1 * k) * v for k, v in zip(ks, scaled)) / det)

