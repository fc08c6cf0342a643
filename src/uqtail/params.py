"""Parameter and state types shared by every module.

States are plain tuples: ``(x, status)`` for the single-server model and
``(x, y, status)`` for the two-server models, with ``status`` one of the
integers ``UP`` / ``DOWN``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

UP = 0
DOWN = 1


class Model(Enum):
    MODEL1 = "model1"
    MODEL2 = "model2"
    RSRD = "rsrd"


class InvalidParameters(ValueError):
    """A model parameter violates its invariants."""


class UnstableParameters(InvalidParameters):
    """Operation requires a stable parameter set."""


class InvalidState(ValueError):
    """A state tuple is outside the domain of the requested kernel."""


@np.errstate(over="ignore", invalid="ignore")   # inf, or NaN from a rate -inf `validate` refuses
def _rate_sum(lam, mu, alpha, beta, model: Model):
    return lam + mu + alpha + beta if model is Model.MODEL1 else lam + 2.0 * mu + alpha + beta


@dataclass(frozen=True)
class ModelParams:
    """A validated parameter set, or a stack of sets of one model: rates as
    1-d arrays of one length, p one float or one per set, which the closed
    forms take where they take a set.  A set holds numpy float64 scalars, so
    that it meets inf and NaN as a stack does.  An omitted C becomes the model's default.

    Construction raises InvalidParameters where `validate` would, or on an int past the doubles.
    """
    lam: float
    mu: float
    alpha: float
    beta: float
    p: float = 1.0
    C: float | None = None
    model: Model = Model.MODEL1

    def __post_init__(self):
        for name in ("lam", "mu", "alpha", "beta", "p", "C"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, np.ndarray):
                try:
                    object.__setattr__(self, name, np.float64(value))
                except OverflowError:
                    key = "lambda" if name == "lam" else name
                    raise InvalidParameters(f"{key} must be finite, got an integer too large "
                                            "for a double") from None
        if self.C is None:   # `validate` refuses the rates, whether C is given or not
            object.__setattr__(self, "C", _rate_sum(self.lam, self.mu, self.alpha, self.beta,
                                                    self.model))
        validate(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_dict(self) -> dict:
        return {"mu": self.mu, "alpha": self.alpha, "beta": self.beta, "p": self.p,
                "C": self.C, "lambda": self.lam, "model": self.model.value}


def make_params(lam: float, mu: float, alpha: float, beta: float, p: float = 1.0,
                model: Model = Model.MODEL1, C: float | None = None) -> ModelParams:
    """Build and validate a parameter set, filling in the default C."""
    return ModelParams(lam, mu, alpha, beta, p, C, model)


_PARAM_KEYS = ("lambda", "lam", "mu", "alpha", "beta", "p", "C", "model")


def params_from_dict(d: dict) -> ModelParams:
    """Parameter set from the keys lambda (or lam), mu, alpha, beta and the
    optional p, C (null for the default) and model.

    A value of the wrong type, a missing key, an unknown key or both lambda
    and lam raise InvalidParameters.
    """
    if not isinstance(d, dict):
        raise InvalidParameters(f"parameters must be a JSON object, got {type(d).__name__}")
    unknown = [str(key) for key in d if key not in _PARAM_KEYS]
    if unknown:
        raise InvalidParameters(f"unknown parameter(s): {', '.join(unknown)}; "
                                f"accepted: {', '.join(_PARAM_KEYS)}")
    if "lambda" in d and "lam" in d:
        raise InvalidParameters("both lambda and lam given; name the arrival rate once")
    lam_key = "lam" if "lam" in d else "lambda"
    missing = [key for key in (lam_key, "mu", "alpha", "beta") if key not in d]
    if missing:
        raise InvalidParameters(f"missing parameter(s): {', '.join(missing)}")
    for key in (lam_key, "mu", "alpha", "beta", "p", "C"):
        value = d.get(key, 1.0)  # only the optional p and C can be absent here
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number or (key == "C" and value is None)):
            raise InvalidParameters(f"{key} must be a number, got {value!r}")
    model, names = d.get("model", Model.MODEL1.value), [m.value for m in Model]
    if model not in names:
        raise InvalidParameters(f"model must be one of {names}, got {model!r}")
    return make_params(d[lam_key], d["mu"], d["alpha"], d["beta"], p=d.get("p", 1.0),
                       model=Model(model), C=d.get("C"))


def params_from_json(text: str) -> ModelParams:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParameters(f"malformed parameter JSON: {exc}") from None
    return params_from_dict(d)


def validate(params: ModelParams) -> ModelParams:
    """Return params unchanged if all invariants hold (in every set of a stack), else raise."""
    model, p, C = params.model, params.p, params.C
    rates = {"lambda": params.lam, "mu": params.mu, "alpha": params.alpha, "beta": params.beta}
    c_min = _rate_sum(*rates.values(), model)
    bound = "lambda+mu+alpha+beta" if model is Model.MODEL1 else "lambda+2*mu+alpha+beta"
    _require([*[row for label, value in rates.items()
                for row in ((value > 0, "{} must be > 0, got {}{where}", label, value),
                            (value < math.inf, "{} must be finite, got {}{where}", label, value))],
              ((0.0 < p) & (p <= 1.0), "p must be in (0, 1], got {}{where}", p),
              (model is not Model.MODEL1 or p == 1.0, "Model 1 requires p = 1{where}"),
              (abs(C) < math.inf, "C must be finite, got {}{where}", C),
              # relative: an absolute slack would admit any C at tiny rates; 1e-14 still
              # admits a sum taken in another order, a few ulps below
              (C >= c_min * (1.0 - 1e-14), "C below {}: {} < {}{where}", bound, C, c_min)])
    return params


def _require(conditions, error=InvalidParameters) -> None:
    """Unless every row (ok, message, *values) of `conditions` holds in every set,
    all tested by one reduction, raise error(message.format(*values, where=...))
    for the first failing set, in C order, and its first failing row.

    Array values are read at that set, 0-d ones as Python scalars, and `{where}`
    is " at stack index i[, j]", or "" for one set."""
    ok = np.True_   # a numpy bool for a set, whatever the rows' types
    for row in conditions:
        ok = ok & row[0]
    if ok.all() if ok.ndim else ok:   # a set's bool() takes a twentieth of all()'s time
        return
    index = tuple(np.argwhere(np.logical_not(ok))[0].tolist())   # () for one set
    _, message, *values = next(row for row in conditions if not _at(row[0], index))
    where = f" at stack index {', '.join(map(str, index))}" if index else ""
    raise error(message.format(*(_at(value, index) for value in values), where=where))


def _at(value, index: tuple):
    """A stacked value at one set's index; 0-d values as Python scalars."""
    if isinstance(value, np.ndarray) and value.ndim:
        value = value[index]
    return value.item() if isinstance(value, (np.ndarray, np.generic)) and not value.ndim else value


def elementwise(f, x):
    """f, `math.exp` or `math.log`, at each entry of x, a set's scalar or a stack's
    array: numpy's exp and log differ from math's in the last bit on some inputs."""
    return np.array([f(v) for v in np.ravel(x).tolist()]).reshape(np.shape(x))[()]


def check_state(state: tuple, model: Model, free: bool = False) -> tuple:
    """Validate a state tuple for the given model.

    Free-process states allow any integer x; full-chain states need x >= 0.
    The y coordinate is always >= 0.
    """
    if model is Model.MODEL1:
        if len(state) != 2:
            raise InvalidState(f"Model 1 states are (x, status), got {state}")
        x, sigma = state
    else:
        if len(state) != 3:
            raise InvalidState(f"two-server states are (x, y, status), got {state}")
        x, y, sigma = state
        if y < 0:
            raise InvalidState(f"y must be >= 0, got {state}")
    if sigma not in (UP, DOWN):
        raise InvalidState(f"status must be UP or DOWN, got {state}")
    if not free and x < 0:
        raise InvalidState(f"x must be >= 0 on the full chain, got {state}")
    return state
