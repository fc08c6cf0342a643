"""Parameter and state types shared by every module.

States are plain tuples: ``(x, status)`` for the single-server model and
``(x, y, status)`` for the two-server models, with ``status`` one of the
integers ``UP`` / ``DOWN``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from enum import Enum

UP = 0
DOWN = 1
STATUS_NAMES = ("U", "D")
STATUS_FROM_NAME = {"U": UP, "D": DOWN, "Up": UP, "Down": DOWN}


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


def default_uniformization(lam: float, mu: float, alpha: float, beta: float,
                           model: Model) -> float:
    """Smallest uniformization constant keeping every diagonal entry nonnegative.

    Model 1 needs lam+mu+alpha+beta.  The two-server models have rows with
    total exit rate lam+2*mu+alpha (both servers busy, Up status), so they
    need lam+2*mu+alpha+beta.
    """
    for name, value in (("lambda", lam), ("mu", mu), ("alpha", alpha), ("beta", beta)):
        if not value > 0:
            raise InvalidParameters(f"{name} must be > 0, got {value}")
    if model is Model.MODEL1:
        return lam + mu + alpha + beta
    return lam + 2.0 * mu + alpha + beta


@dataclass(frozen=True)
class ModelParams:
    lam: float
    mu: float
    alpha: float
    beta: float
    p: float = 1.0
    C: float = 0.0
    model: Model = Model.MODEL1

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_dict(self) -> dict:
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        d["model"] = d.pop("model").value
        return d


def make_params(lam: float, mu: float, alpha: float, beta: float, p: float = 1.0,
                model: Model = Model.MODEL1, C: float | None = None) -> ModelParams:
    """Build and validate a parameter set, filling in the default C."""
    if C is None:
        C = default_uniformization(lam, mu, alpha, beta, model)
    return validate(ModelParams(lam, mu, alpha, beta, p, C, model))


def params_from_dict(d: dict) -> ModelParams:
    lam = d["lambda"] if "lambda" in d else d["lam"]
    return make_params(lam, d["mu"], d["alpha"], d["beta"], p=d.get("p", 1.0),
                       model=Model(d.get("model", "model1")), C=d.get("C"))


def params_from_json(text: str) -> ModelParams:
    return params_from_dict(json.loads(text))


def validate(params: ModelParams) -> ModelParams:
    """Return params unchanged if all invariants hold, else raise."""
    model = params.model
    for name in ("lam", "mu", "alpha", "beta"):
        value = getattr(params, name)
        label = "lambda" if name == "lam" else name
        if not value > 0:
            raise InvalidParameters(f"{label} must be > 0, got {value}")
    if not 0.0 < params.p <= 1.0:
        raise InvalidParameters(f"p must be in (0, 1], got {params.p}")
    if model is Model.MODEL1 and params.p != 1.0:
        raise InvalidParameters("Model 1 requires p = 1")
    c_min = default_uniformization(params.lam, params.mu, params.alpha,
                                   params.beta, model)
    if params.C < c_min - 1e-12:
        bound = "lambda+mu+alpha+beta" if model is Model.MODEL1 else "lambda+2*mu+alpha+beta"
        raise InvalidParameters(f"C below {bound}: {params.C} < {c_min}")
    return params


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


def state_to_json(state: tuple) -> list:
    """JSON form: [x, "U"] or [x, y, "U"]."""
    return list(state[:-1]) + [STATUS_NAMES[state[-1]]]
