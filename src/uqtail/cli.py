"""Command-line front end: analysis, simulation, excursion extraction,
tail fitting, the matched-M/M/1 comparison, and the invariant suite.

Exit codes: 0 success, 1 validation error, 2 verification failure,
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import alpha_limits, mm1_comparison, prefactors, tail_fit
from .params import DOWN, UP, InvalidParameters, Model, make_params, params_from_json
from .qbd import ConvergenceError, _lattice_shape, stationary_table
from .simulate import (_RNG_IDENTITY, _check_burn_in, _check_levels, _csv_header,
                       empirical_distribution, excursion_verdict, ld_excursions,
                       regime_prediction, simulate)
from .spectral import stability
from .verify import run_checks

_encode = json.encoder.encode_basestring_ascii   # json.dumps's, in C
_CREATE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)   # a file of bytes
_reported = functools.cache(lambda cls: tuple(f.name for f in dataclasses.fields(cls) if f.repr))


def _fmt(value: float) -> str:
    return f"{value:.17g}"


class _NonFinite(ArithmeticError):
    """(value, keys): a non-finite float met by `_walk`, and the keys of the containers it left."""


def _dump(obj) -> str:
    """The one JSON writer of the reports: floats to 17 significant digits, the rest as
    `json.dumps(obj, indent=2)` writes it.  A non-finite float raises ArithmeticError
    naming its key path, before anything is printed or written."""
    parts = []
    try:
        _walk(obj, parts, "\n")
    except _NonFinite as exc:
        value, keys = exc.args
        path = "".join(f"[{key}]" if type(key) is int else f".{key}" for key in reversed(keys))
        raise ArithmeticError(f"{path.removeprefix('.')} is {value}") from None
    return "".join(parts)


def _walk(obj, parts: list, pad: str) -> None:
    """Append obj's JSON to parts in one pass, dispatching on its type (the
    common ones by identity); pad is a newline and the indent of obj's line."""
    kind = type(obj)
    if isinstance(obj, float):   # np.float64 too
        if not math.isfinite(obj):
            raise _NonFinite(float(obj), [])
        parts.append(f"{float(obj):.17g}")
    elif kind is str:
        parts.append(_encode(obj))
    elif kind is dict or kind is list or kind is tuple:
        mapping = kind is dict
        inner, (sep, close) = pad + "  ", "{}" if mapping else "[]"
        for key, value in obj.items() if mapping else enumerate(obj):
            parts.append(f"{sep}{inner}{_encode(key)}: " if mapping else sep + inner)
            try:
                _walk(value, parts, inner)
            except _NonFinite as exc:
                exc.args[1].append(key)
                raise
            sep = ","
        parts.append(pad + close if obj else sep + close)   # an empty one reads {} or []
    elif obj is None or kind is bool or kind is int:
        parts.append("null" if obj is None else str(obj).lower())   # True as true
    elif isinstance(obj, (np.generic, np.ndarray)):   # a set's verdicts, np.bool_
        _walk(obj.tolist(), parts, pad)
    elif isinstance(obj, enum.Enum):
        _walk(obj.value, parts, pad)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # a field declared repr=False is a value carried for later stages, not a result
        _walk({name: getattr(obj, name) for name in _reported(kind)}, parts, pad)
    else:
        parts.append(json.dumps(obj))


def _meta(params) -> dict:
    return {"version": __version__, "rng": _RNG_IDENTITY, "params": params.to_dict(),
            "model": params.model.value}


def _add_param_flags(sub):
    sub.add_argument("--lambda", dest="lam", type=float)
    sub.add_argument("--mu", type=float)
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--beta", type=float)
    sub.add_argument("--p", type=float, default=1.0)
    sub.add_argument("--C", dest="c", type=float, default=None)
    sub.add_argument("--model", choices=[m.value for m in Model], default="model1")
    sub.add_argument("--params", dest="params_file", help="JSON parameter file")
    sub.add_argument("--out", default="./out", help="output directory")


def _resolve_params(args):
    if args.params_file:
        try:
            text = Path(args.params_file).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidParameters(f"cannot read --params file: {exc}") from None
        return params_from_json(text)
    if None in (args.lam, args.mu, args.alpha, args.beta):
        raise InvalidParameters("provide --lambda --mu --alpha --beta or --params FILE")
    return make_params(args.lam, args.mu, args.alpha, args.beta,
                       p=args.p, C=args.c, model=Model(args.model))


def _write(out: str, name: str, data) -> None:
    """Write `data`, bytes or a callable that writes its chunks to a binary file, to
    the file `name` in the directory `out`, made first.  An OSError refuses --out."""
    try:
        os.makedirs(out or os.curdir, exist_ok=True)
        fd = os.open(os.path.join(out, name), _CREATE)
        try:
            if callable(data):   # a buffered file writes every byte
                with open(fd, "wb", closefd=False) as file:
                    data(file)
            else:
                view = memoryview(data)
                while view:   # os.write may take part of it
                    view = view[os.write(fd, view):]
        finally:
            os.close(fd)
    except OSError as exc:
        raise InvalidParameters(f"cannot write --out {out}: {exc.strerror or exc}") from None


def _cmd_analyze(args) -> int:
    params = _resolve_params(args)
    if params.model is Model.RSRD:   # its product form decays as r^(x+y), r = lambda/(mu p)
        with np.errstate(over="ignore", divide="ignore"):   # `_dump` names an inf rate
            rate = params.lam / (params.mu * params.p)
        head, tail = {"product_form_rate": rate, "stability": stability(params)}, {}
    else:   # the tail refuses an unstable set before its roots, whose t2 can underflow there
        asym = prefactors(params)
        head = {"spectral": asym.roots, "stability": asym.stability}
        tail = {"tail": asym} if asym.twist is None else {"twist": asym.twist, "tail": asym}
    report = {"meta": _meta(params), **head, **tail}
    if args.limits:
        report["alpha_limits"] = alpha_limits(params)
    text = _dump(report)
    _write(args.out, "analyze.json", (text + "\n").encode())
    print(text)
    return 0


def _cmd_simulate(args) -> int:
    params = _resolve_params(args)
    burn = args.burn_in if args.burn_in is not None else args.steps // 10
    if args.steps >= 1:   # else simulate() names the step count
        _check_burn_in(burn, args.steps)   # before sampling: a bad value writes no file
    traj = simulate(params, steps=args.steps, seed=args.seed)
    _write(args.out, "trajectory.csv", traj.to_csv)
    emp = empirical_distribution(traj, burn_in=burn)
    lines = [_csv_header(params, seed=args.seed, burn_in=burn, steps=args.steps)]
    lines.append("x,y,status,frequency\n" if traj.y is not None
                 else "x,status,frequency\n")
    states = np.argwhere(emp.pi)
    for state, frequency in zip(states.tolist(), emp.pi[tuple(states.T)].tolist()):
        lines.append(f"{','.join(map(str, state))},{_fmt(frequency)}\n")
    _write(args.out, "empirical.csv", "".join(lines).encode())
    for note in emp.notes:
        print(f"note: {note}", file=sys.stderr)
    print(f"wrote {Path(args.out, 'trajectory.csv')} and {Path(args.out, 'empirical.csv')}")
    return 0


def _cmd_ldpath(args) -> int:
    params = _resolve_params(args)
    _check_levels(args.level, args.base_level)   # before sampling
    predicted = regime_prediction(params)   # before sampling too: it refuses mu p = lambda + beta
    traj = simulate(params, steps=args.steps, seed=args.seed)
    excursions = ld_excursions(traj, level_k=args.level, base_level=args.base_level)
    verdict = excursion_verdict(excursions) if excursions else "NoExcursions"
    lines = [_csv_header(params, seed=args.seed, level=args.level,
                         base_level=args.base_level, predicted_regime=predicted,
                         excursion_verdict=verdict),
             "start,end,peak,down_fraction,slope\n"]
    for e in excursions:
        lines.append(f"{e.start_step},{e.end_step},{e.peak},"
                     f"{_fmt(e.down_fraction)},{_fmt(e.slope_estimate)}\n")
    _write(args.out, "excursions.csv", "".join(lines).encode())
    print(f"predicted={predicted} observed={verdict} excursions={len(excursions)}")
    return 0


def _cmd_tailfit(args) -> int:
    params = _resolve_params(args)
    model = params.model
    sigma = UP if args.sigma == "up" else DOWN
    if model is Model.MODEL1 and args.y is not None:
        raise InvalidParameters(f"--y {args.y} given, but Model 1 states have no y")
    if model is not Model.MODEL1:
        _lattice_shape(model, args.xmax, args.xmax)   # raises on an empty lattice
        if args.kmax > args.xmax:
            raise InvalidParameters(f"--kmax {args.kmax} exceeds the lattice's --xmax {args.xmax}")
        if not 0 <= (args.y or 0) <= args.xmax:
            raise InvalidParameters(f"--y {args.y} lies outside the lattice's 0..{args.xmax}")
    if args.kmin < 0 or args.kmax - args.kmin < 4:
        raise InvalidParameters(f"the fit window --kmin {args.kmin} --kmax {args.kmax} "
                                "needs kmin >= 0 and at least 5 levels")
    # Model 1's exact table is cut past the window; it does not read --xmax
    x_max = max(args.kmax + 5, 50) if model is Model.MODEL1 else args.xmax
    table = stationary_table(params, x_max, args.xmax)
    fit = tail_fit(table, sigma, args.kmin, args.kmax, y=args.y)
    lines = [_csv_header(params, gamma_est=fit.gamma_est,
                         log_prefactor_est=fit.log_prefactor_est,
                         k_min=args.kmin, k_max=args.kmax, residual=table.residual,
                         tail_mass_bound=table.tail_mass_bound),
             "k,pi,model_prediction,relative_error\n"]
    prefactor = np.exp(fit.log_prefactor_est)
    for k, pi in zip(range(args.kmin, args.kmax + 1),
                     table.levels(sigma, args.kmin, args.kmax, args.y or 0).tolist()):
        pred = prefactor * fit.gamma_est ** k
        rel = (pi - pred) / pi if pi > 0 else float("nan")
        lines.append(f"{k},{_fmt(pi)},{_fmt(pred)},{_fmt(rel)}\n")
    _write(args.out, "tailfit.csv", "".join(lines).encode())
    print(f"gamma_est={_fmt(fit.gamma_est)} "
          f"max_relative_deviation={_fmt(fit.max_relative_deviation)}")
    return 0


def _cmd_compare_mm1(args) -> int:
    params = _resolve_params(args)
    report = {"meta": _meta(params), "comparison": mm1_comparison(params)}
    text = _dump(report)
    _write(args.out, "compare_mm1.json", (text + "\n").encode())
    print(text)
    return 0


def _cmd_verify(args) -> int:
    results = run_checks(grid=args.grid, seed=args.seed)
    all_ok = True
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        all_ok = all_ok and res.passed
        print(f"{tag} {res.name}: {res.detail}")
    return 0 if all_ok else 2


def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call and shared after it:
    `parse_args` returns a fresh namespace on every call, so calls do not
    leak into each other; callers must not add arguments to it."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict]:   # the parser, its verbs' by name
    parser = argparse.ArgumentParser(
        prog="uqtail",
        description="Tail asymptotics of queues with an unreliable server")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="verb", required=True)

    analyze = subs.add_parser("analyze", help="closed-form analysis report (JSON)")
    _add_param_flags(analyze)
    analyze.add_argument("--limits", action="store_true",
                         help="include vanishing-breakdown-rate limits")
    # accepted and unused (analyze draws no random numbers): perfbench/run.py passes it
    analyze.add_argument("--seed", type=int, default=0, help="ignored")
    analyze.set_defaults(func=_cmd_analyze)

    sim = subs.add_parser("simulate", help="sample a trajectory (CSV)")
    _add_param_flags(sim)
    sim.add_argument("--steps", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--burn-in", type=int, default=None)
    sim.set_defaults(func=_cmd_simulate)

    ld = subs.add_parser("ldpath", help="extract rare upward excursions")
    _add_param_flags(ld)
    ld.add_argument("--steps", type=int, required=True)
    ld.add_argument("--level", type=int, required=True)
    ld.add_argument("--base-level", type=int, default=2)
    ld.add_argument("--seed", type=int, default=0)
    ld.set_defaults(func=_cmd_ldpath)

    fit = subs.add_parser("tailfit", help="log-linear tail fit (CSV)")
    _add_param_flags(fit)
    fit.add_argument("--sigma", choices=["up", "down"], default="up")
    fit.add_argument("--kmin", type=int, required=True)
    fit.add_argument("--kmax", type=int, required=True)
    fit.add_argument("--y", type=int, default=None)
    fit.add_argument("--xmax", type=int, default=60)
    fit.set_defaults(func=_cmd_tailfit)

    cmp_ = subs.add_parser("compare-mm1", help="matched reliable-queue comparison")
    _add_param_flags(cmp_)
    cmp_.set_defaults(func=_cmd_compare_mm1)

    verify = subs.add_parser("verify", help="run the invariant suite")
    verify.add_argument("--grid", type=int, default=200)
    verify.add_argument("--seed", type=int, default=7)
    verify.set_defaults(func=_cmd_verify)
    return parser, subs.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, verbs = _parsers()
    # a verb's parser alone reads its arguments; the top-level one names any left over
    verb = verbs.get(argv[0]) if argv else None
    args, rest = verb.parse_known_args(argv[1:]) if verb else (None, None)
    args = args if rest == [] else parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidParameters as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    except (ArithmeticError, ValueError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
