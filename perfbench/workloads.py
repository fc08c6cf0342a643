"""Workload definitions: the seeded op lists and the output check of every op.

An op is one call to a public entry point of uqtail: a ``uqtail.cli.main``
verb, or a library function where no verb reaches it.  Each workload turns
``(seed, seconds)`` into a fixed op list.  The list is sized from
``--seconds`` by the per-op costs measured at the baseline (2-core x86,
Python 3.11), so that a run of the baseline lasts about ``--seconds`` and
every later commit runs exactly the same ops.

Checks run after the timed loop.  Each compares an op's output with an
oracle computed here or by a different uqtail routine than the one under
test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

A = (10.0, 11.0, 0.1, 10.0)   # lambda, mu, alpha, beta
B = (20.0, 60.0, 0.01, 1.0)
T2 = (10.0, 30.0, 0.1, 10.0)
UP, DOWN = 0, 1

# tailfit window for the tandem lattice; criterion 6 fits the same slice
KMIN, KMAX = 20, 35
PREFACTOR_LEVEL = 25   # x level where the 40x40 table is compared with C(sigma) gamma^k


@dataclass
class Op:
    id: int
    stratum: str
    verb: str            # CLI verb, or "prefactors" for the library call
    argv: list           # full CLI argument list, without --out
    params: dict         # the generated parameter set, as recorded in the output
    seed: int | None = None
    expect_exit: int = 0  # documented exit code of a known failure
    once: bool = False    # run once; other ops run once in each of two passes


@dataclass
class Outcome:
    exit: int | None            # None when the op raised
    seconds: float
    ref_seconds: float | None = None            # seconds at reference speed
    stdout: str = ""
    stderr: str = ""
    files: dict = field(default_factory=dict)   # small output files, by name
    lines: dict = field(default_factory=dict)   # line counts of large files
    bytes_out: int = 0
    value: object = None                        # library op: return value
    error: str = ""


# --------------------------------------------------------------------------
# op lists


def _flags(rates, p=None, C=None, model="model1"):
    lam, mu, alpha, beta = rates
    argv = ["--lambda", repr(lam), "--mu", repr(mu), "--alpha", repr(alpha),
            "--beta", repr(beta), "--model", model]
    if p is not None:
        argv += ["--p", repr(p)]
    if C is not None:
        argv += ["--C", repr(C)]
    return argv


def _record(rates, p=1.0, C=None, model="model1"):
    lam, mu, alpha, beta = rates
    return {"lambda": lam, "mu": mu, "alpha": alpha, "beta": beta, "p": p,
            "C": C, "model": model}


def stability_bound(rates):
    """Model 1 is stable iff lambda < beta / (alpha + beta) * mu."""
    _, mu, alpha, beta = rates
    return beta / (alpha + beta) * mu


def draw_stable(rng):
    """A stable Model 1 set, drawn with the distribution of verify.random_params."""
    mu = rng.uniform(1.0, 50.0)
    alpha = math.exp(rng.uniform(math.log(1e-3), math.log(2.0)))
    beta = rng.uniform(0.5, 30.0)
    lam = stability_bound((0.0, mu, alpha, beta)) * rng.uniform(0.1, 0.9)
    return (float(lam), float(mu), float(alpha), float(beta))


def _spread(once, twice):
    """Insert the ops that run once at even intervals among the others."""
    ops = list(twice)
    step = len(ops) // (len(once) + 1) + 1
    for i, op in enumerate(once):
        ops.insert((i + 1) * step + i, op)
    return ops


def _m1_analyze(rng, seconds, tiny):
    def analyze(stratum, rates, C=None, **kwargs):
        return Op(0, stratum, "analyze", ["analyze"] + _flags(rates, C=C),
                  _record(rates, C=C), **kwargs)

    def near_critical(load):
        return (stability_bound(A) * load, A[1], A[2], A[3])

    grid = [draw_stable(rng) for _ in range(3 if tiny else 2 * seconds)]
    light = [analyze("reference", A), analyze("reference", B)]
    light += [analyze("tiny-alpha", (A[0], A[1], alpha, A[3]))
              for alpha in ((1e-12,) if tiny else (1e-6, 1e-8, 1e-10, 1e-12))]
    light += [analyze("grid", rates) for rates in grid]
    light += [analyze("non-minimal-C", rates, C=2.0 * sum(rates))
              for rates in [A, B] + grid[:2]]
    light.append(analyze("near-critical-0.99", near_critical(0.99)))
    light = [light[i] for i in rng.permutation(len(light))]
    if tiny:
        return light
    once = [analyze("near-critical-0.999", near_critical(0.999), once=True),
            # known failure: the escape doubling does not settle below 2^17 levels
            analyze("near-critical-0.9999", near_critical(0.9999), once=True,
                    expect_exit=3)]
    return _spread(once, light)


def _ladder(low, high, count):
    """count sizes spaced geometrically from low to high: latencies without gaps."""
    if count == 1:
        return [low]
    return [round(low * (high / low) ** (i / (count - 1))) for i in range(count)]


def _tandem(rng, seconds, tiny):
    fit = ["--kmin", str(KMIN), "--kmax", str(KMAX)]

    def tailfit(xmax, model="model2", p=None, once=False):
        return Op(0, f"tailfit-{model}-x{xmax}", "tailfit",
                  ["tailfit"] + _flags(T2, p=p, model=model) + fit + ["--xmax", str(xmax)],
                  _record(T2, p=p or 1.0, model=model), once=once)

    # the lattice sizes 40..64 include the 40 and 60 that the x40_ms and
    # x60_ms layer metrics time; with s-3 sizes the tail percentile falls
    # inside the model2 ladder and the median inside the rsrd one
    ops = []
    for xmax in _ladder(40, 64, 1 if tiny else max(2, seconds - 3)):
        ops += [tailfit(xmax), tailfit(xmax, model="rsrd", p=0.5),
                Op(0, "analyze-shape-only", "analyze",
                   ["analyze"] + _flags(T2, p=0.5, model="model2"),
                   _record(T2, p=0.5, model="model2"))]
    ops = [ops[i] for i in rng.permutation(len(ops))]
    seeds = [int(s) for s in rng.integers(0, 2 ** 31, size=2)]
    once = [Op(0, "prefactors-table40", "prefactors", [], _record(T2, model="model2"),
               seed=seeds[0], once=True),
            # known failure: the eta gate finds the 60x60 table's boundary
            # sum not decreasing geometrically
            Op(0, "analyze-default", "analyze",
               ["analyze"] + _flags(T2, model="model2") + ["--seed", str(seeds[1])],
               _record(T2, model="model2"), seed=seeds[1], expect_exit=2, once=True)]
    if not tiny:
        once.insert(0, tailfit(120, once=True))
    return _spread(once, ops)


def _simulate(rng, seconds, tiny):
    def op(verb, rates, model, steps, extra=(), once=False):
        seed = int(rng.integers(0, 2 ** 31))
        return Op(0, f"{verb}-{model}-{steps}", verb,
                  [verb] + _flags(rates, model=model)
                  + ["--steps", str(steps), "--seed", str(seed)] + list(extra),
                  _record(rates, model=model), seed=seed, once=once)

    # B mixes slowly (a repair takes about 80 steps), so its paths start longer;
    # s sizes per model keep neighbouring latencies about 10% apart, so the
    # median and the tail percentile do not jump between sparse ladder steps
    rounds = 1 if tiny else max(2, seconds)
    light = [op("simulate", B, "model1", steps) for steps in _ladder(5 * 10 ** 4, 3 * 10 ** 5, rounds)]
    light += [op("simulate", T2, "model2", steps)
              for steps in _ladder(25_000, 15 * 10 ** 4, rounds)]
    light = [light[i] for i in rng.permutation(len(light))]
    if tiny:
        return light
    once = [op("simulate", B, "model1", 10 ** 6, once=True),
            op("simulate", T2, "model2", 10 ** 6, once=True),
            op("ldpath", A, "model1", 10 ** 6, ["--level", "30"], once=True),
            op("ldpath", B, "model1", 10 ** 6, ["--level", "30"], once=True)]
    return _spread(once, light)


def _verify_grid(rng, seconds, tiny):
    grid = "20" if tiny else "200"
    ops = []
    for _ in range(2 if tiny else seconds):
        seed = int(rng.integers(0, 2 ** 31))
        ops.append(Op(0, "verify", "verify", ["verify", "--grid", grid, "--seed", str(seed)],
                      {"grid": int(grid)}, seed=seed))
    return ops


WORKLOADS = {
    "m1-analyze": _m1_analyze,
    "tandem": _tandem,
    "simulate": _simulate,
    "verify-grid": _verify_grid,
}


def build(name: str, seed: int, seconds: int, tiny: bool = False) -> list[Op]:
    """The op list of a workload; the same arguments give the same list."""
    ops = WORKLOADS[name](np.random.default_rng(seed), seconds, tiny)
    for i, op in enumerate(ops):
        op.id = i
    return ops


# --------------------------------------------------------------------------
# oracles and checks


def decay_rates(rates, p=1.0):
    """(gamma_1, gamma_secondary) from the characteristic quadratic, solved here."""
    lam, mu, alpha, beta = rates
    mup = mu * p
    b = lam * (mup + lam + alpha + beta)
    c = mup * (lam + beta)
    disc = math.sqrt(b * b - 4.0 * lam * lam * c)
    t1 = (b + disc) / (2.0 * lam * lam)
    t2 = c / (lam * lam * t1)
    return 1.0 / t2, 1.0 / t1


def _rel(a, b):
    return abs(a - b) / abs(b)


def _params(uqtail, record):
    rates = (record["lambda"], record["mu"], record["alpha"], record["beta"])
    return uqtail.make_params(*rates, p=record["p"], C=record["C"],
                              model=uqtail.Model(record["model"]))


def _csv_rows(text):
    rows = [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")]
    return rows[0], rows[1:]


def _total_variation(empirical: dict, table) -> float:
    keys = set(empirical) | set(table.entries)
    return 0.5 * sum(abs(empirical.get(k, 0.0) - table.prob(k)) for k in keys)


class Checker:
    """Runs the output check of each op; oracle tables are built once per run."""

    def __init__(self, uqtail):
        self.u = uqtail
        self._oracles = {}

    def _oracle(self, key, build):
        if key not in self._oracles:
            self._oracles[key] = build()
        return self._oracles[key]

    def check(self, op: Op, out: Outcome) -> tuple[bool, str]:
        """(ok, detail) for an op that exited 0."""
        try:
            return getattr(self, "_" + op.verb)(op, out)
        except (ArithmeticError, ValueError, KeyError, IndexError, TypeError) as exc:
            return False, f"check could not read the output: {type(exc).__name__}: {exc}"

    # analyze ------------------------------------------------------------
    def _analyze(self, op, out):
        rec = op.params
        report = json.loads(out.stdout)
        echoed = report["meta"]["params"]
        for key in ("lambda", "mu", "alpha", "beta", "p"):
            if echoed[key] != rec[key]:
                return False, f"meta.params.{key} = {echoed[key]!r}, input {rec[key]!r}"
        rates = (rec["lambda"], rec["mu"], rec["alpha"], rec["beta"])
        gamma1, gamma2 = decay_rates(rates, rec["p"])
        t2 = report["spectral"]["t2"]
        tail = report["tail"]
        if _rel(tail["gamma"], gamma1) > 1e-9 or _rel(1.0 / t2, tail["gamma"]) > 1e-12:
            return False, (f"gamma {tail['gamma']!r}, 1/t2 {1.0 / t2!r}, "
                           f"quadratic root {gamma1!r}")
        if rec["model"] == "model2":
            ok = tail["provenance"] == "shape-only" and tail["prefactor_up"] is None
            return ok, f"shape-only tail, gamma={tail['gamma']:.12g}"
        return self._model1_tail(rec, tail, gamma1, gamma2)

    def _model1_tail(self, rec, tail, gamma1, gamma2):
        # pi(k, sigma) = pi0 R^k, and R is 2x2 with eigenvalues gamma1 and
        # gamma2, so pi(k, sigma) / gamma1^k = c(sigma) + d(sigma) rho^k exactly,
        # rho = gamma2 / gamma1.  Two levels give c(sigma), the exact prefactor,
        # also where rho^k is still large at the last level before gamma1^k
        # underflows (rho near 1 at light load).
        rho = gamma2 / gamma1
        k = min(50, int(600.0 / -math.log(gamma1)) - 1)
        table = self.u.exact_stationary_model1(_params(self.u, rec), k_max=k + 1)
        worst = 0.0
        for sigma, key in ((UP, "prefactor_up"), (DOWN, "prefactor_down")):
            a_k = table.prob((k, sigma)) / gamma1 ** k
            a_next = table.prob((k + 1, sigma)) / gamma1 ** (k + 1)
            exact = (a_next - rho * a_k) / (1.0 - rho)
            worst = max(worst, _rel(tail[key], exact))
        return worst <= 1e-3, (f"max |C / c - 1| = {worst:.3g}, c the gamma_1^k "
                               f"coefficient of pi(k) from levels {k} and {k + 1} (<=1e-3)")

    # verify -------------------------------------------------------------
    def _verify(self, op, out):
        lines = out.stdout.splitlines()
        passed = sum(line.startswith("PASS ") for line in lines)
        failed = [line for line in lines if not line.startswith("PASS ")]
        return passed > 0 and not failed, f"{passed} checks passed, {len(failed)} not"

    # tailfit ------------------------------------------------------------
    def _tailfit(self, op, out):
        rec = op.params
        fields = dict(item.split("=") for item in out.stdout.split())
        gamma_est = float(fields["gamma_est"])
        header, rows = _csv_rows(out.files["tailfit.csv"])
        if header != ["k", "pi", "model_prediction", "relative_error"] \
                or len(rows) != KMAX - KMIN + 1:
            return False, f"tailfit.csv has header {header} and {len(rows)} rows"
        rates = (rec["lambda"], rec["mu"], rec["alpha"], rec["beta"])
        if rec["model"] == "rsrd":
            exact = rec["lambda"] / (rec["mu"] * rec["p"])   # product form
            gap = abs(gamma_est - exact)
            return gap <= 1e-9, f"|gamma_est - lambda/(mu p)| = {gap:.3g} (<=1e-9)"
        gap = abs(gamma_est - decay_rates(rates)[0])
        return gap <= 2e-2, f"|gamma_est - gamma_1| = {gap:.3g} (<=2e-2)"

    # library prefactors on a 40x40 table ----------------------------------
    def _prefactors(self, op, out):
        asym, table = out.value
        rec = op.params
        lam, mu, alpha, beta = rec["lambda"], rec["mu"], rec["alpha"], rec["beta"]
        gamma1 = decay_rates((lam, mu, alpha, beta))[0]
        if _rel(asym.gamma, gamma1) > 1e-9:
            return False, f"gamma {asym.gamma!r} vs quadratic root {gamma1!r}"
        # Up/Down split has the single-queue closed form den / (2 alpha)
        sqrt_s = math.sqrt((mu - lam - beta - alpha) ** 2 + 4.0 * alpha * mu)
        split = (lam + beta - mu - alpha + sqrt_s) / (2.0 * alpha)
        split_gap = _rel(asym.prefactor_up / asym.prefactor_down, split)
        k = PREFACTOR_LEVEL
        worst = max(_rel(c * gamma1 ** k, table.prob((k, 0, sigma)))
                    for sigma, c in ((UP, asym.prefactor_up), (DOWN, asym.prefactor_down)))
        # eta is Monte Carlo with 200 samples per boundary state; at T2 its
        # relative standard error is about 0.045, so 0.15 is about 3 errors
        ok = split_gap <= 1e-10 and worst <= 0.15
        return ok, (f"split gap {split_gap:.3g} (<=1e-10), "
                    f"max |C gamma^k / pi(k,0) - 1| = {worst:.3g} at k={k} (<=0.15)")

    # simulate -------------------------------------------------------------
    def _simulate(self, op, out):
        rec = op.params
        steps = int(op.argv[op.argv.index("--steps") + 1])
        rows_written = out.lines["trajectory.csv"]
        _, rows = _csv_rows(out.files["empirical.csv"])
        empirical = {}
        for row in rows:
            state = tuple(int(v) for v in row[:-1])
            empirical[state] = float(row[-1])
        if rec["model"] == "model1":
            table = self._oracle(str(rec), lambda: self.u.exact_stationary_model1(
                _params(self.u, rec), k_max=400))
        else:
            table = self._oracle(str(rec), lambda: self.u.truncated_stationary(
                _params(self.u, rec), self.u.Model.MODEL2, x_max=60, y_max=60))
        tv = _total_variation(empirical, table)
        # criterion 10's 0.02, widened as 1/sqrt(steps) for short paths; over
        # 250 seeds of B at 1e5 steps, sqrt(steps) * distance peaked at 6.8
        tolerance = max(0.02, 16.0 / math.sqrt(steps))
        ok = rows_written == steps + 1 and tv <= tolerance
        return ok, (f"{rows_written} trajectory rows for {steps} steps, "
                    f"total variation {tv:.4f} (<={tolerance:.3g})")

    def _ldpath(self, op, out):
        rec = op.params
        fields = dict(item.split("=") for item in out.stdout.split())
        predicted = self.u.regime_prediction(_params(self.u, rec))
        level = int(op.argv[op.argv.index("--level") + 1])
        _, rows = _csv_rows(out.files["excursions.csv"])
        count = int(fields["excursions"])
        ok = (fields["predicted"] == predicted and fields["observed"] == predicted
              and count >= 1 and len(rows) == count
              and all(int(row[2]) >= level for row in rows))
        return ok, (f"predicted {fields['predicted']} (oracle {predicted}), "
                    f"observed {fields['observed']}, {count} excursions")
