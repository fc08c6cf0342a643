"""Span tracing of uqtail's layers from outside the package.

Every public function of each layer module, and ``Trajectory.to_csv``, is
replaced by a wrapper that records a span: name, start, end, parent span and
op id.  ``from .twist import twisted_kernel`` copies the function into the
importing module, so the wrapper is installed in every ``uqtail.*`` namespace
that binds the original.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

LAYERS = ("params", "kernels", "spectral", "twist", "qbd", "asymptotics",
          "simulate", "verify", "cli")

# return-value details kept for the per-layer metrics, by span name
PROBES = {
    "asymptotics.escape_probabilities": lambda args, res: {"x_max_used": res.x_max_used},
    "asymptotics.eta": lambda args, res: {"std_error": res.std_error},
    "qbd.truncated_stationary": lambda args, res: {"x_max": args["x_max"],
                                                   "unknowns": len(res.entries)},
    "qbd.rate_matrix_iterate": lambda args, res: {"iterations": res.iterations},
    "simulate.simulate": lambda args, res: {"steps": res.steps},
}

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Records spans while installed; ``only`` limits the wrapped span names."""

    def __init__(self, only: tuple[str, ...] | None = None):
        self.only = only          # span names to wrap; None wraps every layer
        self.spans = []           # [name, start, end, parent index, op id]
        self.info = {}            # span index -> PROBES record
        self.op_id = -1
        self._stack = []
        self._patches = None

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, self.info
        probe = PROBES.get(name)
        signature = inspect.signature(fn) if probe else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op_id]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if probe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                info[index] = probe(bound.arguments, result)
            return result

        return traced

    def _find_patches(self):
        """(owner, attribute, original, wrapper) for every binding to replace."""
        modules = {layer: sys.modules[f"uqtail.{layer}"] for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")
                        and (self.only is None or name in self.only)):
                    wrapped[obj] = self._wrap(name, obj)
        patches = []
        for module_name, module in sys.modules.items():
            if module_name == "uqtail" or module_name.startswith("uqtail."):
                for attr, obj in vars(module).items():
                    if inspect.isfunction(obj) and obj in wrapped:
                        patches.append((module, attr, obj, wrapped[obj]))
        name = "simulate.Trajectory.to_csv"
        if self.only is None or name in self.only:
            cls = modules["simulate"].Trajectory
            patches.append((cls, "to_csv", cls.to_csv, self._wrap(name, cls.to_csv)))
        return patches

    def install(self) -> None:
        if self._patches is None:
            self._patches = self._find_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches or ():
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{op}\n")

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of a traced run: (value, unit) by name."""
    spans, info = tracer.spans, tracer.info
    calls, own, layer_s = {}, {}, dict.fromkeys(LAYERS, 0.0)
    for span, t in zip(spans, tracer.self_times()):
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + t
        layer_s[name.split(".")[0]] += t

    def probed(name, key):
        return [info[i][key] for i, s in enumerate(spans) if s[NAME] == name and i in info]

    out = {f"{name}.calls": (calls.get(name, 0), "count") for name in (
        "asymptotics.escape_probabilities", "asymptotics.eta", "qbd.truncated_stationary",
        "twist.harmonic", "twist.twisted_kernel")}
    out.update({f"{name}.self_ms": (own.get(name, 0.0) * 1e3, "ms") for name in (
        "asymptotics.escape_probabilities", "asymptotics.eta", "asymptotics.prefactors",
        "asymptotics.rs_rd_stationary", "asymptotics.tail_fit", "qbd.truncated_stationary",
        "qbd.exact_stationary_model1", "qbd.rate_matrix_iterate", "simulate.simulate",
        "simulate.empirical_distribution", "simulate.ld_excursions",
        "simulate.Trajectory.to_csv")})
    out.update({f"{layer}.self_ms": (layer_s[layer] * 1e3, "ms") for layer in LAYERS})

    lattice_ms = {}
    for i, s in enumerate(spans):
        if s[NAME] == "qbd.truncated_stationary" and i in info:
            lattice_ms.setdefault(info[i]["x_max"], []).append((s[END] - s[START]) * 1e3)
    for x in (40, 60, 120):
        times = lattice_ms.get(x)
        out[f"qbd.truncated_stationary.x{x}_ms"] = (statistics.median(times) if times else 0.0, "ms")

    steps = sum(probed("simulate.simulate", "steps"))
    sampling = sum(s[END] - s[START] for s in spans if s[NAME] == "simulate.simulate")
    out.update({
        "asymptotics.escape_probabilities.x_max_used":
            (sum(probed("asymptotics.escape_probabilities", "x_max_used")), "levels"),
        "asymptotics.eta.std_error":
            (max(probed("asymptotics.eta", "std_error"), default=0.0), "1"),
        "qbd.truncated_stationary.unknowns":
            (sum(probed("qbd.truncated_stationary", "unknowns")), "count"),
        "qbd.rate_matrix_iterate.iterations":
            (sum(probed("qbd.rate_matrix_iterate", "iterations")), "count"),
        # a row is a kernels call that no other kernels call made
        "kernels.rows": (sum(1 for s in spans if s[NAME].startswith("kernels.")
                             and (s[PARENT] < 0
                                  or not spans[s[PARENT]][NAME].startswith("kernels."))),
                         "count"),
        "spectral.calls": (sum(n for k, n in calls.items() if k.startswith("spectral.")),
                           "count"),
        "simulate.simulate.steps": (steps, "count"),
        "simulate.simulate.ns_per_step": (sampling * 1e9 / steps if steps else 0.0, "ns"),
        "trace.spans": (len(spans), "count"),
    })
    return out
