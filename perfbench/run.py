"""uqtail benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload m1-analyze --seed 1 --seconds 15 --trace 0

Each op starts when the previous one returns, like a researcher's sweep
script.  With ``--trace 0`` the run reports the end-to-end metrics, each time
stated at a fixed reference speed of the host (see calibrate.py); with
``--trace 1`` it runs each op untraced and traced, back to back, and reports
the per-layer metrics of the traced executions and the tracing overhead.  The last
line of standard output is one JSON object; the lines before it are a
readable summary, and the full record (inputs, every op, environment) goes to
``.perfbench_out/`` in the checkout.  Workload notes: perfbench/WORKLOADS.md.
"""

from __future__ import annotations

import os

# pin the BLAS/OpenMP pools to one thread before numpy is imported anywhere
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
LARGE_FILES = ("trajectory.csv",)   # counted, not kept

# a fresh interpreter pays this on every CLI call: import, then build the inputs
SETUP_SNIPPET = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import uqtail.cli
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]), int(sys.argv[5]), sys.argv[6] == "1")
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_uqtail():
    if not (SRC / "uqtail" / "__init__.py").is_file():
        fail(f"no uqtail sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import uqtail
    import uqtail.cli
    if Path(uqtail.__file__).resolve().parent != SRC / "uqtail":
        fail(f"imported uqtail from {uqtail.__file__}, not from {SRC}")
    return uqtail


def environment(uqtail) -> dict:
    import numpy
    import scipy
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "uqtail").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "uqtail": uqtail.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def measure_setup(args) -> list[float]:
    """Wall seconds of fresh interpreters that import uqtail.cli and build the inputs.

    Not scaled to reference speed: a reading of the reference kernel just
    after a child interpreter exits runs on cold caches and spreads more than
    the set-up times themselves.
    """
    argv = [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(HERE), args.workload,
            str(args.seed), str(args.seconds), "1" if args.tiny else "0"]
    samples = []
    for _ in range(2 if args.tiny else SETUP_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            fail(f"set-up interpreter exited {done.returncode}: {done.stderr.decode()[-400:]}")
    return samples


def _collect(out_dir: Path, outcome) -> None:
    if not out_dir.is_dir():
        return
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        outcome.bytes_out += len(data)
        if path.name in LARGE_FILES:
            lines = data.splitlines()
            comments = sum(1 for line in lines[:64] if line.startswith(b"#"))
            outcome.lines[path.name] = len(lines) - comments - 1
        else:
            outcome.files[path.name] = data.decode()
    shutil.rmtree(out_dir)


def run_op(uqtail, op, scratch: Path):
    """Run one op; time only the call into uqtail.

    The garbage of earlier ops is collected first, untimed, so that an op
    does not pay for the collections its predecessors made due.
    """
    gc.collect()
    if op.verb == "prefactors":
        model = uqtail.Model.MODEL2
        start = time.perf_counter()
        try:
            params = uqtail.make_params(op.params["lambda"], op.params["mu"],
                                        op.params["alpha"], op.params["beta"], model=model)
            table = uqtail.truncated_stationary(params, model, x_max=40, y_max=40)
            value = (uqtail.prefactors(params, model, table=table, seed=op.seed), table)
            code, error = 0, ""
        except Exception:
            value, code, error = None, None, traceback.format_exc(limit=3)
        return workloads.Outcome(exit=code, seconds=time.perf_counter() - start,
                                 value=value, error=error)
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = list(op.argv)
    out_dir = scratch / str(op.id)
    if op.verb != "verify":
        argv += ["--out", str(out_dir)]
    cli = sys.modules["uqtail.cli"]
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code, error = None, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    outcome = workloads.Outcome(exit=code, seconds=seconds, stdout=stdout.getvalue(),
                                stderr=stderr.getvalue(), error=error)
    outcome.bytes_out = len(outcome.stdout.encode())
    _collect(out_dir, outcome)
    return outcome


def run_passes(uqtail, ops, scratch: Path, reference):
    """Closed loop over every op, then again over the ops not marked ``once``.

    The reference kernel runs between ops, and each execution's time is also
    stated at reference speed (calibrate.scale).  The machine's speed drifts
    over seconds, so an op not marked ``once`` keeps the faster of two
    executions about half a run apart.  Returns (op, outcome) per execution,
    the loop's wall seconds and the kernel's readings as (time, seconds).
    """
    clock = time.perf_counter
    start = clock()
    runs, spans_s, readings = [], [], [(clock(), reference.measure())]
    for op in ops + [op for op in ops if not op.once]:
        begin = clock()
        outcome = run_op(uqtail, op, scratch)
        spans_s.append((begin, begin + outcome.seconds))
        readings.append((clock(), reference.measure()))
        runs.append((op, outcome))
    for (_, outcome), (begin, end) in zip(runs, spans_s):
        outcome.ref_seconds = outcome.seconds * calibrate.scale(readings, begin, end)
    return runs, clock() - start, readings


def run_paired(uqtail, ops, scratch: Path, tracer):
    """Each op untraced and traced, back to back, alternating which goes first;
    ops marked ``once`` traced only.  Returns (op, outcome) lists: (plain, traced).
    """
    plain, traced = [], []
    for op in ops:
        order = (True,) if op.once else (False, True) if op.id % 2 == 0 else (True, False)
        for with_trace in order:
            if with_trace:
                tracer.op_id = op.id
                tracer.install()
            try:
                outcome = run_op(uqtail, op, scratch)
            finally:
                tracer.uninstall()
            (traced if with_trace else plain).append((op, outcome))
    return plain, traced


def judge(checker, runs) -> list[dict]:
    """Status of each execution: ok, known-failure, wrong-output or error."""
    records = []
    for op, out in runs:
        if out.exit == 0:
            ok, detail = checker.check(op, out)
            status = "ok" if ok else "wrong-output"
            if ok and op.expect_exit:
                detail += f"; listed as a known failure (exit {op.expect_exit}) but passed"
        elif out.exit is not None and out.exit == op.expect_exit:
            status, detail = "known-failure", f"exit {out.exit}: {out.stderr.strip()}"
        else:
            status = "error"
            detail = f"exit {out.exit}: {(out.stderr + out.error).strip()[-400:]}"
        records.append({"id": op.id, "stratum": op.stratum, "verb": op.verb,
                        "argv": op.argv, "params": op.params, "seed": op.seed,
                        "expect_exit": op.expect_exit, "exit": out.exit,
                        "ms": out.seconds * 1e3,
                        "ref_ms": None if out.ref_seconds is None else out.ref_seconds * 1e3,
                        "bytes_out": out.bytes_out,
                        "status": status, "detail": detail})
    return records


def tail_latency(latencies_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond): the highest percentile with ten ops beyond it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    index = max(0, n - 11)
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def end_to_end(records, setup_samples, peak_rss_mb):
    """(metrics listed in BENCHMARK.json, further details) of the untraced loop.

    An op's latency is its fastest execution at reference speed; the details
    give the measured figures too.
    """
    best, best_raw = {}, {}
    for r in records:
        best[r["id"]] = min(best.get(r["id"], math.inf), r["ref_ms"])
        best_raw[r["id"]] = min(best_raw.get(r["id"], math.inf), r["ms"])
    latencies = list(best.values())
    n = len(records)
    ok = sum(r["status"] == "ok" for r in records)
    tail, pct, beyond = tail_latency(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_tail_ms": (tail, "ms"),
        "ops_per_s": (1e3 * len(latencies) / sum(latencies), "1/s"),
        "ok_rate": (ok / n, "1"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {"fail_rate": ((n - ok) / n, "1"),
             "op_tail_percentile": (pct, "%"),
             "op_tail_beyond": (beyond, "count"),
             "measured_op_p50_ms": (statistics.median(best_raw.values()), "ms"),
             "measured_op_tail_ms": (tail_latency(list(best_raw.values()))[0], "ms"),
             "ops": (len(latencies), "count"),
             "executions": (n, "count")}
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the self-check")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    uqtail = import_uqtail()
    env = environment(uqtail)
    ops = workloads.build(args.workload, args.seed, args.seconds, args.tiny)
    scratch = OUT / f"ops-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    reference = None if args.trace else calibrate.Reference()
    if args.trace:
        tracer = spans.Tracer()
        plain, traced = run_paired(uqtail, ops, scratch, tracer)
        runs = plain + traced
        metrics = spans.layer_metrics(tracer)
        metrics["cli.bytes_out"] = (sum(out.bytes_out for _, out in traced), "bytes")
        paired = sum(out.seconds for op, out in traced if not op.once)
        metrics["trace.overhead_frac"] = (
            paired / sum(out.seconds for _, out in plain) - 1.0, "1")
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.csv")
    else:
        setup_samples = measure_setup(args)
        sim_timer = None
        if args.workload == "simulate":
            # one timer around simulate(): steps per second inside the sampler
            sim_timer = spans.Tracer(only=("simulate.simulate",))
            sim_timer.install()
        runs, wall, readings = run_passes(uqtail, ops, scratch, reference)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if sim_timer is not None:
            sim_timer.uninstall()
    shutil.rmtree(scratch, ignore_errors=True)

    checker = workloads.Checker(uqtail)
    records = judge(checker, runs)
    extra = {}
    if not args.trace:
        metrics, extra = end_to_end(records, setup_samples, peak_rss_mb)
        if sim_timer is not None:
            steps = sum(info["steps"] for info in sim_timer.info.values())
            busy = sum(s[spans.END] - s[spans.START] for s in sim_timer.spans)
            extra["sim_steps_per_s"] = (steps / busy, "1/s")
        extra["loop_wall_s"] = (wall, "s")
        extra["reference_kernel_p50_ms"] = (
            statistics.median(r for _, r in readings) * 1e3, "ms")
    unexpected = sum(r["status"] not in ("ok", "known-failure") for r in records)

    def as_json(table):
        return {k: {"value": v, "unit": u} for k, (v, u) in table.items()}

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "environment": env,
              "metrics": as_json(metrics), "details": as_json(extra),
              "setup_samples_s": None if args.trace else setup_samples,
              "reference_kernel_s": None if args.trace else [r for _, r in readings],
              "ops": records}
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} commit={env['commit']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} nproc={env['nproc']}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    for r in records:
        if r["status"] != "ok":
            print(f"  op {r['id']} [{r['stratum']}] {r['status']}: {r['detail'][:160]}")
    print(f"  full record: {(OUT / f'{tag}.json').relative_to(ROOT)}")
    print(json.dumps({"correct": unexpected == 0, "attempted": len(records),
                      "failed": unexpected, "metrics": as_json(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
