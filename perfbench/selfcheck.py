"""Self-check of the benchmark: every workload at tiny size, traced and untraced.

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json keeps to its schema, that each run prints as its
last line a result whose metrics are exactly the end-to-end metrics (trace 0)
or the per-layer metrics (trace 1), each with its declared unit, and that the
benchmark refuses to run, without printing a result, in a directory that holds
only BENCHMARK.json and the benchmark's own files.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_spec(spec: dict) -> list[str]:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    names = []
    for w in spec["workloads"]:
        names.append(w["name"])
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w['name']}: needs exactly name and a one-line why")
    for m in spec["end_to_end"] + spec["per_layer"]:
        names.append(m["name"])
        if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("lower", "higher"):
            problems.append(f"metric {m['name']}: bad unit or better")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"end-to-end metric {m['name']}: needs a bound in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" \
            or setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must be in seconds, lower is better, with the largest bound")
    problems += [f"bad or repeated name {n}" for n in names
                 if not NAME.fullmatch(n) or names.count(n) > 1]
    if not 2 <= len(spec["workloads"]) <= 8 or not 1 <= spec["run_seconds"] <= 60:
        problems.append("2 to 8 workloads and run_seconds from 1 to 60")
    return problems


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc, declared: dict) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append(f"missing {sorted(set(declared) - set(metrics))}, "
                        f"undeclared {sorted(set(metrics) - set(declared))}")
    for name, m in metrics.items():
        value = m["value"]
        if name in declared and m["unit"] != declared[name]:
            problems.append(f"{name}: unit {m['unit']}, declared {declared[name]}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_spec(spec)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            found = check_result(run(ROOT, w["name"], trace), declared)
            problems += [f"{w['name']} trace={trace}: {p}" for p in found]
            print(f"{w['name']} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)

    stripped = ROOT / ".perfbench_out" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, stripped / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(stripped, spec["workloads"][0]["name"], 0)
    shutil.rmtree(stripped)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without the sources the benchmark must fail and print nothing")
    print(f"stripped checkout: exit {proc.returncode}")

    for p in problems:
        print("PROBLEM", p)
    print("self-check", "passed" if not problems else "FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
