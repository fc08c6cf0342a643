"""Run the CLI-output pins and refusal rows of `pins.json`.

    python tests/pins.py ROOT [COMMAND ...]

A pin is a verb's argv, without `--out`, and the SHA-256 of each artefact
the verb leaves: a file it writes under `--out`, or `stdout`, its printed
lines less their final newline.  A refusal row is a verb's argv, without
`--out`, its exit code and the one line it prints to stderr.  With no
COMMAND every verb runs in this process through `uqtail.cli.main`, where
every warning is shown, as a fresh process shows it; with one, such as
`uqtail` (the console script), each runs as COMMAND followed by its argv.
A `--params` path in an argv is relative to this file's directory.

A pin must exit 0 and print nothing to stderr, its artefacts are kept
under ROOT/<name>/, and each `.json` one must parse as strict JSON (no NaN
or Infinity).  A row must exit with its code, print its stderr line and
nothing else, print nothing to stdout and, on a verb that takes `--out`,
never create its `--out`, ROOT/<name>/.  The driver exits 1 if any pin or
row fails, naming it and what differs, and, on one more line, the toolchain
the table was computed under and the running one: the versions, and the
kernel each of numpy's and scipy's OpenBLAS runs (picked for the CPU at
load, or forced by OPENBLAS_CORETYPE).
Stdlib only, so that it runs on every Python the package supports.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import hashlib
import io
import json
import platform
import subprocess
import sys
import warnings
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).parent


def load() -> dict:
    """The table: `toolchain`, the versions every digest was computed under, `pins` and
    `refusals`."""
    return json.loads(HERE.joinpath("pins.json").read_text())


def running(table: dict) -> str:
    """The running toolchain, entry for entry as the table's `toolchain` header names it."""
    return ", ".join(f"{name} {_running(name)}" for name in table["toolchain"])


def _running(name: str) -> str:
    if name == "python":
        return platform.python_version()
    if name.endswith(" OpenBLAS core"):
        return _openblas_core(name.split()[0])
    return metadata.version(name)


@functools.cache
def _openblas_core(dist: str) -> str:
    """The kernel (such as SkylakeX) that the OpenBLAS shipped in `dist`'s wheel runs, as its
    own corename function reports it, or "none found"."""
    for file in metadata.distribution(dist).files or ():
        if "openblas" not in file.name or file.suffix not in (".so", ".dll", ".dylib"):
            continue
        try:
            library = ctypes.CDLL(str(file.locate()))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            corename = getattr(library, symbol, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return "none found"


def _versions(table: dict) -> str:
    recorded = ", ".join(f"{name} {version}" for name, version in table["toolchain"].items())
    return f"digests computed under {recorded}; running {running(table)}"


def _run(argv: list[str], command) -> tuple[int, str, str]:
    """The verb's exit code and what it printed to stdout and to stderr, where a warning
    raised in process is shown."""
    argv = [str(HERE / arg) if flag == "--params" else arg for flag, arg in zip(["", *argv], argv)]
    if command:
        done = subprocess.run([*command, *argv], capture_output=True, encoding="utf-8")
        return done.returncode, done.stdout, done.stderr
    from uqtail.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                    for w in caught)
    return code, out.getvalue(), err.getvalue() + shown


def _refuse(token):
    raise ValueError(f"non-finite token {token}")


def check(pin: dict, root: Path, table: dict, command=()) -> list[str]:
    """One line per failure of `pin` or refusal row, run in process or as `command`; [] if it
    holds."""
    name, out = pin["name"], Path(root) / pin["name"]
    failures = _check_refusal(pin, out, command) if "stderr" in pin else _check_pin(pin, out, command)
    return [*failures, f"{name}: {_versions(table)}"] if failures else []


def _check_pin(pin: dict, out: Path, command) -> list[str]:
    name = pin["name"]
    files = [artefact for artefact in pin["digests"] if artefact != "stdout"]
    out.mkdir(parents=True, exist_ok=True)
    argv = [*pin["argv"], "--out", str(out)] if files else pin["argv"]
    code, stdout, stderr = _run(argv, command)
    (out / "stdout").write_text(stdout, encoding="utf-8")
    if code != 0:
        return [f"{name}: exit {code}, expected 0; stderr {stderr!r}"]
    failures = [f"{name}: stderr {stderr!r}, expected none"] if stderr else []
    for artefact, pinned in pin["digests"].items():
        data = (out / artefact).read_bytes()
        if artefact == "stdout":
            data = data.removesuffix(b"\n")
        elif artefact.endswith(".json"):
            try:
                json.loads(data, parse_constant=_refuse)
            except ValueError as exc:
                failures.append(f"{name}: {artefact} is not strict JSON: {exc}")
        actual = hashlib.sha256(data).hexdigest()
        if actual != pinned:
            failures.append(f"{name}: {artefact} sha256 {actual}, pinned {pinned}")
    return failures


def _check_refusal(row: dict, out: Path, command) -> list[str]:
    name, argv = row["name"], row["argv"]
    if argv[0] != "verify":   # the one verb without --out
        argv = [*argv, "--out", str(out)]
    code, stdout, stderr = _run(argv, command)
    failures = [f"{name}: exit {code}, expected {row['exit']}"] if code != row["exit"] else []
    if stderr != row["stderr"] + "\n":
        failures.append(f"{name}: stderr {stderr!r}, expected the one line {row['stderr']!r}")
    if stdout:
        failures.append(f"{name}: stdout {stdout!r}, expected none")
    if out.exists():
        failures.append(f"{name}: --out {out} exists")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path, help="directory each pin's artefacts are kept under")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="command prefix the verbs run under, such as uqtail (default: in process)")
    args = parser.parse_args(argv)
    table = load()
    failed = {"pins": 0, "refusals": 0}
    for kind in failed:
        for pin in table[kind]:
            failures = check(pin, args.root, table, args.command)
            failed[kind] += bool(failures)
            for line in failures:
                print(line)
    print(" and ".join(f"{len(table[kind]) - n} of {len(table[kind])} {kind}"
                       for kind, n in failed.items()) + " hold")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
