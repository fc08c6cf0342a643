"""Run the CLI-output pins of `pins.json` and compare their SHA-256 digests.

    python tests/pins.py ROOT [COMMAND ...]

A pin is a verb's argv, without `--out`, and the SHA-256 of each artefact
the verb leaves: a file it writes under `--out`, or `stdout`, its printed
lines less their final newline.  With no COMMAND every verb runs in this
process through `uqtail.cli.main`; with one, such as `uqtail` (the console
script), each runs as COMMAND followed by its argv.  Each pin's artefacts
are kept under ROOT/<name>/, each `.json` one must parse as strict JSON (no
NaN or Infinity), and the driver exits 1 if any pin fails, naming the pin,
the artefact and the pinned and actual digests.  Stdlib only, so that it
runs on every Python the package supports.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path


def load() -> dict:
    """The table: `toolchain`, the versions every digest was computed under, and `pins`."""
    return json.loads(Path(__file__).with_name("pins.json").read_text())


def _versions(table: dict) -> str:
    recorded = ", ".join(f"{name} {version}" for name, version in table["toolchain"].items())
    running = ", ".join(f"{name} {platform.python_version() if name == 'python' else metadata.version(name)}"
                        for name in table["toolchain"])
    return f"digests computed under {recorded}; running {running}"


def _run(argv: list[str], command) -> tuple[int, str]:
    """The verb's exit code and what it printed to stdout; stderr passes through."""
    if command:
        done = subprocess.run([*command, *argv], stdout=subprocess.PIPE, encoding="utf-8")
        return done.returncode, done.stdout
    from uqtail.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _refuse(token):
    raise ValueError(f"non-finite token {token}")


def check(pin: dict, root: Path, table: dict, command=()) -> list[str]:
    """One line per failure of `pin`, run in process or as `command`; [] if it holds."""
    name, out = pin["name"], Path(root) / pin["name"]
    files = [artefact for artefact in pin["digests"] if artefact != "stdout"]
    out.mkdir(parents=True, exist_ok=True)
    code, stdout = _run([*pin["argv"], "--out", str(out)] if files else pin["argv"], command)
    (out / "stdout").write_text(stdout, encoding="utf-8")
    if code != 0:
        return [f"{name}: exit {code}, expected 0"]
    failures = []
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
    if failures:
        failures.append(f"{name}: {_versions(table)}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path, help="directory each pin's artefacts are kept under")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="command prefix the verbs run under, such as uqtail (default: in process)")
    args = parser.parse_args(argv)
    table = load()
    failed = 0
    for pin in table["pins"]:
        failures = check(pin, args.root, table, args.command)
        failed += bool(failures)
        for line in failures:
            print(line)
    print(f"{len(table['pins']) - failed} of {len(table['pins'])} pins hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
