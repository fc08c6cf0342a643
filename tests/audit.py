"""Audit corpora, each printing what it measures of the package.

    PYTHONPATH=src python tests/audit.py [NAME ...]

With no NAME every corpus runs.  The one corpus so far:

- `reach`: every pin and refusal row of `pins.json`, run in this process
  through `uqtail.cli.main` under a `sys.setprofile` hook, and then each
  function defined in the package's source that none of them called, with
  its line count.  A function defined under a decorator counts from the
  decorator's line, as its code object does.

Pytest does not collect this file (it is not `test_*.py`), and it uses the
standard library, the package and `pins.py` only.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import sys
import tempfile
from pathlib import Path

import pins


def _functions(package: Path) -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line) -> (file:qualified name, line count) of every function the package's
    source defines, methods and nested functions included."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                name = f"{prefix}{child.name}"
                found[str(path), first] = (f"{path.name}:{name}", child.end_lineno - first + 1)
                walk(child, path, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path.resolve(), "")
    return found


def reach() -> None:
    package = Path(importlib.util.find_spec("uqtail").submodule_search_locations[0]).resolve()
    functions = _functions(package)
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    table = pins.load()
    with tempfile.TemporaryDirectory() as root:
        sys.setprofile(hook)   # before the first import of the package, which runs under it
        try:
            failed = sum(bool(pins.check(pin, Path(root), table))
                         for kind in ("pins", "refusals") for pin in table[kind])
        finally:
            sys.setprofile(None)
    reached = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in called}
    unreached = sorted(value for key, value in functions.items() if key not in reached)
    for name, lines in unreached:
        print(f"unreached: {name} ({lines} lines)")
    runs = len(table["pins"]) + len(table["refusals"])
    print(f"reach: {len(unreached)} of {len(functions)} functions in {package.name}/ "
          f"({sum(lines for _, lines in unreached)} lines) are called by none of "
          f"{len(table['pins'])} pins and {len(table['refusals'])} refusal rows "
          f"({failed} of {runs} failed)")


CORPORA = {"reach": reach}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"corpora to run: {', '.join(CORPORA)} (default: all)")
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in CORPORA]
    if unknown:
        parser.error(f"unknown corpus {', '.join(unknown)}; known: {', '.join(CORPORA)}")
    for name in args.names or CORPORA:
        CORPORA[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
