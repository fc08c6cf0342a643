import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pins
import uqtail

TABLE = pins.load()
ROWS = {row["name"]: row for row in TABLE["refusals"]}
_bound = set()


def pinned(verb):
    """The one pinned-output test, over the table's pins of `verb`.

    Each module binds it to the name its cases have always carried, such as
    `test_analyze_json_is_pinned`, and a case is named as its pin less "verb-".
    """
    cases = [pin for pin in TABLE["pins"] if pin["argv"][0] == verb]

    @pytest.mark.parametrize("pin", cases, ids=[pin["name"].removeprefix(f"{verb}-") for pin in cases])
    def test(pin, tmp_path):
        _holds(pin, tmp_path)
    return test


def refused(cases=None, keep=()):
    """The one refusal test, over the table's refusal rows.

    A module binds it to the name a refusal's cases have always carried, with
    `cases` mapping each case id to its row's name, or naming the one row of a
    test that had one case.  With no `cases` it runs, each under its own name,
    every row that no earlier binding runs, and the rows `keep` names, which
    it ran under their own names before a binding took them.
    """
    if isinstance(cases, str):
        _bound.add(cases)
        return lambda tmp_path: _holds(ROWS[cases], tmp_path)
    cases = cases or {name: name for name in ROWS if name not in _bound or name in keep}
    _bound.update(cases.values())

    @pytest.mark.parametrize("name", list(cases.values()), ids=list(cases))
    def test(name, tmp_path):
        _holds(ROWS[name], tmp_path)
    return test


def _holds(pin, root):
    failures = pins.check(pin, root, TABLE)
    assert not failures, "\n".join(failures)


def test_pins_hold_without_simd_dispatch(tmp_path):
    # numpy's AVX2 and AVX-512 kernels off for the whole process: no pinned byte
    # may rest on which SIMD kernels this host dispatches to
    src = str(Path(uqtail.__file__).parents[1])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, pins.__file__, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr


def test_readme_refusals_are_rows():
    # every complete refusal the README quotes: a backticked span, joined across line
    # breaks, with a documented prefix and no "..." or "<C>" placeholder ("lambda < mu p" is
    # no placeholder)
    readme = (pins.HERE.parent / "README.md").read_text()
    section = readme.split("\n### Refusals\n", 1)[1].split("\n#", 1)[0]
    quoted = {" ".join(span.split()) for span in re.findall(r"`([^`]*)`", section)}
    prefixes = ("validation error: ", "verification failure: ")
    lines = {line for line in quoted if line.startswith(prefixes)
             and "..." not in line and not re.search(r"<\w+>", line)}
    assert lines
    assert lines - {row["stderr"] for row in ROWS.values()} == set()


def test_each_row_line_is_written_once():
    # a row's line is data in pins.json alone: no test or CI file repeats it (README's
    # quotes are tied to the rows by test_readme_refusals_are_rows)
    root = pins.HERE.parent
    files = [path for path in [*pins.HERE.rglob("*"), *root.joinpath(".github").rglob("*")]
             if path.is_file() and path.name != "pins.json" and "__pycache__" not in path.parts]
    texts = {str(path.relative_to(root)): path.read_text(errors="replace") for path in files}
    assert [(file, name) for file, text in texts.items()
            for name, row in ROWS.items() if row["stderr"] in text] == []
