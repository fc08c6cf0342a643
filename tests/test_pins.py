import os
import subprocess
import sys
from pathlib import Path

import pytest

import pins
import uqtail

TABLE = pins.load()


def pinned(verb):
    """The one pinned-output test, over the table's pins of `verb`.

    Each module binds it to the name its cases have always carried, such as
    `test_analyze_json_is_pinned`, and a case is named as its pin less "verb-".
    """
    cases = [pin for pin in TABLE["pins"] if pin["argv"][0] == verb]

    @pytest.mark.parametrize("pin", cases, ids=[pin["name"].removeprefix(f"{verb}-") for pin in cases])
    def test(pin, tmp_path):
        failures = pins.check(pin, tmp_path, TABLE)
        assert not failures, "\n".join(failures)
    return test


def test_pins_hold_without_simd_dispatch(tmp_path):
    # numpy's AVX2 and AVX-512 kernels off for the whole process: no pinned byte
    # may rest on which SIMD kernels this host dispatches to
    src = str(Path(uqtail.__file__).parents[1])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, pins.__file__, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
