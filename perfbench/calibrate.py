"""A fixed reference kernel that measures how fast the host runs right now.

The host's speed drifts by up to 2x over seconds to minutes, whatever the
benchmark does, and a drift that lasts minutes moves a whole run.  So the
benchmark times this kernel between ops and states each op's latency at a
fixed reference speed:

    latency = measured * NOMINAL_S / median(kernel readings near the op)

"Near" is the op's own interval widened by its duration on each side.  For
an op of 0.1 s that is the reading just before and just after it; an op of
several seconds, which no reading sees inside, takes the readings of the
seconds around it.

The kernel mixes the kinds of work uqtail does: a pure-Python loop, small
dense numpy solves, a SuperLU factorisation of a sparse 2-D lattice matrix,
CSV rows formatted from numpy scalars into a string buffer, and many numpy
calls on 2x2 arrays, as in the closed forms.  Its time is the geometric mean
of the five parts.  The kernel allocates little, so it does not raise the
peak memory the benchmark reports.  It never calls uqtail, so a change to
uqtail moves the scaled latency as much as the raw one.
"""

from __future__ import annotations

import io
import math
import statistics
import time

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

# kernel time, in seconds, that defines the reference speed; on the 2-core
# x86 VM the baseline was measured on, the kernel reads between 2.5 and 5 ms
NOMINAL_S = 3e-3

_SIDE = 30


def _python_part() -> int:
    total = 0
    for i in range(30_000):
        total += i * i % 7
    return total


class Reference:
    """The reference kernel; ``measure()`` returns its time in seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._dense = rng.standard_normal((_SIDE, _SIDE)) + _SIDE * np.eye(_SIDE)
        line = sparse.diags([np.full(_SIDE - 1, -1.0), np.full(_SIDE, 2.0),
                             np.full(_SIDE - 1, -1.0)], [-1, 0, 1])
        eye = sparse.eye(_SIDE)
        self._lattice = (sparse.kron(line, eye) + sparse.kron(eye, line)
                         + 0.01 * sparse.eye(_SIDE * _SIDE)).tocsc()
        self._rhs = np.ones(_SIDE * _SIDE)
        self._column = rng.integers(0, 50, 2000).astype(np.int32)
        for _ in range(3):
            self.measure()

    def _dense_part(self) -> None:
        x = np.ones(_SIDE)
        for _ in range(100):
            x = np.linalg.solve(self._dense, x) + 0.1

    def _sparse_part(self) -> None:
        sparse_linalg.splu(self._lattice).solve(self._rhs)

    def _format_part(self) -> int:
        out = io.StringIO()
        column = self._column
        for i in range(len(column)):
            out.write(f"{i},{column[i]}\n")
        return len(out.getvalue())

    @staticmethod
    def _calls_part() -> float:
        total = 0.0
        for i in range(250):
            block = np.array([[1.0 + i % 7, 0.5], [0.25, 2.0]])
            total += float(np.linalg.eigvals(block).real.max())
            total += math.sqrt(abs(float(np.dot(block[0], block[1]))))
        return total

    def measure(self) -> float:
        clock = time.perf_counter
        parts = []
        for part in (_python_part, self._dense_part, self._sparse_part,
                     self._format_part, self._calls_part):
            start = clock()
            part()
            parts.append(clock() - start)
        return math.prod(parts) ** (1.0 / len(parts))


def scale(readings: list[tuple[float, float]], begin: float, end: float) -> float:
    """Factor that turns the time of an op run from ``begin`` to ``end`` into
    reference-speed time.

    ``readings`` are (clock, kernel seconds) pairs in clock order, with one
    taken just before ``begin`` and one just after ``end``.
    """
    width = end - begin
    near = [r for t, r in readings if begin - width <= t <= end + width]
    if len(near) < 2:   # the neighbours, however long the kernel took
        i = next(i for i, (t, _) in enumerate(readings) if t > end)
        near = [readings[i - 1][1], readings[i][1]]
    return NOMINAL_S / statistics.median(near)
