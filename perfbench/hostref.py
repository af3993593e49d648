"""Host-speed reference: a fixed pure-Python loop that imports nothing from sedan.

The shared host's speed drifts by up to 2x over seconds, in CPU time as much
as in wall time, while two adjacent 10 ms slices of the same loop agree within
a few percent. Each timed repetition is bracketed by this loop and its time is
rescaled to a host on which one slice takes ``NOMINAL_MS``.

sedan's time does not move in proportion: log-log fits of verdict or pass
time against slice time on a 2-core host gave slopes from 0.57 (recursion)
to 0.87 (inequality), mostly about 0.8, because the loop is hit harder than
sedan when the host slows. The rescaling uses that power.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

NOMINAL_MS = 10.0
SLICES = 3
SENSITIVITY = 0.8


class _Node:
    __slots__ = ("head", "tail")

    def __init__(self, head, tail):
        self.head = head
        self.tail = tail


def _walk(node, depth):
    if node is None or depth == 0:
        return 0
    return 1 + _walk(node.tail, depth - 1)


def _slice() -> int:
    """About 10 ms of dict, tuple, object, recursion and Fraction work."""
    table: dict = {}
    chain = None
    acc = 0
    for i in range(12000):
        key = i & 127
        table[key] = (i, key * 3, str(key))
        acc += table[key][1]
        if isinstance(table[key][2], str):
            acc += 1
        chain = _Node(key, chain if key else None)
        if key == 127:
            acc += _walk(chain, 200)
    frac = Fraction(0)
    for i in range(1, 300):
        frac += Fraction(1, i)
    return acc + frac.denominator % 7


def host_ref_ms() -> float:
    """Median time of a few slices of the reference loop, in milliseconds."""
    times = []
    for _ in range(SLICES):
        start = time.perf_counter()
        _slice()
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def scale(raw: float, ref_before_ms: float, ref_after_ms: float) -> float:
    """Express a raw duration at the nominal host speed."""
    return raw * (NOMINAL_MS / ((ref_before_ms + ref_after_ms) / 2.0)) ** SENSITIVITY

