"""How fast the machine runs right now, from a short fixed probe.

The benchmark's host changes CPU speed by up to 1.6x in phases of about
a second (other tenants of the machine), and a whole run can fall into
a slow stretch.  Timing the same few milliseconds of pure-Python work
right before and right after an operation tells how fast the machine
ran meanwhile; an operation's time at the reference speed is its wall
time times that speed (see README.md, "Noise").
"""

from __future__ import annotations

import time

# Time of one probe loop when the machine runs at its usual fast speed
# (2 GHz guest, Python 3.11).  It only scales the reported times.
REFERENCE_PROBE_S = 0.00105


def _loop() -> None:
    total = 0
    for i in range(15_000):
        total += i * i


def probe() -> float:
    """Fastest of three ~1 ms loops: short interruptions do not count."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


def timed(fn):
    """Run ``fn``; return its result and [wall seconds, speed]."""
    before = probe()
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    return result, [seconds, 2 * REFERENCE_PROBE_S / (before + probe())]
