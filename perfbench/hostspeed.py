"""Host-speed scaling of the benchmark's timings.

A shared host can change speed by up to about 2x from one second to the
next, and every pure-Python loop slows by the same share. Wall-clock times
of one run then depend on how much of the run fell in slow spells. So
right before and right after every timed operation the benchmark times a
fixed reference loop of its own, which calls nothing in the package, and
scales the operation's time by ``REFERENCE_S`` over the mean of those two
reference times. A scaled time reads as the operation's time on a host
where the reference loop takes exactly ``REFERENCE_S``. A change to the
package moves it by the same share as it moves wall-clock time, while the
host's drift cancels out.
"""

from __future__ import annotations

import gc
from contextlib import nullcontext
from time import perf_counter

REFERENCE_S = 1e-3
_LOOP_KEYS = 1009
_LOOP_ITERATIONS = 2500


def reference_loop() -> float:
    """Seconds taken by a fixed mix of dict, tuple, call and sort work.
    The collector is off inside, so a collection owed by the package's
    allocations is not charged to the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table: dict = {}
        for i in range(_LOOP_ITERATIONS):
            key = (i * 7919) % _LOOP_KEYS
            table[key] = table.get(key, 0) + i
        items = sorted(table.items(), key=lambda kv: (kv[1] % 97, kv[0]))
        total = 0
        for key, value in items:
            total += len(str(value)) + (key ^ value) % 13
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def timed(fn, context=None):
    """Calls ``fn()`` inside ``context`` (a trace span, say), between two
    reference loops that stay outside it. Returns its result, its
    wall-clock seconds and its seconds scaled to the reference speed; an
    exception from ``fn`` propagates."""
    before = reference_loop()
    with context or nullcontext():
        start = perf_counter()
        result = fn()
        seconds = perf_counter() - start
    after = reference_loop()
    return result, seconds, seconds * 2 * REFERENCE_S / (before + after)
