"""Host speed reference: a fixed loop timed around every measurement.

The reference box's vCPUs change speed by up to 1.6x over tens of seconds,
so a raw time says as much about the host as about navstream.  Each
measured call runs between two reference loops, and its time is scaled by
``NOMINAL_S`` over their mean: the result reads as seconds at the host's
usual fast speed.  See DESIGN.md ("Noise") for the measurements.
"""

from __future__ import annotations

import gc
import time

LOOPS = 200_000
# The loop's time when the reference box (2-vCPU VM, Python 3.11) runs at
# its usual fast speed.
NOMINAL_S = 0.065


def reference_seconds():
    """Time the fixed dict-and-float loop: the host's speed right now.

    Garbage collection is off while it runs, so its time does not depend on
    how many objects the caller keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for i in range(LOOPS):
            key = (i & 1023, i % 7)
            table[key] = table.get(key, 0.0) + i * 0.5
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(fn, refs):
    """Run ``fn`` between two reference loops.

    Returns ``(result, raw seconds, scale)``; raw seconds times scale is the
    time at the nominal host speed.  Both reference times are appended to
    ``refs``.
    """
    before = reference_seconds()
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    after = reference_seconds()
    refs += [before, after]
    return result, raw, NOMINAL_S / ((before + after) / 2)
