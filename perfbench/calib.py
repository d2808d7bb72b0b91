"""Host-speed calibration: a fixed pure-Python loop timed next to each process.

The host lends this benchmark a few cores of a shared machine, and how
fast a core runs moves by up to half within seconds as neighbours come
and go.  The driver therefore times :func:`calibrate` on the same core
right before and right after every timed process (and the compute
process times it after each cell), and reports each time scaled to the
reference speed: ``seconds * CAL_REF_S / mean(calibration seconds)``.
A change to the program cannot move the loop, so the scaling removes
the host's drift and keeps every change the program makes.
"""

from __future__ import annotations

import time

__all__ = ["CAL_LOOPS", "CAL_REF_S", "calibrate", "scale"]

#: Iterations of the calibration loop.
CAL_LOOPS = 300_000
#: Seconds the loop takes on an unloaded core of the reference host (a
#: 2-vCPU Intel Xeon at 2.0 GHz, CPython 3); scaled times read in
#: seconds of that host.
CAL_REF_S = 0.022


def calibrate() -> float:
    """Seconds the fixed loop takes on this core now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def scale(seconds: float, cals: list[float]) -> float:
    """*seconds* at the reference speed, given calibrations taken around them."""
    return seconds * CAL_REF_S * len(cals) / sum(cals)
