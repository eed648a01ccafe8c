"""Timing at a reference machine speed.

The reference machine (2 cores, shared with other tenants) swings in
CPU speed by up to 1.6x over tens of milliseconds to minutes; raw
medians of whole runs moved by ~20% between runs. ``timed`` therefore
samples the speed of a fixed probe loop while the timed call runs: once
before, once after, and every SAMPLE_PERIOD_S in between from a SIGALRM
handler (the handler runs between bytecodes of the main thread). The
probes' own time is taken out of the measurement, and the rest is scaled
by PROBE_REF_S / mean(probe time): seconds on a machine where the probe
takes PROBE_REF_S. The probe is benchmark code that no change to sliphop
can speed up or slow down.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass

PROBE_STEPS = 5000
PROBE_REF_S = 0.0025
SAMPLE_PERIOD_S = 0.1


def _probe_loop(n: int = PROBE_STEPS) -> float:
    # Euler steps of the polar stance equations: the float arithmetic and
    # math calls of the RK4 kernel.
    r, dr, th, dth = 0.2, -1.0, 0.1, -5.0
    h = 1e-5
    for _ in range(n):
        a = r * dth * dth - 1212.0 * (r - 0.2) - 6.06 * dr \
            - 9.81 * math.cos(th)
        b = -2.0 * dr * dth / r + 9.81 / r * math.sin(th)
        r, dr, th, dth = r + h * dr, dr + h * a, th + h * dth, dth + h * b
    return r


def probe_s() -> float:
    t = time.perf_counter()
    _probe_loop()
    return time.perf_counter() - t


@dataclass
class Timing:
    raw_s: float      # wall time of the call, probes taken out
    scaled_s: float   # raw_s at reference speed
    share: float      # raw_s over the call's wall time with probes in


def timed(fn):
    """(fn(), Timing)."""
    probes = [probe_s()]
    inside = [0.0]

    def on_alarm(signum, frame):
        d = probe_s()
        probes.append(d)
        inside[0] += d

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    try:
        t = time.perf_counter()
        result = fn()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        total = time.perf_counter() - t
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    probes.append(probe_s())
    raw = total - inside[0]
    return result, Timing(raw, raw * PROBE_REF_S / statistics.fmean(probes),
                          raw / total)
