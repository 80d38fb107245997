"""Machine-speed correction for times measured on a shared host.

On a host shared with other tenants the same work can take half again as
long when the neighbours are busy, in spells of seconds to minutes.  A run
cannot average that away, so every timed interval here is sampled with a
fixed probe whose own duration tracks how fast the machine runs at that
moment: a short pure-Python loop.  The probe runs inside the timed process,
on the same CPU and at the same moments as the work.  Its working set fits
in the first-level cache, so what the work does between probes barely
changes the probe; a probe that read a large table would run faster after
work that touches less memory, and reward it twice.

If the machine runs ``s(t)`` times slower than the reference at time ``t``,
a probe started then takes ``REF_PROBE_S * s(t)``, and the work of an
interval of length ``T`` equals ``T * mean(1 / s)`` reference seconds.
Probes fired by a wall-clock timer sample ``s`` evenly over the interval, so

    corrected = (T - probe time) * mean(REF_PROBE_S / probe)

``REF_PROBE_S`` fixes the reference speed: the probe takes about that long
on a 2 GHz Intel Xeon with Python 3.11 in a quiet spell.  It is a unit, not
a measurement, and must stay the same between the runs that are compared.
"""

from __future__ import annotations

import signal
import time

PROBE_LOOPS = 8000
REF_PROBE_S = 0.0006
PERIOD_S = 0.05          # one probe per 50 ms of wall time: about 2% overhead


def probe() -> float:
    """Seconds one fixed pure-Python loop takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def probes(count: int) -> list:
    return [probe() for _ in range(count)]


def correct(seconds: float, samples: list) -> float:
    """``seconds`` of work, probe time already taken out, in reference seconds."""
    return seconds * sum(REF_PROBE_S / p for p in samples) / len(samples)


class Speedometer:
    """Probes the machine every ``PERIOD_S`` while it runs, from SIGALRM.

    Python runs the handler in the main thread between bytecodes, so a probe
    waits for a running C call to return; none of cfl's calls runs long.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, *_):
        self.samples.append(probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    @property
    def probe_s(self) -> float:
        return sum(self.samples)
