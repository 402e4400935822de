"""The reference workload that end-to-end times are scaled by.

The VM this benchmark was tuned on ran the same code up to twice as
fast in one minute as in the next: a serve-mix load test took 0.25 s or
0.50 s for tens of seconds at a time.  Timing a short fixed workload
between the units of work of a timed pass measures how fast the machine
was just then.  ``run.py`` reports end-to-end times in *reference
seconds*: host seconds scaled to a machine on which this workload takes
``REFERENCE_S``.  A change to the program moves them as it moves host
seconds; a change of machine speed mostly cancels out.  The detail line
keeps the host seconds.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.03
REFERENCE_LOOPS = 400_000
REFERENCE_EVERY_S = 0.5  # host seconds of work between reference runs
perf_counter = time.perf_counter


def reference_seconds() -> float:
    """Host seconds of one fixed pure-Python integer loop.

    It keeps no objects alive, so neither the program's heap nor its
    collector state can change it: only the machine's speed can.
    """
    start = perf_counter()
    x = 0
    for i in range(REFERENCE_LOOPS):
        x = (x * 31 + i) % 1_000_003
    return perf_counter() - start


class ReferenceClock:
    """Times one pass in host and in reference seconds.

    The pass calls :meth:`tick` after each unit of its work.  Once at
    least ``REFERENCE_EVERY_S`` host seconds have passed since the last
    reference run, the reference workload runs again, outside the
    timing, and the work since the last run is scaled by the mean of the
    two reference times around it.
    """

    def __init__(self) -> None:
        self.host_s = 0.0
        self.reference_s = 0.0  # the pass in reference seconds
        self._pending = 0.0
        self._last = reference_seconds()
        self._start = perf_counter()

    def tick(self, force: bool = False) -> None:
        self._pending += perf_counter() - self._start
        if force or self._pending >= REFERENCE_EVERY_S:
            now = reference_seconds()
            self.host_s += self._pending
            self.reference_s += (self._pending * 2 * REFERENCE_S
                                 / (self._last + now))
            self._pending, self._last = 0.0, now
        self._start = perf_counter()


def timed_in_reference(fn, *args) -> float:
    """Reference seconds of one call of ``fn``, run whole."""
    clock = ReferenceClock()
    fn(*args)
    clock.tick(force=True)
    return clock.reference_s
