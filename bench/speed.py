"""Host-speed correction for benchmark timings.

The hosts this benchmark runs on share their CPUs with other machines'
work, and their speed drifts: a fixed pure-Python loop runs 15% slower or
faster from one half-minute to the next, for minutes at a time, with no
steal time to show for it.  A median over one run's operations cannot
remove a drift that lasts the whole run.

So every timed operation is scaled by a reference loop timed right next
to it: ``corrected = seconds * NOMINAL_S / reference``, where the
reference is the mean of the loop's time just before and just after the
operation.  Corrected times are in seconds at the speed where the loop
takes :data:`NOMINAL_S`.  The loop is benchmark code that the program
under test cannot change, so the correction cancels host drift without
favouring either side of a comparison.
"""

from __future__ import annotations

import time

#: Seconds one reference loop takes at the nominal host speed (a quiet
#: 2-vCPU x86-64 host with CPython 3.11).
NOMINAL_S = 0.006
_ITERATIONS = 100_000


def reference() -> float:
    """Seconds the fixed loop takes now (best of three)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(_ITERATIONS):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Chains references so each sits between two timed operations."""

    def __init__(self) -> None:
        self.last = reference()

    def factor(self) -> float:
        """Correction for the operation that just ended: NOMINAL_S / ref."""
        now = reference()
        factor = NOMINAL_S / ((self.last + now) / 2)
        self.last = now
        return factor
