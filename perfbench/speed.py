"""Machine-speed probe: rescales measured seconds to a fixed reference speed.

On a shared machine the speed at which one core runs interpreted code
drifts by up to about half within minutes, as other tenants load the host,
and that drift swamps any change to the program.  The probe times a fixed
interpreted float loop, the fastest of five tries.  The benchmark takes one
probe before its timed ops and one after each block, and reports each op's
seconds times ``REFERENCE_S / probe``, the probe being the mean of the two
that bracket the op's block.  A value then reads as seconds on a machine
whose probe takes ``REFERENCE_S``; the unscaled seconds are kept beside it.
The probe never runs folnerlab code, so a change to the program cannot move
it.  Of the probes tried (an interpreted float loop, ``Fraction``
arithmetic, a numpy sort, random list reads and dict lookups), the float
loop followed the slow drift of the workloads best: over two-minute runs its
correlation with block time was 0.96 on w1_circles, 0.82 on coupling_product
and 0.85 on ergodic_averages.
"""

from __future__ import annotations

import time

# probe seconds on a quiet 2.1 GHz Xeon core under Python 3.11; fixed for
# good, so that scaled values of different commits compare
REFERENCE_S = 0.002


def _loop() -> None:
    total = 0.0
    for k in range(20000):
        total += (k * 0.5) % 7.0


def probe() -> float:
    """Seconds of the fixed loop, the fastest of five tries."""
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - started)
    return best
