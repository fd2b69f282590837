"""How fast the host runs Python right now, to take its drift out of timings.

The 2-vCPU VM this benchmark was written on switches, every few seconds and
for minutes at a time, between a fast state and one 1.6 to 2 times slower,
on either vCPU (back-to-back 20 s runs of the same requests differed by up to
40% in median latency).  A fixed, benchmark-owned probe slows down by about
the same factor: timing the probe around each request, on the same vCPU, and
scaling the request's time by ``REFERENCE_NS / probe time`` cut the spread of
2 s medians of one repeated query from 9-15 ms to 9.2-9.4 ms.

So every timing the benchmark reports is in *reference milliseconds*: what it
would have taken with the probe at ``REFERENCE_NS``, about the probe's time
in the fast state of that VM.  The probe touches nothing of yfpaths, so no
change to the program under test can move it.  Raw timings are printed too.
"""

from __future__ import annotations

from time import perf_counter_ns

REFERENCE_NS = 190_000  # about the probe in the fast state, 2-vCPU VM, Python 3.11.7


def _once() -> int:
    t = perf_counter_ns()
    acc = 1
    for k in range(1, 400):
        acc *= 2 * k + 1
    counts: dict[int, int] = {}
    for k in range(1500):
        counts[k & 63] = counts.get(k & 63, 0) + k
    return perf_counter_ns() - t


def probe() -> int:
    """ns for a fixed mix of big-int products and small-dict updates: the
    fastest of three goes, so that an interrupt or a cold cache does not
    read as a slow host."""
    return min(_once(), _once(), _once())


def scale(before_ns: int, after_ns: int) -> float:
    """Factor from raw to reference time for work done between two probes."""
    return REFERENCE_NS / ((before_ns + after_ns) / 2)
