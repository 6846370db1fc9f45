"""Scale measured times to a reference CPU speed.

On a shared machine the CPU's speed drifts by tens of percent over
minutes: the same full exploration measured 29 to 41 configurations
per second in five back-to-back runs on a shared 2-core VM.  A fixed
dictionary-and-integer loop, run for a few milliseconds right before
and right after each timed span, slows down with it; scaling each span
by ``REFERENCE_S / loop time`` narrowed their range from 39% to 6%.

Every end-to-end time the benchmark reports is scaled this way: it is
the time the span would have taken with the loop at ``REFERENCE_S`` a
call.  The loop belongs to the benchmark, not the program, so a change
to the program moves scaled times exactly as it moves raw ones.  Raw
figures are kept in the run header.
"""

from __future__ import annotations

import statistics
import time

#: seconds per loop call at the reference speed (this loop's fast
#: state on the shared 2-core VM the benchmark was tuned on)
REFERENCE_S = 2.5e-3
CALLS = 6


def _loop() -> int:
    table = dict.fromkeys(range(256), 1)
    total = 0
    for i in range(20000):
        table[i & 255] = i
        total += table[(i * 7) & 255] % 7
    return total


def sample() -> float:
    """Median seconds per loop call, over a few calls."""
    times = []
    for _ in range(CALLS):
        started = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class Speed:
    """Samples the loop between timed spans."""

    def __init__(self) -> None:
        self.samples = [sample()]

    def factor(self) -> float:
        """Scale for the span that ended just now: the reference over
        the mean of the loop's time before and after it."""
        self.samples.append(sample())
        return REFERENCE_S / ((self.samples[-2] + self.samples[-1]) / 2)

    def mark(self) -> int:
        """Sample the loop after a span; returns the index to pass to
        :meth:`smoothed` once later samples exist."""
        self.samples.append(sample())
        return len(self.samples) - 1

    def smoothed(self, mark: int, width: int = 4) -> float:
        """Scale for the span that ended at ``mark``: the reference over
        the median of the ``width`` samples on each side of it.

        Neighbouring samples differ by 8-20% (coefficient of variation)
        on a shared 2-core VM, and a percentile's tail gathers the
        spans whose own factor erred upward; over five runs the
        median of eight samples narrowed the spread of a warm p99 from
        11% to 7% of its median."""
        window = self.samples[max(0, mark - width):mark + width]
        return REFERENCE_S / statistics.median(window)
