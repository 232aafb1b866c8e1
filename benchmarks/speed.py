"""Speed-normalised timing for a machine whose speed drifts.

On a shared host the speed of a core can change by 2x from one second
to the next, with CPU time equal to wall time, so a raw timing measures
the neighbours as much as the program.  ``Meter`` samples the speed
while the program runs: a SIGALRM timer fires every TICK_S seconds of
wall time, and its handler times a short fixed pure-Python reference
loop (small immutable objects, tuple keys, hashing, sorting, Fraction
arithmetic: the mix of the expression kernel).  A span of program time
is rescaled by the mean speed the samples inside it saw:

    normalised seconds = net seconds * mean(REFERENCE_S / loop seconds)

where the net seconds leave out the handler's own time and REFERENCE_S
is the loop's time on a quiet core.  The samples taken from PAD_TICKS
ticks before the span to PAD_TICKS ticks after it count too, so that
a span shorter than a tick still averages a few samples.  A faster
program still reads faster; a slower machine no longer does.
"""

from __future__ import annotations

import bisect
import signal
import time
from dataclasses import dataclass
from fractions import Fraction

# The reference loop's time on a quiet core of an Intel Xeon with
# Python 3.11.  Only the scale of the reported seconds depends on it.
REFERENCE_S = 0.00055

# Wall time between two samples.
TICK_S = 0.02
PAD_TICKS = 2


@dataclass(frozen=True)
class _Node:
    op: str
    key: tuple
    coeff: Fraction


def _reference_work() -> int:
    nodes = []
    table: dict[tuple, int] = {}
    total = Fraction(0)
    for i in range(150):
        key = (i % 13, ("x", i % 5), i % 7)
        node = _Node("+" if i % 2 else "*", key, Fraction(i % 11, 1 + i % 4))
        nodes.append(node)
        table[key] = table.get(key, 0) + hash(node) % 97
        if i % 3 == 0:
            total += node.coeff
    nodes.sort(key=lambda n: (n.op, n.key, n.coeff))
    return len(table) + len(nodes) + total.denominator


@dataclass(frozen=True)
class Span:
    start: float
    end: float
    net: float  # seconds, without the sampler's own time


class Meter:
    """Samples the machine's speed while it is entered (main thread only)."""

    def __init__(self, tick: float = TICK_S):
        self.tick = tick
        self.stamps: list[float] = []   # when each sample started
        self.speeds: list[float] = []   # REFERENCE_S / loop seconds
        self.spent = 0.0                # seconds inside the sampler
        self._previous = None
        self._busy = False

    def __enter__(self) -> "Meter":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.tick, self.tick)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            self.sample()
            self._busy = False

    def sample(self) -> None:
        t0 = time.perf_counter()
        _reference_work()
        t1 = time.perf_counter()
        self.stamps.append(t0)
        self.speeds.append(REFERENCE_S / (t1 - t0))
        self.spent += time.perf_counter() - t0

    def clock(self) -> float:
        """Wall time without the sampler's own time."""
        return time.perf_counter() - self.spent

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent

    def span(self, mark: tuple[float, float]) -> Span:
        start, spent = mark
        end = time.perf_counter()
        return Span(start, end, (end - start) - (self.spent - spent))

    def seconds(self, span: Span) -> float:
        """The span's normalised seconds.  Call it after leaving the
        meter: it samples once more if no sample follows the span yet."""
        pad = PAD_TICKS * self.tick
        if not self.stamps or self.stamps[-1] < span.end:
            self.sample()
        lo = bisect.bisect_left(self.stamps, span.start - pad)
        hi = bisect.bisect_right(self.stamps, span.end + pad)
        near = self.speeds[lo:hi] or self.speeds[-1:]
        return span.net * sum(near) / len(near)
