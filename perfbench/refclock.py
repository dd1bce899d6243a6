"""Reference seconds: host time scaled to a fixed speed of the host.

A shared host can run the same code up to twice as slowly, for a second or
for minutes at a time (README.md, "Steadiness").  While a ``ReferenceClock``
runs, a timer interrupts the process every ``PERIOD_S`` and times one chunk
of a fixed pure-Python loop, the reference.  A region timed with ``mark`` and
``since`` gets its host time, less the chunks that ran inside it, and its
reference time: host time x ``REFERENCE_S`` / the mean chunk time over the
region.  A slowdown that hits the region and the reference alike cancels.
The reference is the benchmark's own code, so no change to the program
moves it.
"""

import signal
import statistics
import time

PERIOD_S = 0.02  # one chunk per 20 ms of host time
REFERENCE_S = 0.0013  # a typical chunk time on a 2.1 GHz Xeon VM with Python 3.11


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b

    def step(self, other: "_Cell") -> "_Cell":
        return _Cell(self.a + other.b, self.b ^ other.a)


def reference_chunk() -> float:
    """Host seconds one chunk of the reference loop takes now.  Its two
    halves take about as long as each other and are what the program's time
    is made of: dict updates, then object allocation and method calls.
    Hosts slow these unequally, and the workloads mix them differently."""
    start = time.perf_counter()
    table = {}
    for i in range(4_000):
        key = i * 7919 % 1009
        table[key] = table.get(key, 0) + i
    p, q = _Cell(1, 2), _Cell(3, 4)
    for _ in range(2_000):
        p = p.step(q)
    return time.perf_counter() - start


class ReferenceClock:
    """Samples the reference between ``start`` and ``stop``; see the module
    docstring."""

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.chunks: list = []  # host seconds of each chunk run so far
        self.spent = 0.0  # their sum

    def sample(self) -> None:
        took = reference_chunk()
        self.chunks.append(took)
        self.spent += took

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self, start: float = None) -> tuple:
        """Begin a region now, or at an earlier ``start`` (a perf_counter
        reading), with one chunk sampled at its beginning."""
        self.sample()
        if start is None:
            return time.perf_counter(), len(self.chunks) - 1, self.spent
        return start, len(self.chunks) - 1, self.spent - self.chunks[-1]

    def since(self, mark: tuple) -> tuple:
        """(host seconds, reference seconds) from ``mark`` to now, with one
        chunk sampled at the end."""
        end = time.perf_counter()
        start, first, spent = mark
        host = end - start - (self.spent - spent)
        self.sample()
        return host, host * REFERENCE_S / statistics.fmean(self.chunks[first:])
