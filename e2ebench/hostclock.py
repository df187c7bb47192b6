"""Host clock: wall time rescaled to a reference host speed.

The benchmark runs on shared virtual machines whose CPU speed drifts by up
to a factor of two, over seconds to minutes, with nothing in the guest to
show for it (process CPU time drifts with wall time; the steal counter
stays flat).  Raw wall times of CPU-bound work then follow the host, not
the program.

While a :class:`HostClock` is entered, a ``SIGALRM`` handler runs a fixed
pure-Python kernel every :data:`PERIOD_S` and records how long it took.
The kernel runs twice and only the second, warm run is timed, so the
caches the program leaves behind do not count.
:meth:`HostClock.scaled` integrates an interval of wall time, less the
kernel's own time, at the speed the kernel saw around each moment: the
time the interval would have taken on a host where the kernel takes
:data:`REF_TICK_S`.  A program change moves the scaled time as it moves
the raw time; a slow period of the host moves the kernel as much as the
program and cancels out.

Python runs signal handlers between bytecodes of the main thread, so the
kernel interrupts the program only where the program itself could be
interrupted; a long call into C delays a tick instead.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Optional

#: Interval between two kernel runs.
PERIOD_S = 0.02
#: Sizes of the kernel's two loops: 0.2 to 0.3 ms in all on a 2-vCPU VM, so
#: the clock (two kernel runs a tick) costs 2 to 3% of the run, all of it
#: left out.
OBJECT_ITERATIONS = 150
ARITHMETIC_ITERATIONS = 1000
#: The kernel's time on the reference host.
REF_TICK_S = 200e-6
#: Each tick's speed is the median over this many ticks on either side.
SMOOTH = 5


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: tuple):
        self.key = key
        self.value = value


def _first(node: _Node, extra: int) -> int:
    return node.value[0] + extra


def kernel() -> int:
    """The fixed CPU loop whose time the clock samples.

    Host slow periods do not slow every kind of code alike, so the kernel
    mixes what the program's hot paths do (small objects, dict updates
    and lookups, calls, short sorts) with plain integer arithmetic.  Over
    repeated throughput bursts in fresh processes, this mix tracked the
    serving workloads' speed more closely than either loop alone.
    """
    acc = 0
    table: dict = {}
    for i in range(OBJECT_ITERATIONS):
        node = _Node(i, (i, i + 1))
        table[i & 31] = node
        acc += _first(table.get(i & 15, node), 1)
        acc += len(sorted((i, 3, 1)))
    for i in range(ARITHMETIC_ITERATIONS):
        acc += i * i % 7
    return acc


class HostClock:
    """Samples the host's speed while entered; rescales intervals after.

    Times are :func:`time.monotonic` readings.  Intervals must lie within
    one entered stretch, which may be re-entered for the next one.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []  # when each tick began
        self.ends: List[float] = []  # when each tick ended
        self.costs: List[float] = []  # each tick's timed (warm) kernel run
        self._curve: Optional[tuple] = None

    def _tick(self, signum, frame) -> None:
        begin = time.monotonic()
        kernel()  # warm-up
        start = time.monotonic()
        kernel()
        end = time.monotonic()
        self.costs.append(end - start)
        self.starts.append(begin)
        self.ends.append(end)

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._curve = None

    def median_tick_us(self) -> float:
        return statistics.median(self.costs) * 1e6

    def _build(self) -> tuple:
        """Cumulative busy and scaled time at each tick's end, and the rate
        of each gap after a tick (scaled seconds per busy second)."""
        if not self.costs:
            raise RuntimeError("the host clock took no samples")
        n = len(self.costs)
        speed = [
            statistics.median(self.costs[max(0, i - SMOOTH): i + SMOOTH + 1])
            for i in range(n)
        ]
        ends = self.ends
        rates = [
            REF_TICK_S / ((speed[i] + speed[min(i + 1, n - 1)]) / 2) for i in range(n)
        ]
        busy, scaled = [0.0], [0.0]
        for i in range(1, n):
            gap = max(0.0, self.starts[i] - ends[i - 1])
            busy.append(busy[-1] + gap)
            scaled.append(scaled[-1] + gap * rates[i - 1])
        return ends, rates, busy, scaled

    def _at(self, t: float, scaled: bool) -> float:
        if self._curve is None:
            self._curve = self._build()
        ends, rates, busy, cum = self._curve
        i = bisect.bisect_right(self.starts, t) - 1
        if i < 0:  # before the first tick: at the first tick's speed
            return (t - self.starts[0]) * (rates[0] if scaled else 1.0)
        past = max(0.0, t - ends[i])
        return cum[i] + past * rates[i] if scaled else busy[i] + past

    def busy(self, a: float, b: float) -> float:
        """Wall time of ``[a, b]`` less the kernel's time inside it."""
        return self._at(b, False) - self._at(a, False)

    def scaled(self, a: float, b: float) -> float:
        """:meth:`busy` time of ``[a, b]`` at the reference host speed."""
        return self._at(b, True) - self._at(a, True)
