"""A clock that counts time in units of a fixed reference loop.

On a host whose cores are shared with other tenants, the speed of one core
can drift by a quarter or more over minutes, and a pass timed in seconds
drifts with it.

`RefClock` times a short, fixed loop (`reference_loop`) every PERIOD_S
seconds from a SIGALRM handler, between the bytecodes of whatever the
process is running. Each interval between two samples is divided by the loop
time measured around it, so `read()` gives how many reference loops the host
could have run since `start()`, in wall time and in CPU time: a measure of
work from which the host's speed cancels out. The time spent in the handler
is left out of both.

    clock = RefClock()
    clock.start()
    wall0, cpu0 = clock.read()
    ...                              # the measured code
    wall1, cpu1 = clock.read()       # wall1 - wall0 reference loops
    clock.stop()
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02
REPEATS = 3
WINDOW = 5


# Eight symmetric 0/1 matrices of order 8, the same in every process.
_MATS = (np.random.default_rng(0).random((8, 8, 8)) < 0.3).astype(np.float64)
_MATS = np.maximum(_MATS, _MATS.transpose(0, 2, 1))


def reference_loop() -> float:
    """Fixed work of the kinds rhomin does, about half in the interpreter
    (integer arithmetic, big-int products, dict traffic) and half in numpy
    (batched matrix products and `eigvalsh`). About 0.1 ms."""
    acc, table, big = 1, {}, 3**40
    for i in range(60):
        acc = (acc * 1103515245 + 12345) & 0xFFFFFFFF
        key = acc & 63
        table[key] = table.get(key, 0) + i
        big = (big * (acc | 1)) % (1 << 256)
    walks = _MATS
    for _ in range(2):
        walks = np.minimum(walks @ _MATS, 1.0)
    top = np.linalg.eigvalsh(_MATS)[:, -1]
    return float(top.sum() + walks.sum()) + acc + len(table) + (big & 1)


def sample() -> float:
    """The fastest of REPEATS reference loops, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def loop_time(samples: int = 30) -> float:
    """The reference loop's time on this host now: a median of samples."""
    return statistics.median(sample() for _ in range(samples))


class RefClock:
    """Wall and CPU time, less handler time, divided by the reference loop time.

    Every PERIOD_S, REPEATS loops are timed and the fastest one kept, which
    drops a sample cut by a preemption; the loop time used for an interval is
    the mean of the medians of the last WINDOW samples at its two ends.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.handler_wall_s = 0.0
        self.handler_cpu_s = 0.0
        self._wall = self._cpu = 0.0
        self._wall_mark = self._cpu_mark = 0.0
        self._loop_s = 0.0
        self._ticks = 0
        self._old = None

    def _tick(self, signum=None, frame=None) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.samples.append(sample())
        recent = statistics.median(self.samples[-WINDOW:])
        pace = (self._loop_s + recent) / 2
        self._wall += (wall0 - self._wall_mark) / pace
        self._cpu += (cpu0 - self._cpu_mark) / pace
        self._loop_s = recent
        self._wall_mark, self._cpu_mark = time.perf_counter(), time.process_time()
        self.handler_wall_s += self._wall_mark - wall0
        self.handler_cpu_s += self._cpu_mark - cpu0
        self._ticks += 1

    def start(self) -> None:
        for _ in range(WINDOW):
            self.samples.append(sample())
        self._loop_s = statistics.median(self.samples)
        self._wall_mark, self._cpu_mark = time.perf_counter(), time.process_time()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def read(self) -> tuple[float, float]:
        """(wall, CPU) time since `start()`, in reference loops."""
        while True:
            # a tick between the reads below would mix two intervals: retry
            ticks = self._ticks
            wall = self._wall + (time.perf_counter() - self._wall_mark) / self._loop_s
            cpu = self._cpu + (time.process_time() - self._cpu_mark) / self._loop_s
            if ticks == self._ticks:
                return wall, cpu

