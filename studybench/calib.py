"""Host-speed calibration: a fixed pure-Python kernel timed during the work.

The box that defined the benchmark is a shared 2-vCPU VM whose speed for
interpreter-heavy code flips between a fast and a slow state (about 1.7
times slower) for seconds to minutes at a time, with no steal time
reported and CPU time tracking wall time. A time measured over an
interval is therefore scaled by how fast this kernel ran in the same
process during that interval:

    scaled = measured * mean(REF_S / kernel sample)

With samples spread evenly over the interval, the mean of REF_S / sample
is the share of the interval's work that a box running the kernel in
REF_S seconds would have done in the same time. REF_S only sets the unit;
it lies between the kernel's time on the defining box in its fast state
(about 0.085 s) and in its slow one (about 0.15 s). The kernel does not
touch oscille, so a change to the program moves the scaled time as much
as the measured one, while a change of host speed moves the kernel too and
cancels out.

Kernel samples are CPU seconds of the thread that runs them, so time spent
waiting for the GIL while the program's own threads run is not counted.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_S = 0.1
TICK_S = 0.25
_N = 400_000
_TICK_N = 20_000


def _kernel(n):
    acc = 0.0
    table = {}
    for i in range(n):
        x = (i % 97) * 0.5
        acc += x * x - acc * 1e-9
        key = i & 1023
        table[key] = table.get(key, 0.0) + x
    return acc, len(table)


def _timed(n):
    """Thread CPU seconds of the kernel at size n, as seconds of the full-size kernel."""
    start = time.thread_time()
    _kernel(n)
    return (time.thread_time() - start) * _N / n


def samples(count):
    """Times of `count` runs of the full-size kernel."""
    return [_timed(_N) for _ in range(count)]


def factor(kernel_s):
    """Scale factor: mean of REF_S / sample."""
    return statistics.fmean(REF_S / k for k in kernel_s)


class Ticker:
    """Times a short kernel from a SIGALRM handler every TICK_S wall seconds.

    The handler runs in the main thread between bytecodes, so the samples
    fall inside the program's own work. Each sample is kept with the
    perf_counter time it started at.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, _signum, _frame):
        self.samples.append((time.perf_counter(), _timed(_TICK_N)))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def between(self, start, end):
        """Samples that started in [start, end)."""
        return [k for t, k in self.samples if start <= t < end]
