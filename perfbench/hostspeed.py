"""Host-speed reference: a fixed pure-Python loop timed at a low duty
cycle alongside a measurement.

The benchmark shares its machine with other tenants, and the speed of a
CPU-bound Python loop drifts by 20-30% over seconds.  This sampler runs
as its own process for the whole measurement window (about 5% of one
CPU), so every workload -- in-process, multi-process or a service --
is sampled the same way.  :class:`HostSpeed` turns the median loop time
into a factor; the benchmark reports each time as *reference-speed host
seconds*: measured seconds times ``NOMINAL_LOOP_S / median loop time``,
i.e. what the measurement would have read on a host where the loop
takes :data:`NOMINAL_LOOP_S`.

Usage as a process: ``python3 perfbench/hostspeed.py``; it samples until
its stdin closes, then prints ``<median seconds> <samples>``.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import threading
import time

#: Loop length and sampling period.
LOOP = 20000
PERIOD_S = 0.05
#: Reference-speed time of one loop (the fast state of the 2-vCPU host
#: the benchmark was defined on).
NOMINAL_LOOP_S = 0.0016


def loop_once() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP):
        acc += i * i % 7
    return time.perf_counter() - t0


class HostSpeed:
    """Context manager around one sampler process; ``factor`` is
    ``NOMINAL_LOOP_S / median loop time`` once the block exits."""

    def __init__(self) -> None:
        self.proc = None
        self.samples = 0
        self.factor = 1.0

    def __enter__(self) -> "HostSpeed":
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc) -> None:
        out, _ = self.proc.communicate(input="", timeout=60)
        median, samples = out.split()
        self.samples = int(samples)
        self.factor = NOMINAL_LOOP_S / float(median)


def main() -> int:
    samples = []
    stop = threading.Event()
    threading.Thread(target=lambda: (sys.stdin.read(), stop.set()),
                     daemon=True).start()
    while not stop.wait(PERIOD_S):
        samples.append(loop_once())
    if not samples:
        samples.append(loop_once())
    print(statistics.median(samples), len(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
