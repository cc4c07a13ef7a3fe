"""Host-speed calibration of the benchmark's timings.

The benchmark runs on shared machines whose speed changes by tens of
percent from one moment to the next (a fixed loop flips between about 6.5
and 11 ms), so the same pass can take 6 s or 9 s.  A `Speedometer` times a
small fixed reference loop every SAMPLE_EVERY_S seconds while a step runs,
from a timer signal handled on the benchmark's own thread, so the samples
see the same host speed the step sees.  A step's calibrated time is

    (seconds - time spent sampling) * NOMINAL_S / mean reference time,

the seconds it would have taken on a host where the loop takes NOMINAL_S.
The loop is stdlib Python only and never changes with the program under
test, so a slower program still reads as slower.

This module imports nothing from the program, so a fresh interpreter can
calibrate the import of the package too.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

# Reference-loop time on an unloaded 2-core x86-64 host with CPython 3.11.
NOMINAL_S = 0.0006
SAMPLE_EVERY_S = 0.05


def _reference_loop() -> int:
    # a naive sparse polynomial square and a Fraction sum: the interpreter,
    # dict, tuple and big-integer work the program itself is made of
    poly = {(i, j): (7 * i + 3 * j) % 11 + 1 for i in range(6) for j in range(6)}
    product: dict[tuple[int, int], int] = {}
    for (i1, j1), c1 in poly.items():
        for (i2, j2), c2 in poly.items():
            key = (i1 + i2, j1 + j2)
            product[key] = product.get(key, 0) + c1 * c2
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i, i * i + 1)
    return len(product) + total.denominator % 7


def reference_s() -> float:
    """Seconds one run of the reference loop takes, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _reference_loop()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Context manager giving the calibrated seconds of the enclosed code.

    The reference loop runs once on entry, once on exit and from a SIGALRM
    handler every SAMPLE_EVERY_S seconds in between; after the block,
    `seconds` is the raw time minus the sampling time and `calibrated` the
    rescaled time.  Only the main thread may use it.
    """

    def __enter__(self) -> "Speedometer":
        self.samples = [reference_s()]
        self._sampling_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def _sample(self, _signum=None, _frame=None) -> None:
        start = perf_counter()
        self.samples.append(reference_s())
        self._sampling_s += perf_counter() - start

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.seconds = elapsed - self._sampling_s
        self.samples.append(reference_s())
        reference = sum(self.samples) / len(self.samples)
        self.calibrated = self.seconds * NOMINAL_S / reference
