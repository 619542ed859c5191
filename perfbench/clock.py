"""Wall time calibrated against a fixed reference kernel.

On a shared machine the processor's speed drifts as other tenants' load
comes and goes: by up to 1.7x within one run on the 2-core virtual machine
(Intel Xeon, 2.1 GHz) this benchmark was built on. CPU time drifts with it.
So the clock probes the machine's momentary speed with a fixed reference
kernel: before and after every timed sample, and, while a clock is entered,
from a SIGALRM timer every PROBE_INTERVAL_S seconds, which also lands inside
long library calls. Time spent probing is subtracted from the sample, and
the sample is reported as

    calibrated = wall * (REFERENCE_S / median(probes near the sample)) ** EXPONENT

that is, about the wall time the sample would have taken at the machine
speed at which one probe takes REFERENCE_S. The library slows less than
the probe when the machine is loaded: on the k=12 fabric, ECMP routing
slowed with the probe's time to the power 0.5 and assemble plus validate
to the power 0.7, while the k=4 stages track it more closely.
EXPONENT is one constant for every stage, so that no stage's correction
is fitted to its own noise. "Near" is from WINDOW_S before the
sample starts to WINDOW_S after it ends: a single probe is itself noisy,
while the drift it tracks lasts seconds or more, so a short sample is
calibrated by several probes rather than by the two that bracket it. The
reference kernel is part of the benchmark, never of the library, so a
slower library still reads slower. Raw wall times and every probe are kept.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

# A typical probe on the reference machine (2-core Intel Xeon at 2.1 GHz,
# Python 3.11, numpy 2.4); any constant works for comparisons between runs.
REFERENCE_S = 0.0030
EXPONENT = 0.75
PROBE_INTERVAL_S = 0.5
WINDOW_S = 1.5
# A probe this recent serves as the next sample's "before" probe.
REUSE_S = 0.05

_rng = np.random.default_rng(0)
_IDS = _rng.integers(0, 4096, size=180_000)
_WEIGHTS = _rng.random(180_000)


def _kernel() -> None:
    # interpreter work on tuples and dicts, like path enumeration and dumps
    seen: dict[tuple[int, int], int] = {}
    for i in range(12000):
        key = (i % 61, i % 13)
        seen[key] = seen.get(key, 0) + i
    # gathers and a weighted bincount, like the population-load kernel
    np.bincount(_IDS[_IDS[::-1]], weights=_WEIGHTS, minlength=4096)


class Clock:
    """Calibrated sample timer; entering it starts the periodic probes."""

    def __init__(self):
        self.raw: dict[str, list[float]] = {}
        self.spans: dict[str, list[tuple[float, float]]] = {}
        self.probes: list[tuple[float, float]] = []  # (ended at, seconds)
        self._probing_s = 0.0
        self._busy = False
        self._previous_handler = None

    def __enter__(self) -> "Clock":
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self.probe()

    def probe(self) -> float:
        """Best of three reference-kernel runs, in seconds."""
        self._busy = True
        start = time.perf_counter()
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
        end = time.perf_counter()
        self._probing_s += end - start
        self.probes.append((end, best))
        self._busy = False
        return best

    @contextlib.contextmanager
    def sample(self, name: str):
        """Time the block as one sample of `name`."""
        if not self.probes or time.perf_counter() - self.probes[-1][0] > REUSE_S:
            self.probe()
        probing = self._probing_s
        start = time.perf_counter()
        yield
        end = time.perf_counter()
        self.raw.setdefault(name, []).append(end - start - (self._probing_s - probing))
        self.spans.setdefault(name, []).append((start, end))
        self.probe()

    def calibrated(self, name: str) -> list[float]:
        """Calibrated seconds of every sample of `name`, in order."""
        out = []
        for wall, (start, end) in zip(self.raw.get(name, []), self.spans.get(name, [])):
            near = [p for t, p in self.probes if start - WINDOW_S <= t <= end + WINDOW_S]
            out.append(wall * (REFERENCE_S / statistics.median(near)) ** EXPONENT)
        return out
