"""How fast this process runs at each moment, from a fixed reference kernel.

The machine the benchmark was built on is shared: identical work runs up to
1.8x slower, the slowdown changes within tens of milliseconds and its average
over tens of seconds, and pure-Python loops, small ``eigh`` calls and
skewunc's own code slow together. A ``SpeedSampler``
times the reference kernel every ``INTERVAL_S`` from a SIGALRM handler on the
main thread, so its samples also fall inside items that run for seconds.

A measured duration, less the kernel time spent inside it, is then scaled to
a machine on which the kernel takes ``REFERENCE_S``: that is the time the
work would have taken at the reference speed. Nothing in the kernel touches
skewunc, so a change to the library moves the scaled times exactly as it
moves the raw ones.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.05

# The speed changes within tens of milliseconds (consecutive samples 50 ms
# apart correlate by ~0.3), so one sample says little about one short item.
# A span is scaled by the mean over the samples within this margin of it:
# about twenty samples for the shortest items.
WINDOW_S = 0.5

# Kernel time at the reference speed: about the kernel's time on the machine
# the benchmark was built on (2-vCPU Xeon at 2.1 GHz) when it is not slowed.
REFERENCE_S = 1.0e-3

_MATRIX = (np.arange(16, dtype=float).reshape(4, 4) % 5
           + 1j * (np.arange(16).reshape(4, 4) % 3))
_HERMITIAN = _MATRIX + _MATRIX.conj().T


def reference_kernel() -> None:
    """A fixed mix of interpreter work and small complex eigendecompositions,
    the two kinds of work skewunc's hot paths are made of. On the same five
    runs of sweep and campaign, scaling by it left run-to-run spreads of
    0.02-0.04 in wall_s, where a vectorised pass over a 0.8 MB array left
    0.05-0.10."""
    acc = 0
    for i in range(6000):
        acc += i * i
    for _ in range(60):
        np.linalg.eigh(_HERMITIAN)


class SpeedSampler:
    """Context manager that samples the kernel's duration while active."""

    def __init__(self):
        self.starts: list[float] = []
        self.kernel_s: list[float] = []
        self.spent = 0.0
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        dt = time.perf_counter() - t0
        self.starts.append(t0)
        self.kernel_s.append(dt)
        self.spent += dt
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def clock(self) -> float:
        """``time.perf_counter`` stopped while the kernel runs, so spans
        timed with it exclude the kernel."""
        return time.perf_counter() - self.spent

    def _within(self, start: float, end: float) -> tuple[int, int]:
        return (bisect.bisect_left(self.starts, start),
                bisect.bisect_right(self.starts, end))

    def kernel_within(self, start: float, end: float) -> float:
        """Kernel seconds spent inside [start, end]."""
        lo, hi = self._within(start, end)
        return sum(self.kernel_s[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """Mean of REFERENCE_S / kernel time over the samples taken within
        WINDOW_S of [start, end]."""
        lo, hi = self._within(start - WINDOW_S, end + WINDOW_S)
        if hi == lo:
            raise RuntimeError(f"no speed sample within {WINDOW_S} s of a timed span")
        return float(np.mean([REFERENCE_S / k for k in self.kernel_s[lo:hi]]))
