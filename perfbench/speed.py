"""The speed of the core a session runs on, sampled while it runs.

On a shared host the same pass can take from one to two times as long from
one minute to the next, because other tenants load the same physical cores;
two vCPUs of one virtual machine drift independently of each other.  A fixed
calibration snippet timed every few milliseconds on the same thread, between
the program's own bytecodes, slows down with the program.  Dividing a
measured time by the mean slowdown of the samples taken during it gives the
time the work would have taken at the reference speed: REFERENCE_S is the
snippet's time on an unloaded core of the machine the baseline was measured
on.  Raw times are kept beside the scaled ones.

The snippet allocates nothing: it makes calls and updates a dict whose keys
and values are all cached small ints.  So it never triggers or pays for a
garbage collection, and a program change that adds or removes memory work
is not divided out of the scaled times.  It does run on caches that the
program's collections have just walked: with the collector made to run 14
times as often, the factor fell by about 4% (README.md, "Scaling to a
reference speed"), so part of such a slowdown is divided out.  The factor uses
the mean sample time, not the median: a pass is slowed by the mean slowdown
over its length, rare long stalls included.
"""

from __future__ import annotations

import signal
import time

REFERENCE_S = 72e-6
INTERVAL_S = 0.02
MIN_SAMPLES = 5


class _Step:
    __slots__ = ("shift",)

    def __init__(self):
        self.shift = 3

    def next(self, x: int) -> int:
        return ((x + self.shift) ^ 29) & 127


_STEP = _Step()
_TABLE = dict.fromkeys(range(16), 0)


def _advance(x: int) -> int:
    return _STEP.next(x) & 127


def _snippet() -> None:
    """Function and method calls, attribute loads and dict updates, like the
    program's loops over ring methods; every int stays within 0..255, so
    nothing is allocated."""
    table = _TABLE
    r = 0
    while r < 3:
        x = 1
        i = 0
        while i < 120:
            x = _advance(x)
            if isinstance(x, int):
                table[x & 15] ^= x
            i += 1
        r += 1


class SpeedSampler:
    """Times the snippet on every SIGALRM; `mark` reads the running totals."""

    def __init__(self):
        self.count = 0
        self.total = 0.0

    def sample(self, *_signal_args) -> None:
        started = time.perf_counter()
        _snippet()
        self.total += time.perf_counter() - started
        self.count += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self) -> list:
        return [self.count, self.total]


def factor(samples: list, fallback: float = 1.0) -> float:
    """Multiply a time measured during an interval by this to get the time
    at the reference speed.  `samples` is the [count, total] of the speed
    samples taken during the interval; with fewer than MIN_SAMPLES of them
    the factor is `fallback`, such as that of an enclosing interval."""
    count, total = samples
    return count * REFERENCE_S / total if count >= MIN_SAMPLES else fallback
