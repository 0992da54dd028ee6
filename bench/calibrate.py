"""A fixed reference computation that tracks the speed of the machine.

Timings on a shared machine drift between speed levels that last for
seconds, up to a factor of two apart. The benchmark samples this kernel
between the items of every set-up and timed pass, at most once per
`SpeedProbe.interval`, and scales the pass by the mean kernel time of its
samples, so that a drift common to both cancels. One sample before and
after a pass does not do: a pass averages the speed over its whole length,
a lone sample catches one moment of it.

The kernel uses none of the code under test. It is an integer loop plus a
round of building, hashing and walking a tree of frozen dataclasses with
pattern matching and a dictionary memo; on the machine of the figures in
README.md the sum of the two slows down in the same proportion as the
workloads do (log-log slope 1.0 against conform passes).
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class _Leaf:
    value: int


@dataclass(frozen=True, slots=True)
class _Pair:
    left: object
    right: object


def _build(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.1:
        return _Leaf(rng.randrange(8))
    return _Pair(_build(rng, depth - 1), _build(rng, depth - 1))


def _fold(t, memo: dict) -> int:
    got = memo.get(t)
    if got is not None:
        return got
    match t:
        case _Leaf(value):
            out = value
        case _Pair(left, right):
            out = (_fold(left, memo) * 31 + _fold(right, memo)) % 1_000_003
    memo[t] = out
    return out


def kernel() -> int:
    """Deterministic work of about 10 ms."""
    total = 0
    for i in range(50_000):
        total = (total * 31 + i) % 1_000_003
    tree = _build(random.Random(12345), 10)
    total += _fold(tree, {})
    total += len({_Pair(_Leaf(i % 97), _Leaf(i % 89)) for i in range(2000)})
    return total


# Calibrated times are seconds on a machine where one kernel takes this long,
# which is the kernel time at the faster of the two speed levels of the
# machine of the figures in README.md.
REFERENCE_KERNEL_S = 0.01


def time_kernel() -> float:
    """Seconds for one kernel, with the cyclic collector off, so that the size
    of the program's heap does not change the kernel's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Kernel samples over one timed stretch of work.

    `start` takes the first sample; the work calls `tick` between its items,
    which samples again once `interval` seconds have passed since the last
    sample. `spent` is the time the samples after the first one took, to be
    taken off the stretch's wall time.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = 0.0

    def start(self) -> None:
        self.samples = [time_kernel()]
        self.spent = 0.0
        self._last = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._last >= self.interval:
            sample = time_kernel()
            self.samples.append(sample)
            self.spent += sample
            self._last = time.perf_counter()

    def factor(self) -> float:
        """Multiply a wall time by this to get seconds on the reference machine."""
        return REFERENCE_KERNEL_S / statistics.mean(self.samples)
