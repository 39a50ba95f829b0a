"""A reference clock that tracks the host's speed while a round runs.

On a shared host the same code runs at different speeds from one second to
the next (see "Steadiness" in perfbench/README.md).  While the clock runs, a
SIGALRM every TICK_S seconds times one fixed block of pure-Python work that
uses nothing from pfkit.  The mean block time over an interval says how slow
the host was during that interval, at the same moments as the program ran,
so wall time can be rescaled to the speed of a reference host:

    normalised seconds = wall seconds * REFERENCE_BLOCK_S / mean block time

A faster pfkit lowers the wall time and leaves the blocks alone, so the
normalised time falls with it.  The blocks themselves take 2-3% of the
interval; `Interval.wall_s` excludes them.

A child interpreter runs its own clock: `timed_import` imports a module
under a clock and prints the child's blocks, which the parent adds to its
own interval (the parent's clock is stopped meanwhile).  The import is
short, so the child ticks faster.
"""

from __future__ import annotations

import importlib
import json
import signal
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

TICK_S = 0.02
CHILD_TICK_S = 0.005
# Mean block time on a 2-vCPU Intel Xeon VM in its faster state under
# Python 3.11.  It fixes only the unit of the normalised times: on that host,
# in that state, normalised seconds read as wall seconds.
REFERENCE_BLOCK_S = 0.00035
MIN_BLOCKS = 10


def _block() -> None:
    """Fixed interpreter work: integer, Fraction, tuple and dict operations."""
    acc = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, 120):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
        table[i * 7919 % 257] = i
        _ = tuple(range(i % 5))
    if acc < 0 or not table:
        raise AssertionError("unreachable")


@dataclass(frozen=True)
class Interval:
    wall_s: float  # wall time minus the time spent in blocks
    mean_block_s: float
    blocks: int

    @property
    def normalised_s(self) -> float:
        return self.wall_s * REFERENCE_BLOCK_S / self.mean_block_s


class ReferenceClock:
    """`start()`, then `since(mark())` gives an Interval; `stop()` when done."""

    def __init__(self, tick_s: float | None = None) -> None:
        self.tick_s = tick_s
        self.blocks: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _block()
        self.blocks.append(time.perf_counter() - t0)

    def start(self) -> "ReferenceClock":
        tick = self.tick_s or TICK_S
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, tick, tick)
        return self

    def stop(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def mark(self) -> tuple[float, int]:
        return time.perf_counter(), len(self.blocks)

    def since(self, mark: tuple[float, int]) -> Interval:
        t0, first = mark
        wall = time.perf_counter() - t0
        blocks = self.blocks[first:]
        if len(blocks) < MIN_BLOCKS:
            raise ValueError(f"interval of {wall:.3f} s holds only {len(blocks)} reference blocks")
        return Interval(wall - sum(blocks), sum(blocks) / len(blocks), len(blocks))


def timed_import(src: str, module: str) -> None:
    """Import `module` from `src` under a clock; print the blocks as JSON."""
    clock = ReferenceClock(CHILD_TICK_S).start()
    sys.path.insert(0, src)
    importlib.import_module(module)
    clock.stop()
    print(json.dumps(clock.blocks))
