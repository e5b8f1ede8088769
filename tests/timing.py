"""The timing of Tier-1's timing checks.

`sample` runs a fixed number of rounds, each of which calls every function
once, in order, so a change in the host's load slows all of them alike; a
check then compares each function's minimum or median time. A `Deadline`
bounds the wall time of a whole test, or a sum of times the test charges it.
"""
from __future__ import annotations

import time
from typing import Callable


def sample(fns: list[Callable[[], object]], rounds: int,
           take: Callable[[list[float]], float] = min) -> list[float]:
    """`take` (min or median) of each function's times over `rounds` interleaved rounds."""
    times: list[list[float]] = [[] for _ in fns]
    for _ in range(rounds):
        for fn, spent in zip(fns, times):
            t0 = time.perf_counter()
            fn()
            spent.append(time.perf_counter() - t0)
    return [take(spent) for spent in times]


class Deadline:
    def __init__(self, seconds: float):
        self.limit = seconds
        self.start = time.perf_counter()

    def check(self, label: str, elapsed: float | None = None):
        """Charge `elapsed` seconds, or by default the wall time since start."""
        if elapsed is None:
            elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"{label}: {elapsed:.2f}s exceeds {self.limit}s"
