"""Order statistics and operation accounting for the benchmark.

Kept free of any import from the program under test so the rules can
be tested on their own.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Sequence

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; fewer would make it the maximum of a handful of
#: samples, not a percentile.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """Nearest rank of percentile ``p`` among ``n`` samples (1-based);
    the tolerance keeps e.g. 99.9 % of 10 000 at rank 9990, not 9991."""
    return max(1, math.ceil(n * p / 100.0 - 1e-9))


def samples_beyond(n: int, percentile: float) -> int:
    """Samples strictly above the ``percentile`` rank of ``n``."""
    return n - _rank(n, percentile)


def tail_percentile(n: int, candidates: Sequence[float] = TAIL_PERCENTILES) -> float | None:
    """The highest candidate percentile with at least :data:`MIN_BEYOND`
    samples beyond it, or ``None`` when even the lowest has fewer."""
    for p in sorted(candidates, reverse=True):
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return float(sorted_values[_rank(len(sorted_values), p) - 1])


class OpLedger:
    """Counts attempted, completed and failed operations.

    An operation fails when it never completes or completes with a
    wrong result.  A completion of an operation that is not outstanding
    — a second completion of the same operation, or one nobody started
    — is a *stray* and counts as one more failure.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.good = 0
        self.stray = 0
        self._open: set[Hashable] = set()

    def start(self, op: Hashable) -> None:
        if op in self._open:
            raise ValueError(f"operation {op!r} started twice")
        self.attempted += 1
        self._open.add(op)

    def finish(self, op: Hashable, ok: bool = True) -> bool:
        """Record a completion; False for a stray one."""
        if op not in self._open:
            self.stray += 1
            return False
        self._open.remove(op)
        if ok:
            self.good += 1
        return True

    @property
    def outstanding(self) -> int:
        return len(self._open)

    @property
    def failed(self) -> int:
        return self.attempted - self.good + self.stray
