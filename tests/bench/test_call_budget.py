"""Deterministic per-hop budget: Python calls and header reads.

Runs the benchmark's own ``pingpong`` workload under its own counting
profiler (``perfbench.counts.CallCounter``), so the numbers gated here
are the ones ``python3 perfbench/run.py --workload pingpong --trace 1``
reports.  The counts depend only on the code path, never on timing, so
the gate is noise-free.
"""

from __future__ import annotations

import pytest

from perfbench.counts import CallCounter
from perfbench.run import COUNT_OPS
from perfbench.workloads import PingPong
from repro.analysis.sanitize import affinity_enabled, sanitizing_enabled

#: Python calls into the program per round trip (two one-way hops)
MAX_CALLS_PER_OP = 150
#: header-property reads per dispatched frame
MAX_HEADER_READS_PER_FRAME = 10

pytestmark = pytest.mark.skipif(
    sanitizing_enabled() or affinity_enabled(),
    reason="the sanitizer and affinity guard instrument the hot path",
)


@pytest.fixture(scope="module")
def counted(tmp_path_factory):
    """(counter, round trips, frames dispatched, workload) for one
    counted pingpong run on a warmed system."""
    warm_ops, ops = COUNT_OPS["pingpong"]
    w = PingPong(seed=1, workdir=tmp_path_factory.mktemp("pingpong"))
    w.build()
    try:
        w.run_ops(warm_ops)
        before = w.counters()["dispatched"]
        counter = CallCounter(muted=w.muted_codes())
        counter.run(lambda: w.run_ops(ops))
        frames = w.counters()["dispatched"] - before
        assert w.check() == []
        assert w.ledger.failed == 0
    finally:
        w.close()
    return counter, ops, frames


def test_python_calls_per_round_trip(counted):
    counter, ops, _frames = counted
    assert counter.calls / ops <= MAX_CALLS_PER_OP


def test_header_reads_per_frame(counted):
    counter, _ops, frames = counted
    assert frames > 0
    assert counter.watched["header_read"] / frames <= MAX_HEADER_READS_PER_FRAME


def test_pool_allocations_per_round_trip(counted):
    """One pool block per one-way hop: the ping and its echo."""
    counter, ops, _frames = counted
    assert counter.watched["pool_alloc"] / ops == 2
