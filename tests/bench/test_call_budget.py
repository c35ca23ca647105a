"""Deterministic per-operation budgets: Python calls, header reads and
journal compactions.

Runs the benchmark's own workloads under its own counting profiler
(``perfbench.counts.CallCounter``) with its own operation counts
(``perfbench.run.COUNT_OPS``), so the numbers gated here are the ones
``python3 perfbench/run.py --workload <name> --trace 1`` reports.  The
counts depend only on the code path, never on timing, so the gates are
noise-free.
"""

from __future__ import annotations

import pytest

from perfbench.counts import CallCounter
from perfbench.run import COUNT_OPS
from perfbench.workloads import JournaledStream, PingPong
from repro.analysis.sanitize import affinity_enabled, sanitizing_enabled

#: Python calls into the program per round trip (two one-way hops)
MAX_CALLS_PER_OP = 150
#: header-property reads per dispatched frame
MAX_HEADER_READS_PER_FRAME = 10

#: journaled-stream: Python calls per message (send, journal append,
#: timer, ack, observers), header reads per frame, and journal
#: rewrites per 1000 messages
MAX_JOURNALED_CALLS_PER_OP = 215
MAX_JOURNALED_HEADER_READS_PER_FRAME = 18
MAX_COMPACTIONS_PER_KOP = 5
#: flight-recorder facts per journaled message: hoisting reads must
#: not drop one
FLIGHTREC_RECORDS_PER_OP = 17

pytestmark = pytest.mark.skipif(
    sanitizing_enabled() or affinity_enabled(),
    reason="the sanitizer and affinity guard instrument the hot path",
)


def _count(cls, workdir):
    """(counter, ops, counter deltas) for one counted run of ``cls`` on
    a warmed system."""
    warm_ops, ops = COUNT_OPS[cls.name]
    w = cls(seed=1, workdir=workdir)
    w.build()
    try:
        w.run_ops(warm_ops)
        before = w.counters()
        counter = CallCounter(muted=w.muted_codes())
        counter.run(lambda: w.run_ops(ops))
        after = w.counters()
        assert w.check() == []
        assert w.ledger.failed == 0
    finally:
        w.close()
    return counter, ops, {k: after[k] - before.get(k, 0) for k in after}


@pytest.fixture(scope="module")
def counted(tmp_path_factory):
    """(counter, round trips, frames dispatched) for one counted
    pingpong run on a warmed system."""
    counter, ops, delta = _count(PingPong, tmp_path_factory.mktemp("pingpong"))
    return counter, ops, delta["dispatched"]


@pytest.fixture(scope="module")
def journaled(tmp_path_factory):
    """(counter, messages, counter deltas) for one counted
    journaled-stream run on a warmed system."""
    return _count(JournaledStream, tmp_path_factory.mktemp("journaled"))


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


def test_journaled_python_calls_per_message(journaled):
    counter, ops, _delta = journaled
    assert counter.calls / ops <= MAX_JOURNALED_CALLS_PER_OP


def test_journaled_header_reads_per_frame(journaled):
    counter, _ops, delta = journaled
    assert delta["dispatched"] > 0
    reads = counter.watched["header_read"] / delta["dispatched"]
    assert reads <= MAX_JOURNALED_HEADER_READS_PER_FRAME


def test_journaled_pool_allocations_per_message(journaled):
    """One pool block per message and one per its ack."""
    counter, ops, _delta = journaled
    assert counter.watched["pool_alloc"] / ops == 2


def test_journaled_flight_recorder_records_per_message(journaled):
    _counter, ops, delta = journaled
    assert delta["flightrec_records"] / ops == FLIGHTREC_RECORDS_PER_OP


def test_journaled_compactions_per_thousand_messages(journaled):
    """The stores' own ``compactions`` counters, summed over both
    endpoints' journals."""
    _counter, ops, delta = journaled
    assert delta["compactions"] / ops * 1000 <= MAX_COMPACTIONS_PER_KOP
