"""The messaging instance."""

from __future__ import annotations

import threading

from repro.core.queues import MessagingInstance
from repro.i2o.frame import Frame

TARGET_TID = 1
INITIATOR_TID = 2


def frame(tag: int = 0) -> Frame:
    return Frame.build(target=TARGET_TID, initiator=INITIATOR_TID,
                       transaction_context=tag)


def test_starts_idle():
    msgi = MessagingInstance()
    assert msgi.idle
    assert not msgi.inbound
    assert not msgi.outbound


def test_inbound_fifo():
    msgi = MessagingInstance()
    for tag in range(3):
        msgi.post_inbound(frame(tag))
    assert msgi.inbound_depth == 3
    tags = [msgi.inbound.popleft().transaction_context for _ in range(3)]
    assert tags == [0, 1, 2]


def test_outbound_independent_of_inbound():
    msgi = MessagingInstance()
    msgi.post_outbound(frame(9))
    assert not msgi.inbound
    assert msgi.outbound.popleft().transaction_context == 9


def test_counters():
    msgi = MessagingInstance()
    msgi.post_inbound(frame())
    msgi.post_outbound(frame())
    msgi.post_outbound(frame())
    assert msgi.posted_inbound == 1
    assert msgi.posted_outbound == 2


def test_on_work_callback_fires_for_both_queues():
    calls = []
    msgi = MessagingInstance(on_work=lambda: calls.append(1))
    msgi.post_inbound(frame())
    msgi.post_outbound(frame())
    assert len(calls) == 2


def test_wait_for_work_returns_immediately_if_pending():
    msgi = MessagingInstance()
    msgi.post_inbound(frame())
    assert msgi.wait_for_work(timeout=0) is True


def test_wait_for_work_times_out():
    assert MessagingInstance().wait_for_work(timeout=0.01) is False


def test_wait_for_work_wakes_on_cross_thread_post():
    msgi = MessagingInstance()
    results = []

    def waiter():
        results.append(msgi.wait_for_work(timeout=5))

    t = threading.Thread(target=waiter)
    t.start()
    msgi.post_inbound(frame())
    t.join(timeout=5)
    assert results == [True]
