"""Journal size bound and recovery under the default compaction floor.

Compaction rewrites the segment only once it holds
``COMPACT_MIN_RECORDS`` records and at most ``compact_live_ratio`` of
them are live, so a steady send/ack stream leaves up to a floor's worth
of dead records on disk between rewrites.  These tests pin down what
that costs: the file never holds more than
``max(floor, live / ratio) + 1`` records, and a crash with ~1,000
uncompacted records on disk still replays exactly the live set.
"""

from __future__ import annotations

import random

from repro.durable.journal import REC_SEND, Record, decode_journal, encode_record
from repro.durable.segments import COMPACT_MIN_RECORDS, SegmentStore

WINDOW = 32
#: Journal records carry the destination TiD as plain data; this
#: stands in for a TiD some peer allocated.
PEER_TID = 7


def _records_on_disk(store: SegmentStore) -> list[Record]:
    result = decode_journal(store.path.read_bytes())
    assert not result.truncated
    return result.records


def _bound(store: SegmentStore) -> float:
    return max(store.compact_min_records,
               store.depth / store.compact_live_ratio) + 1


def _payload(rng: random.Random, seq: int) -> bytes:
    return seq.to_bytes(8, "little") + rng.randbytes(56)


def _stream(store: SegmentStore, messages: int, rng: random.Random,
            on_ack=None) -> dict[int, bytes]:
    """Send ``messages`` in order with ``WINDOW`` in flight, acking the
    oldest each time the window is full; returns the unacked payloads."""
    live: dict[int, bytes] = {}
    for seq in range(1, messages + 1):
        live[seq] = _payload(rng, seq)
        store.append_send(seq, 1, PEER_TID, live[seq])
        if len(live) == WINDOW:
            oldest = min(live)
            del live[oldest]
            store.append_ack(oldest)
            if on_ack is not None:
                on_ack()
    return live


def test_default_floor_is_the_module_constant(tmp_path):
    store = SegmentStore(tmp_path / "a.journal")
    assert store.compact_min_records == COMPACT_MIN_RECORDS == 1024
    store.close()


def test_file_stays_within_the_bound_over_a_long_stream(tmp_path):
    store = SegmentStore(tmp_path / "a.journal")
    store.ensure_identity(0, 5)
    peaks: list[int] = []
    compact = store.compact

    def checked_compact() -> None:
        # The file is at its largest right before a rewrite.
        peaks.append(len(_records_on_disk(store)))
        assert peaks[-1] <= _bound(store)
        compact()

    store.compact = checked_compact  # type: ignore[method-assign]
    acks = 0

    def every_ack() -> None:
        nonlocal acks
        acks += 1
        if acks % 64 == 0:
            assert len(_records_on_disk(store)) <= _bound(store)

    live = _stream(store, 3000, random.Random(3), every_ack)
    # ~495 messages per rewrite at this window, against ~16 with the
    # old floor of 64.
    assert 5 <= store.compactions <= 7
    assert all(COMPACT_MIN_RECORDS <= p <= COMPACT_MIN_RECORDS + 1 for p in peaks)
    assert len(_records_on_disk(store)) <= _bound(store)
    assert sorted(store.pending()) == sorted(live)
    store.close()


def test_crash_with_a_floor_of_uncompacted_records_replays_the_live_set(
    tmp_path,
):
    path = tmp_path / "a.journal"
    store = SegmentStore(path)
    store.ensure_identity(0, 5)
    live = _stream(store, 500, random.Random(7))
    assert store.compactions == 0
    on_disk = len(_records_on_disk(store))
    assert 950 <= on_disk < COMPACT_MIN_RECORDS
    store.crash()
    # A torn half-record at the tail, as a death mid-write leaves it.
    with open(path, "ab") as fh:
        fh.write(encode_record(Record(
            kind=REC_SEND, seq=501, node=1, tid=PEER_TID, payload=b"torn" * 16,
        ))[:-5])

    reopened = SegmentStore(path)
    assert reopened.torn_bytes_recovered > 0
    assert reopened.recovered.records == on_disk
    assert reopened.identity == (0, 5)
    assert reopened.recovered.next_seq == 501
    pending = reopened.pending()
    assert sorted(pending) == sorted(live)
    assert {seq: p.payload for seq, p in pending.items()} == live
    # The torn tail was cut off the file: the next append is aligned
    # and a third open decodes cleanly.
    reopened.append_send(501, 1, PEER_TID, b"after")
    reopened.close()
    third = SegmentStore(path)
    assert third.torn_bytes_recovered == 0
    assert sorted(third.pending()) == sorted(live) + [501]
    third.close()
