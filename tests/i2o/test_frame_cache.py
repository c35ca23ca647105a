"""The decode-once header cache stays coherent with the wire bytes.

``Frame`` decodes its header once into slots and every setter writes
the buffer and the slot together.  These properties drive random
sequences of header writes and check that re-decoding the bytes always
gives the fields the frame reports, that a shared delivery's target
override never touches the shared buffer, and that ``Frame.parse``
still rejects exactly the headers the byte-decoding validator did.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.i2o.errors import FrameFormatError
from repro.i2o.frame import (
    FLAG_FAIL,
    FLAG_LAST,
    FLAG_MORE,
    FLAG_REPLY,
    HEADER_FIELDS,
    HEADER_SIZE,
    I2O_VERSION,
    MAX_FRAME_SIZE,
    NUM_PRIORITIES,
    Frame,
    SharedFrame,
)
from repro.i2o.tid import MAX_TID

CAPACITY = 96  # payload room in every test buffer
TARGET_TID = 1
INITIATOR_TID = 2
SHARED_TID = 3
_LAYOUT = struct.Struct("<BBBBHHIHHQQ")
_ALL_FLAGS = FLAG_REPLY | FLAG_FAIL | FLAG_MORE | FLAG_LAST

tids = st.integers(0, MAX_TID)
u64 = st.integers(0, 2**64 - 1)
flags = st.integers(0, _ALL_FLAGS)
priorities = st.integers(0, NUM_PRIORITIES - 1)

header_kwargs = st.fixed_dictionaries({
    "target": tids,
    "initiator": tids,
    "function": st.integers(0, 0xFF),
    "payload_size": st.integers(0, CAPACITY),
    "priority": priorities,
    "flags": flags,
    "organization": st.integers(0, 0xFFFF),
    "xfunction": st.integers(0, 0xFFFF),
    "initiator_context": u64,
    "transaction_context": u64,
})

#: one header write: a settable field and its value, or a whole set_header
writes = st.one_of(
    st.tuples(st.just("target"), tids),
    st.tuples(st.just("initiator"), tids),
    st.tuples(st.just("flags"), flags),
    st.tuples(st.just("priority"), priorities),
    # the context setters mask to 64 bits: feed them wider values too
    st.tuples(st.just("initiator_context"), st.integers(0, 2**70)),
    st.tuples(st.just("transaction_context"), st.integers(0, 2**70)),
    st.tuples(st.just("set_header"), header_kwargs),
)


def fields(frame: Frame) -> dict[str, int]:
    return {name: getattr(frame, name) for name in HEADER_FIELDS}


def fresh_frame(payload_size: int = 8) -> Frame:
    frame = Frame(bytearray(HEADER_SIZE + CAPACITY))
    frame.set_header(target=TARGET_TID, initiator=INITIATOR_TID,
                     function=0xFF, payload_size=payload_size)
    return frame


@given(st.lists(writes, max_size=25))
@settings(max_examples=200, deadline=None)
def test_re_decoding_the_bytes_gives_the_cached_fields(ops):
    frame = fresh_frame()
    for name, value in ops:
        if name == "set_header":
            frame.set_header(**value)
        else:
            setattr(frame, name, value)
    assert fields(Frame(frame.view)) == fields(frame)
    # ...and the bytes behind the view are the wire encoding of them
    assert _LAYOUT.unpack_from(frame.view) == tuple(fields(frame).values())


@given(tids, st.lists(tids, min_size=1, max_size=10), header_kwargs)
@settings(max_examples=100, deadline=None)
def test_shared_target_override_leaves_the_buffer_alone(first, later, header):
    owner = fresh_frame()
    owner.set_header(**header)
    before = bytes(owner.view)
    shared = SharedFrame(owner.view, target=first)
    for tid in later:
        shared.target = tid
    assert bytes(owner.view) == before
    assert shared.target == later[-1]
    assert Frame(owner.view).target == header["target"]
    # every other field is the shared header's
    assert {k: v for k, v in fields(shared).items() if k != "target"} == {
        k: v for k, v in fields(owner).items() if k != "target"
    }


def test_shared_target_setter_validates():
    shared = SharedFrame(fresh_frame().view, target=SHARED_TID)
    with pytest.raises(FrameFormatError):
        shared.target = MAX_TID + 1
    with pytest.raises(FrameFormatError):
        SharedFrame(fresh_frame().view, target=-1)


def byte_validator_rejects(data: bytes) -> bool:
    """Reference validator: decode the header bytes themselves and
    check them, with no cache involved."""
    (version, flag_bits, priority, _function, target, initiator,
     payload_size, *_rest) = _LAYOUT.unpack_from(data)
    total = HEADER_SIZE + payload_size
    return (
        version != I2O_VERSION
        or bool(flag_bits & ~_ALL_FLAGS)
        or priority >= NUM_PRIORITIES
        or target > MAX_TID
        or initiator > MAX_TID
        or total > len(data)
        or total > MAX_FRAME_SIZE
    )


@st.composite
def nearly_valid_frames(draw) -> bytes:
    """Well-formed frame bytes with zero or more header fields broken
    in the ways the validator must catch."""
    header = draw(header_kwargs)
    frame = Frame(bytearray(HEADER_SIZE + CAPACITY))
    frame.set_header(**header)
    data = bytearray(frame.view)
    if draw(st.booleans()):
        data[0] = draw(st.integers(0, 0xFF))  # version
    if draw(st.booleans()):
        data[1] = draw(st.integers(0, 0xFF))  # flags
    if draw(st.booleans()):
        data[2] = draw(st.integers(0, 0xFF))  # priority
    if draw(st.booleans()):
        data[4:6] = draw(st.integers(0, 0xFFFF)).to_bytes(2, "little")
    if draw(st.booleans()):
        data[6:8] = draw(st.integers(0, 0xFFFF)).to_bytes(2, "little")
    if draw(st.booleans()):
        size = draw(st.integers(0, MAX_FRAME_SIZE))
        data[8:12] = size.to_bytes(4, "little")
    return bytes(data)


@given(st.one_of(nearly_valid_frames(), st.binary(min_size=HEADER_SIZE,
                                                  max_size=HEADER_SIZE + 64)))
@settings(max_examples=400, deadline=None)
def test_parse_rejects_exactly_what_the_byte_validator_rejected(data):
    if byte_validator_rejects(data):
        with pytest.raises(FrameFormatError):
            Frame.parse(data)
    else:
        assert fields(Frame.parse(data)) == dict(
            zip(HEADER_FIELDS, _LAYOUT.unpack_from(data))
        )


@pytest.mark.parametrize("offset, raw", [
    (0, b"\x99"),                       # bad version
    (1, b"\x80"),                       # unknown flag bit
    (2, bytes([NUM_PRIORITIES])),       # priority 7
    (4, (MAX_TID + 1).to_bytes(2, "little")),  # target TiD > 0xFFF
    (6, (MAX_TID + 1).to_bytes(2, "little")),  # initiator TiD > 0xFFF
    (8, (CAPACITY + 1).to_bytes(4, "little")),  # payload overruns buffer
])
def test_parse_rejects_each_malformed_field(offset, raw):
    data = bytearray(fresh_frame(payload_size=CAPACITY).view)
    data[offset:offset + len(raw)] = raw
    with pytest.raises(FrameFormatError):
        Frame.parse(data)
