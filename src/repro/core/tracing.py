"""Distributed frame tracing over the I2O context fields.

The I2O frame header carries two 64-bit fields that the architecture
already promises to preserve end-to-end: ``transaction_context``
(copied into replies, broadcast clones and dead-letter failures) and
``initiator_context`` (echoed untouched by the responder).  The tracer
exploits that: a trace id rides ``transaction_context`` across every
hop — peer transports serialise the full header, the reliable endpoint
tunnels whole frames, and the DAQ event builder leaves the field at
zero — so *no protocol gains a private verb* to become traceable.

Trace ids are tagged in the top 12 bits (:data:`TRACE_TAG`) so they
can never be confused with application or timer contexts, which are
small integers.  Layout::

    63          52 51      40 39                         0
    +-------------+----------+---------------------------+
    |  0xACE tag  |  node id |       local sequence      |
    +-------------+----------+---------------------------+

Each executive that has a :class:`FrameTracer` installed records one
:class:`Span` per dispatched frame belonging to a trace: node, target
TiD, function codes, enqueue-to-dispatch queue wait and dispatch
duration — the per-hop breakdown of paper §5's whitebox probes, but
stitched *across* nodes by the collector.  Spans live in a bounded
ring (old spans fall off; ``dropped`` counts them), so tracing can
stay on in production without growing memory.

The tracer is one of the executive's dispatch observers
(:class:`DispatchObserver`): every observer receives the same
per-dispatch record the flight recorder stores as
``EV_DISPATCH_BEGIN``/``EV_DISPATCH_END``, and with none armed the
dispatch loop pays a single test of its empty observer tuple.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.i2o.frame import Frame

#: Discriminator in the top 12 bits of a trace id.
TRACE_TAG = 0xACE
TRACE_TAG_SHIFT = 52
_NODE_SHIFT = 40
_SEQ_MASK = (1 << _NODE_SHIFT) - 1


def make_trace_id(node: int, seq: int) -> int:
    """Build a tagged 64-bit trace id rooted at ``node``."""
    return (
        (TRACE_TAG << TRACE_TAG_SHIFT)
        | ((node & 0xFFF) << _NODE_SHIFT)
        | (seq & _SEQ_MASK)
    )


def is_trace_context(value: int) -> bool:
    """True when a ``transaction_context`` value carries a trace id."""
    return (value >> TRACE_TAG_SHIFT) == TRACE_TAG


def trace_root_node(trace_id: int) -> int:
    """The node that rooted a trace (allocated its id)."""
    return (trace_id >> _NODE_SHIFT) & 0xFFF


@dataclass(frozen=True, slots=True)
class Span:
    """One dispatch hop of a traced operation."""

    trace_id: int
    span_id: int
    node: int
    tid: int
    function: int
    xfunction: int
    start_ns: int
    queue_wait_ns: int
    dispatch_ns: int


class DispatchObserver:
    """A consumer of the executive's one per-dispatch record.

    Armed with :meth:`~repro.core.executive.Executive.observe`, an
    observer receives the fields of the flight recorder's 48-byte
    ``EV_DISPATCH_BEGIN``/``EV_DISPATCH_END`` records: the frame's
    ``transaction_context`` (``ctx``), the packed ``(target, function,
    xfunction)`` header (``hdr``, see
    :func:`~repro.flightrec.records.pack3`) and the dispatch's start
    and end clock readings.  The executive reads the clock and the
    header once per dispatch, however many observers are armed, and
    calls them in arming order.  :meth:`dispatch_error` runs just
    before :meth:`end_dispatch` when the handler raised.  The hooks
    do nothing by default; subclasses override what they consume.
    """

    __slots__ = ()

    def begin_dispatch(
        self, frame: "Frame", ctx: int, hdr: int, start_ns: int
    ) -> None:
        pass

    def end_dispatch(
        self, ctx: int, hdr: int, start_ns: int, end_ns: int
    ) -> None:
        pass

    def dispatch_error(
        self, ctx: int, hdr: int, start_ns: int, end_ns: int
    ) -> None:
        pass


class FrameTracer(DispatchObserver):
    """Per-executive trace-id allocator and span ring.

    The executive drives it from four hook points, all passing the
    clock reading in (the tracer is clock-agnostic, so it works on
    both the native and simulation planes):

    * :meth:`stamp` at ``frame_send`` — roots a new trace for frames
      sent from outside any dispatch, or propagates the active trace
      to frames sent *during* a dispatch; never overwrites a non-zero
      ``transaction_context`` (application and timer contexts, and
      contexts already carried across the wire, pass untouched);
    * :meth:`note_enqueue` when a frame enters the scheduler;
    * :meth:`begin_dispatch` / :meth:`end_dispatch` around the upcall
      (as a dispatch observer), recording the hop's span;
    * :meth:`forget` when a frame is released without dispatch.
    """

    def __init__(self, node: int | None = None, capacity: int = 1024) -> None:
        self.node = node
        self.capacity = capacity
        self.spans: deque[Span] = deque(maxlen=capacity)
        self.dropped = 0
        self.allocated = 0
        self._seq = 0
        self._span_seq = 0
        self._active = 0
        self._in_dispatch = False
        self._queue_wait = 0

    # -- trace-id allocation ------------------------------------------------
    def _fresh_id(self) -> int:
        self._seq += 1
        self.allocated += 1
        return make_trace_id(self.node or 0, self._seq)

    def stamp(self, frame: "Frame") -> None:
        if frame.transaction_context != 0 or frame.is_reply:
            return
        if self._in_dispatch:
            # Sends made by the handler continue the dispatched frame's
            # trace; an untraced dispatch lazily roots one so a chain
            # started by e.g. a timer handler is still stitched.
            if self._active == 0:
                self._active = self._fresh_id()
            frame.transaction_context = self._active
        else:
            frame.transaction_context = self._fresh_id()

    # -- scheduler hooks ----------------------------------------------------
    # The enqueue timestamp rides the frame itself (``trace_mark``),
    # not a dict keyed by ``id(frame)``: id() values recycle with the
    # allocator, so a released frame's stale entry could alias a new
    # frame at the same address and inflate its queue_wait_ns.
    def note_enqueue(self, frame: "Frame", now_ns: int) -> None:
        frame.trace_mark = now_ns

    def forget(self, frame: "Frame") -> None:
        frame.trace_mark = None

    # -- dispatch hooks -----------------------------------------------------
    def begin_dispatch(
        self, frame: "Frame", ctx: int, hdr: int, start_ns: int
    ) -> None:
        """Open the hop: its queue wait, and the trace that sends made
        during the dispatch continue."""
        enqueued = frame.trace_mark
        frame.trace_mark = None
        self._queue_wait = start_ns - enqueued if enqueued is not None else 0
        self._active = ctx if (ctx >> TRACE_TAG_SHIFT) == TRACE_TAG else 0
        self._in_dispatch = True

    def end_dispatch(
        self, ctx: int, hdr: int, start_ns: int, end_ns: int
    ) -> None:
        trace_id = self._active
        self._active = 0
        self._in_dispatch = False
        if trace_id == 0:
            return
        if len(self.spans) == self.capacity:
            self.dropped += 1
        self._span_seq += 1
        self.spans.append(Span(
            trace_id, self._span_seq, self.node or 0, hdr >> 32,
            (hdr >> 16) & 0xFFFF, hdr & 0xFFFF, start_ns, self._queue_wait,
            end_ns - start_ns,
        ))

    # -- export -------------------------------------------------------------
    def snapshot_spans(self) -> list[Span]:
        return list(self.spans)
