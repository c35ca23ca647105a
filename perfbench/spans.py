"""Layer spans recorded from outside the program.

The traced run replaces public functions of each layer with wrappers
that record one span per call: name, start, end, the enclosing span
(the span that caused it) and whether the call returned a truthy
value.  Spans are kept in memory in one flat integer array and written
out when the run ends; no file of the program changes.

A span's *self* time is its duration minus the part of its interval
that its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: Fields per span in :attr:`SpanRecorder.data`.
FIELDS = 5  # name id, start ns, end ns, parent index (-1 = root), truthy
NO_PARENT = -1

#: (span name, "module:Owner.attr" or "module:function") — every public
#: function the traced run wraps.  A span name may cover several
#: targets (``transports.poll`` covers both polling transports).
TARGETS: tuple[tuple[str, str], ...] = (
    ("i2o.set_header", "repro.i2o.frame:Frame.set_header"),
    ("mem.alloc", "repro.mem.pool:BufferPool.alloc"),
    ("mem.free", "repro.mem.pool:BufferPool.free"),
    ("core.scheduler.push", "repro.core.scheduler:PriorityScheduler.push"),
    ("core.scheduler.pop", "repro.core.scheduler:PriorityScheduler.pop"),
    ("core.executive.step", "repro.core.executive:Executive.step"),
    ("core.executive.frame_alloc", "repro.core.executive:Executive.frame_alloc"),
    ("core.executive.frame_send", "repro.core.executive:Executive.frame_send"),
    ("core.executive.frame_free", "repro.core.executive:Executive.frame_free"),
    ("core.device.send", "repro.core.device:Listener.send"),
    ("core.device.reply", "repro.core.device:Listener.reply"),
    ("core.device.send_into", "repro.core.device:Listener.send_into"),
    ("dataflow.emit", "repro.core.device:Listener.emit"),
    ("dataflow.outbox_poll", "repro.dataflow.routing:DataflowOutbox.poll"),
    ("transports.forward", "repro.transports.agent:PeerTransportAgent.forward"),
    ("transports.poll", "repro.transports.queued:QueueTransport.poll"),
    ("transports.poll", "repro.transports.loopback:LoopbackTransport.poll"),
    ("transports.ingest", "repro.transports.base:PeerTransport.ingest_block"),
    ("daq.synthesize", "repro.daq.readout:synthesize_fragment"),
    ("daq.parse", "repro.daq.builder:parse_fragment"),
    ("core.reliable.send", "repro.core.reliable:ReliableEndpoint.send_reliable"),
    ("durable.append", "repro.durable.segments:SegmentStore.append_send"),
    ("durable.ack", "repro.durable.segments:SegmentStore.append_ack"),
    ("durable.flush", "repro.durable.segments:SegmentStore.flush"),
    ("durable.compact", "repro.durable.segments:SegmentStore.compact"),
    ("core.timer.start", "repro.core.timer:TimerService.start"),
    ("core.timer.cancel", "repro.core.timer:TimerService.cancel"),
    ("core.timer.poll", "repro.core.timer:TimerService.poll"),
    ("obs.flightrec_record", "repro.flightrec.recorder:FlightRecorder.record"),
    ("obs.tracer", "repro.core.tracing:FrameTracer.stamp"),
    ("obs.tracer", "repro.core.tracing:FrameTracer.note_enqueue"),
    ("obs.tracer", "repro.core.tracing:FrameTracer.forget"),
    ("obs.tracer", "repro.core.tracing:FrameTracer.begin_dispatch"),
    ("obs.tracer", "repro.core.tracing:FrameTracer.end_dispatch"),
    ("obs.hist_observe", "repro.core.metrics:Histogram.observe"),
)


def resolve(target: str) -> tuple[Any, str]:
    """``"pkg.mod:Owner.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class SpanRecorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.data = array("q")
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.data) // FIELDS

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A wrapper recording one span per call of ``fn``."""
        nid = self.name_id(name)
        data = self.data
        stack = self._stack
        clock = self.clock

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(data) // FIELDS
            data.extend((nid, 0, 0, stack[-1] if stack else NO_PARENT, 0))
            stack.append(index)
            base = index * FIELDS
            data[base + 1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                data[base + 2] = clock()
                stack.pop()
            if result:
                data[base + 4] = 1
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- patching --------------------------------------------------------
    def install(self, targets: Iterable[tuple[str, str]] = TARGETS) -> None:
        if self._saved:
            raise RuntimeError("span wrappers are already installed")
        for name, target in targets:
            owner, attr = resolve(target)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        if self._stack:
            raise RuntimeError("span stack not empty at uninstall")

    def dump(self, path: Path) -> None:
        """Write the spans out: a JSON header line (names, field layout,
        count, byte order) followed by the raw int64 array."""
        header = {
            "fields": ["name", "start_ns", "end_ns", "parent", "truthy"],
            "names": self.names,
            "spans": len(self),
            "byteorder": sys.byteorder,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            self.data.tofile(fh)


@dataclass
class SpanStats:
    """Per-name totals over a set of spans."""

    calls: int = 0
    truthy: int = 0
    self_ns: int = 0


def self_times(data: Sequence[int]) -> list[int]:
    """Self time of every span in a flat span array.

    Children are recorded after their parent and in start order, so
    one sweep per parent merges their intervals: overlapping children
    are covered once, and a child reaching past its parent's end is
    clipped to it.
    """
    count = len(data) // FIELDS
    covered = [0] * count
    reach = [0] * count  # furthest child end seen per parent
    for i in range(count):
        base = i * FIELDS
        parent = data[base + 3]
        if parent == NO_PARENT:
            continue
        pbase = parent * FIELDS
        start = max(data[base + 1], reach[parent], data[pbase + 1])
        end = min(data[base + 2], data[pbase + 2])
        if end > start:
            covered[parent] += end - start
        if end > reach[parent]:
            reach[parent] = end
    return [
        data[i * FIELDS + 2] - data[i * FIELDS + 1] - covered[i]
        for i in range(count)
    ]


def aggregate(names: Sequence[str], data: Sequence[int]) -> dict[str, SpanStats]:
    selfs = self_times(data)
    out: dict[str, SpanStats] = {}
    for i, own in enumerate(selfs):
        base = i * FIELDS
        stats = out.setdefault(names[data[base]], SpanStats())
        stats.calls += 1
        stats.truthy += data[base + 4]
        stats.self_ns += own
    return out


def root_coverage_ns(data: Sequence[int], lo: int, hi: int) -> int:
    """Time within ``[lo, hi)`` covered by root spans (their union)."""
    covered = 0
    reach = lo
    for i in range(len(data) // FIELDS):
        base = i * FIELDS
        if data[base + 3] != NO_PARENT:
            continue
        start = max(data[base + 1], reach)
        end = min(data[base + 2], hi)
        if end > start:
            covered += end - start
            reach = end
    return covered
