"""Experiment X9 — the flight recorder's dispatch-path overhead.

The black box records two events per dispatched message (begin/end)
plus one per frame allocation and release, each a single preallocated
``pack_into`` — no allocation, no I/O until a crash path spills the
ring.  Three configurations drain the same message load:

``off``
    the stock executive with no recorder — no dispatch observer armed,
    so the hot path pays one empty-tuple test per dispatch;
``recording``
    a :class:`~repro.flightrec.FlightRecorder` attached (ring only,
    no dump dir — spills are crash-path, not steady-state);
``recording+traced``
    recorder plus a :class:`~repro.core.tracing.FrameTracer`, the
    configuration the cross-node timeline merge needs (trace ids ride
    the recorded contexts).

Reported as median ns/message over ``repeats`` runs; the CLI exits
non-zero when recording/off exceeds ``--max-ratio``, which is what the
CI gate invokes.
"""

from __future__ import annotations

import sys
from typing import Callable

from repro.bench.dispatch import drain_once
from repro.bench.overhead import (
    DEFAULT_REPEATS, OverheadResult, gate, gate_parser, medians,
)
from repro.core.executive import Executive
from repro.core.tracing import FrameTracer
from repro.flightrec.recorder import FlightRecorder

DEFAULT_MESSAGES = 20_000
DEFAULT_CAPACITY = 4096


def _configs(capacity: int) -> dict[str, Callable[[], Executive]]:
    def off() -> Executive:
        return Executive(node=0, max_dispatch_per_step=1024)

    def recording() -> Executive:
        exe = Executive(node=0, max_dispatch_per_step=1024)
        exe.attach_flight_recorder(FlightRecorder(capacity=capacity))
        return exe

    def recording_traced() -> Executive:
        exe = Executive(
            node=0, max_dispatch_per_step=1024,
            tracer=FrameTracer(capacity=1024),
        )
        exe.attach_flight_recorder(FlightRecorder(capacity=capacity))
        return exe

    return {
        "off": off,
        "recording": recording,
        "recording+traced": recording_traced,
    }


def run_flightrec(
    messages: int = DEFAULT_MESSAGES,
    repeats: int = DEFAULT_REPEATS,
    capacity: int = DEFAULT_CAPACITY,
) -> OverheadResult:
    configs = _configs(capacity)
    return OverheadResult(
        "X9: flight-recorder overhead per dispatched message",
        "ns/message", "off",
        medians(lambda name: drain_once(configs[name], messages),
                configs, repeats),
    )


def main(argv: list[str] | None = None) -> int:
    parser = gate_parser(
        "python -m repro.bench.flightrec",
        "Measure flight-recorder overhead on the dispatch path.",
    )
    parser.add_argument("--messages", type=int, default=DEFAULT_MESSAGES)
    parser.add_argument("--capacity", type=int, default=DEFAULT_CAPACITY)
    args = parser.parse_args(argv)
    result = run_flightrec(
        messages=args.messages, repeats=args.repeats, capacity=args.capacity
    )
    return gate(result, "recording", args.max_ratio)


if __name__ == "__main__":
    sys.exit(main())
