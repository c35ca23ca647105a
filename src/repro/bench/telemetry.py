"""Experiment X6 — observability must be near-free when disabled.

The tracer and the dispatch-latency histogram sit on the per-message
hot path the whole paper is about (§5 measures it in nanoseconds), so
the PR 2 acceptance criterion is that *disabled* instrumentation costs
nothing measurable.  Four configurations drain the same message load:

``floor``
    an executive whose enqueue/send paths bypass even the ``is not
    None`` guards — the pre-observability hot path, reconstructed as a
    subclass so the comparison survives future refactors;
``off``
    the stock executive with no dispatch observer armed (the default)
    — what every node pays for being *observable*;
``traced``
    a :class:`~repro.core.tracing.FrameTracer` installed;
``timed``
    tracing plus the dispatch-latency histogram
    (:class:`~repro.core.metrics.DispatchTiming`).

Reported as median ns/message over ``repeats`` runs; the CLI exits
non-zero when off/floor exceeds ``--max-ratio``, which is what the CI
gate invokes.
"""

from __future__ import annotations

import sys
from typing import Callable

from repro.bench.dispatch import drain_once
from repro.bench.overhead import (
    DEFAULT_REPEATS, OverheadResult, gate, gate_parser, medians,
)
from repro.core.executive import Executive
from repro.core.metrics import DispatchTiming
from repro.core.tracing import FrameTracer
from repro.i2o.frame import Frame

DEFAULT_MESSAGES = 20_000


class _FloorExecutive(Executive):
    """The send and enqueue paths exactly as they were before
    observability landed: no tracer guard."""

    def _enqueue(self, frame: Frame, target: int) -> None:
        self.scheduler.push(frame, target)

    def frame_send(self, frame: Frame) -> None:
        if frame.block is None:
            frame.validate()
        self.msgi.post_outbound(frame)


def _configs() -> dict[str, Callable[[], Executive]]:
    def floor() -> Executive:
        return _FloorExecutive(node=0, max_dispatch_per_step=1024)

    def off() -> Executive:
        return Executive(node=0, max_dispatch_per_step=1024)

    def traced() -> Executive:
        return Executive(
            node=0, max_dispatch_per_step=1024,
            tracer=FrameTracer(capacity=1024),
        )

    def timed() -> Executive:
        exe = traced()
        exe.observe(DispatchTiming(exe.metrics))
        return exe

    return {"floor": floor, "off": off, "traced": traced, "timed": timed}


def run_telemetry(
    messages: int = DEFAULT_MESSAGES, repeats: int = DEFAULT_REPEATS
) -> OverheadResult:
    configs = _configs()
    return OverheadResult(
        "X6: observability overhead per dispatched message "
        "(off must ride the floor)",
        "ns/message", "floor",
        medians(lambda name: drain_once(configs[name], messages),
                configs, repeats),
    )


def main(argv: list[str] | None = None) -> int:
    parser = gate_parser(
        "python -m repro.bench.telemetry",
        "Measure observability overhead on the dispatch hot path.",
    )
    parser.add_argument("--messages", type=int, default=DEFAULT_MESSAGES)
    args = parser.parse_args(argv)
    return gate(
        run_telemetry(messages=args.messages, repeats=args.repeats),
        "off", args.max_ratio,
    )


if __name__ == "__main__":
    sys.exit(main())
