"""Experiment X11 — continuous-profiling overhead on the native path.

The sampling profiler touches the dispatch hot path in exactly one
place: its :class:`~repro.profile.sampler.DispatchSlot`, a dispatch
observer storing the context at dispatch begin and ``None`` at
dispatch end.
Everything else (the stack walk) happens on the sampler's own thread,
stealing GIL slices rather than inline cycles.  Three configurations
run the same native ping-pong (two executives over the in-process
queue transport, stepped from the measuring thread — the N1 harness):

``off``
    the stock executive: no dispatch observer, one empty-tuple test
    per dispatch and nothing else;
``sampling``
    a :class:`~repro.profile.sampler.SamplingProfiler` registered on
    both executives, watching the measuring thread, sampler thread
    running at the configured rate;
``full-kit``
    sampling plus everything the ``profiling`` bootstrap section can
    arm: dispatch-latency timing with exemplar capture and a
    :class:`~repro.profile.watch.SlowFrameWatch` (budget set high
    enough never to trip — measuring the hook, not the spill).

Reported as median RTT ns over ``repeats`` interleaved runs; the CLI
exits non-zero when sampling/off exceeds ``--max-ratio``, which is
what the CI gate invokes (held at 1.5x).
"""

from __future__ import annotations

import sys

import numpy as np

from repro.bench.overhead import (
    DEFAULT_REPEATS, OverheadResult, gate, gate_parser, medians,
)
from repro.bench.pingpong import run_native_pingpong
from repro.core.executive import Executive
from repro.core.metrics import DispatchTiming
from repro.core.tracing import FrameTracer
from repro.profile.sampler import SamplingProfiler
from repro.profile.watch import SlowFrameWatch

DEFAULT_PAYLOAD = 256
DEFAULT_ROUNDS = 400
DEFAULT_HZ = 487.0
#: full-kit watch budget: high enough that no dispatch ever trips it,
#: so the bench measures the comparison, not the spill path.
_NEVER_TRIPS_NS = 10**12

CONFIGS = ("off", "sampling", "full-kit")


def _run_once(config: str, payload: int, rounds: int, hz: float) -> float:
    """One native ping-pong run under ``config``; median RTT ns."""
    profiler = SamplingProfiler(hz=hz) if config != "off" else None

    def arm(exe: Executive) -> None:
        if profiler is not None:
            profiler.register(exe)
            profiler.watch_thread(exe.node)  # both run on this thread
        if config == "full-kit":
            exe.observe(FrameTracer(node=exe.node, capacity=1024))
            timing = DispatchTiming(exe.metrics)
            timing.hist.enable_exemplars()
            exe.observe(timing)
            SlowFrameWatch(_NEVER_TRIPS_NS).attach(exe)

    if profiler is not None:
        profiler.start()
    try:
        result = run_native_pingpong(payload, rounds, arm=arm)
    finally:
        if profiler is not None:
            profiler.stop()
    return float(np.median(result.rtts_ns))


def run_profile(
    payload: int = DEFAULT_PAYLOAD,
    rounds: int = DEFAULT_ROUNDS,
    repeats: int = DEFAULT_REPEATS,
    hz: float = DEFAULT_HZ,
) -> OverheadResult:
    return OverheadResult(
        "X11: continuous-profiling overhead on the native ping-pong",
        "RTT ns (median)", "off",
        medians(lambda name: _run_once(name, payload, rounds, hz),
                CONFIGS, repeats),
    )


def main(argv: list[str] | None = None) -> int:
    parser = gate_parser(
        "python -m repro.bench.profile",
        "Measure sampling-profiler overhead on the native ping-pong path.",
    )
    parser.add_argument("--payload", type=int, default=DEFAULT_PAYLOAD)
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    parser.add_argument("--hz", type=float, default=DEFAULT_HZ)
    args = parser.parse_args(argv)
    result = run_profile(
        payload=args.payload, rounds=args.rounds,
        repeats=args.repeats, hz=args.hz,
    )
    return gate(result, "sampling", args.max_ratio)


if __name__ == "__main__":
    sys.exit(main())
