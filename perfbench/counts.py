"""Deterministic per-operation counts, taken with ``sys.setprofile``.

The counting pass runs a fixed number of operations on a freshly built
and warmed system, with no span wrappers installed, so each count
depends only on the program's code path and the seed — never on
timing.  Counts are reported as counts, not as speeds.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable
from types import CodeType
from typing import Any

#: Frame header properties whose every read re-decodes the header.
HEADER_PROPERTIES = (
    "version", "flags", "priority", "function", "target", "initiator",
    "payload_size", "organization", "xfunction", "initiator_context",
    "transaction_context",
)


def _watched_codes() -> dict[CodeType, str]:
    from repro.core.executive import Executive
    from repro.core.scheduler import PriorityScheduler
    from repro.durable.segments import SegmentStore
    from repro.i2o.frame import Frame, SharedFrame
    from repro.mem.pool import BufferPool

    codes: dict[CodeType, str] = {}
    for name in HEADER_PROPERTIES:
        codes[Frame.__dict__[name].fget.__code__] = "header_read"
    codes[SharedFrame.__dict__["target"].fget.__code__] = "header_read"
    codes[BufferPool.alloc.__code__] = "pool_alloc"
    codes[SegmentStore.flush.__code__] = "journal_flush"
    codes[Executive.step.__code__] = "step"
    codes[PriorityScheduler.push.__code__] = "scheduler_push"
    return codes


class CallCounter:
    """Counts the program's Python-level calls (all, and of a few
    watched functions), executive steps that did no work, and the
    deepest any scheduler got.  Calls into the benchmark's own code —
    the stepping loop, completion hooks — are not the program's and are
    left out, as is everything beneath a ``muted`` function (the
    benchmark's result checks, which read frames through the program's
    accessors)."""

    def __init__(self, muted: Iterable[CodeType] = ()) -> None:
        import repro

        self._prefix = repro.__path__[0]
        self._muted = frozenset(muted)
        self.calls = 0
        self.peak_scheduler_depth = 0
        self.watched: dict[str, int] = {
            "header_read": 0, "pool_alloc": 0, "journal_flush": 0,
            "step": 0, "scheduler_push": 0,
        }
        self.idle_steps = 0
        self._codes = _watched_codes()

    def run(self, body: Callable[[], Any]) -> Any:
        codes = self._codes
        watched = self.watched
        by_key = {key: code for code, key in codes.items()}
        step_code = by_key["step"]
        push_code = by_key["scheduler_push"]
        muted = self._muted
        prefix = self._prefix
        ours: dict[CodeType, bool] = {}
        calls = 0
        idle = 0
        mute_depth = 0
        peak = self.peak_scheduler_depth

        def profile(frame: Any, event: str, arg: Any) -> None:
            nonlocal calls, idle, mute_depth, peak
            if event == "call":
                code = frame.f_code
                if code in muted:
                    mute_depth += 1
                    return
                if mute_depth:
                    return
                mine = ours.get(code)
                if mine is None:
                    mine = ours[code] = code.co_filename.startswith(prefix)
                if not mine:
                    return
                calls += 1
                key = codes.get(code)
                if key is not None:
                    watched[key] += 1
            elif event == "return":
                code = frame.f_code
                if code in muted:
                    mute_depth -= 1
                elif mute_depth:
                    return
                elif code is step_code:
                    if arg is False:
                        idle += 1
                elif code is push_code:
                    # The profiler is off inside this callback, so the
                    # scheduler's own __len__ runs uncounted.
                    peak = max(peak, len(frame.f_locals["self"]))

        sys.setprofile(profile)
        try:
            result = body()
        finally:
            sys.setprofile(None)
        self.calls += calls
        self.idle_steps += idle
        self.peak_scheduler_depth = peak
        return result
