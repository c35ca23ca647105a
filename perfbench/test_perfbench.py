"""Tests of the benchmark's own arithmetic.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.layers import LAYER_METRICS  # noqa: E402
from perfbench.run import E2E_UNITS  # noqa: E402
from perfbench.spans import (  # noqa: E402
    FIELDS,
    NO_PARENT,
    SpanRecorder,
    aggregate,
    root_coverage_ns,
    self_times,
)
from perfbench.stats import OpLedger, samples_beyond, tail_percentile  # noqa: E402


def spans(*rows: tuple[int, int, int, int]) -> array:
    """Flat span array from (name, start, end, parent) rows."""
    data = array("q")
    for name, start, end, parent in rows:
        data.extend((name, start, end, parent, 0))
    return data


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    data = spans(
        (0, 0, 100, NO_PARENT),  # root
        (1, 10, 40, 0),          # child
        (2, 15, 25, 1),          # grandchild: covers part of the child
        (1, 50, 60, 0),          # second child
    )
    assert self_times(data) == [100 - 30 - 10, 30 - 10, 10, 10]


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    data = spans(
        (0, 0, 100, NO_PARENT),
        (1, 10, 40, 0),
        (1, 30, 50, 0),   # overlaps the first child by 10
        (1, 90, 120, 0),  # runs past the parent's end: clipped to 10
    )
    assert self_times(data)[0] == 100 - 40 - 10


def test_recorder_wrappers_nest_and_aggregate():
    ticks = iter(range(0, 1000, 10))
    recorder = SpanRecorder(clock=lambda: next(ticks))
    inner = recorder.wrap("inner", lambda x: x)
    outer = recorder.wrap("outer", lambda: inner(0) or inner(1))

    assert outer() == 1
    # names: inner 0, outer 1.  outer [0, 50] returned 1; its children
    # inner [10, 20] returned 0 and inner [30, 40] returned 1
    assert list(recorder.data) == [
        1, 0, 50, NO_PARENT, 1,
        0, 10, 20, 0, 0,
        0, 30, 40, 0, 1,
    ]
    stats = aggregate(recorder.names, recorder.data)
    assert (stats["outer"].calls, stats["outer"].self_ns) == (1, 30)
    assert (stats["inner"].calls, stats["inner"].self_ns, stats["inner"].truthy) == (2, 20, 1)
    assert root_coverage_ns(recorder.data, 0, 1000) == 50
    assert root_coverage_ns(recorder.data, 25, 1000) == 25


def test_recorder_installs_and_restores_targets():
    original = OpLedger.__dict__["start"]
    recorder = SpanRecorder()
    recorder.install([("ledger.start", "perfbench.stats:OpLedger.start")])
    try:
        OpLedger().start(1)
    finally:
        recorder.uninstall()
    assert OpLedger.__dict__["start"] is original
    assert len(recorder) == 1 and len(recorder.data) == FIELDS
    assert recorder.names == ["ledger.start"]


# -- tail percentile rule ----------------------------------------------------

@pytest.mark.parametrize(
    ("n", "expected"),
    [
        (9, None),
        (19, None),
        (20, 50.0),
        (40, 75.0),
        (100, 90.0),
        (999, 95.0),
        (1000, 99.0),
        (9999, 99.0),
        (10_000, 99.9),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


# -- failed operations -------------------------------------------------------

def test_ledger_counts_missing_wrong_duplicate_and_stray_completions():
    ledger = OpLedger()
    for op in range(5):
        ledger.start(op)
    ledger.finish(0)              # good
    ledger.finish(1, ok=False)    # wrong result
    ledger.finish(2)
    ledger.finish(2)              # completed twice: one stray
    ledger.finish(99)             # never started: stray
    # op 3 and op 4 never complete
    assert (ledger.attempted, ledger.good, ledger.stray) == (5, 2, 2)
    assert ledger.outstanding == 2
    assert ledger.failed == (5 - 2) + 2


def test_ledger_refuses_to_start_an_operation_twice():
    ledger = OpLedger()
    ledger.start(1)
    with pytest.raises(ValueError):
        ledger.start(1)


# -- host-speed scaling ------------------------------------------------------

def test_each_block_is_scaled_by_its_own_speed_factor():
    from perfbench.run import at_reference_speed

    latencies = array("q", [5, 10, 20, 40, 99])
    blocks = [
        (1000, 800, 1, 3, 1.0),  # ops 1 and 2 at the reference speed
        (2000, 600, 3, 4, 0.5),  # op 3 on a host twice as slow
    ]
    lat, wall, cpu = at_reference_speed(blocks, latencies)
    assert lat == [10.0, 20.0, 20.0]  # op 0 and op 4 lie outside the blocks
    assert (wall, cpu) == (1000 + 1000, 800 + 300)


# -- the benchmark's declaration ---------------------------------------------

def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in LAYER_METRICS
    ]


def test_counting_pass_repeats_exactly(tmp_path):
    from perfbench.run import counting_pass
    from perfbench.workloads import PingPong

    runs = []
    for i in range(2):
        errors: list[str] = []
        _, counts = counting_pass(PingPong, 7, tmp_path / str(i), errors)
        assert errors == []
        runs.append(counts)
    assert runs[0] == runs[1]
    assert runs[0]["mem.allocs_per_op"] == 2
    assert runs[0]["transports.copies_per_frame"] == 0
