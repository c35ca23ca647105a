"""Per-layer metrics: what each one measures and what it should move.

This table is the benchmark's map from layer metrics to end-to-end
metrics.  Each entry names the program's module (the layer), the
metric's unit and direction, and the end-to-end metric and workload a
change to that layer should move; on the other workloads the
prediction is no change.  ``BENCHMARK.json`` lists the same names,
units and directions (a test keeps them equal).

Sources:

* ``span`` — from the traced run's spans: mean self time per call, in
  µs, of the spans ``SELF_SPANS`` names (span time minus the time its
  child spans cover), the share of polls that moved a frame, or the
  share of traced time no span covers;
* ``count`` — a deterministic count from the counting pass, a fixed
  number of operations on a fresh system (repeats exactly per seed);
* ``run`` — a counter over the traced run's operations.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    layer: str
    source: str
    moves: str


def _m(name: str, unit: str, source: str, moves: str, better: str = "lower") -> LayerMetric:
    layer = name.rpartition(".")[0] or "whole-run"
    return LayerMetric(name, unit, better, layer, source, moves)


_PP_P50 = "latency_p50_us on pingpong"

LAYER_METRICS: tuple[LayerMetric, ...] = (
    _m("i2o.set_header_us", "us", "span", f"{_PP_P50}, cpu_us_per_op on pingpong"),
    _m("i2o.header_reads_per_frame", "count", "count",
       f"{_PP_P50}, cpu_us_per_op on pingpong"),
    _m("mem.alloc_us", "us", "span", f"{_PP_P50}, mb_per_s on evb"),
    _m("mem.free_us", "us", "span", f"{_PP_P50}, mb_per_s on evb"),
    _m("mem.allocs_per_op", "count", "count", f"{_PP_P50}, mb_per_s on evb"),
    _m("mem.peak_blocks_in_flight", "count", "count", f"{_PP_P50}, mb_per_s on evb"),
    _m("core.scheduler.push_us", "us", "span", f"{_PP_P50}, latency_p99_us on evb"),
    _m("core.scheduler.pop_us", "us", "span", f"{_PP_P50}, latency_p99_us on evb"),
    _m("core.scheduler.peak_depth", "count", "count",
       f"{_PP_P50}, latency_p99_us on evb"),
    _m("core.executive.step_self_us", "us", "span", "cpu_us_per_op on all three"),
    _m("core.executive.idle_step_frac", "ratio", "count", "cpu_us_per_op on all three"),
    _m("core.executive.py_calls_per_op", "count", "count", "cpu_us_per_op on all three"),
    _m("core.device.send_us", "us", "span", _PP_P50),
    _m("transports.forward_us", "us", "span",
       f"{_PP_P50} (queue transport), ops_per_s on evb (loopback)"),
    _m("transports.poll_us", "us", "span",
       f"{_PP_P50} (queue transport), ops_per_s on evb (loopback)"),
    _m("transports.useful_poll_frac", "ratio", "span",
       f"{_PP_P50} (queue transport), ops_per_s on evb (loopback)", "higher"),
    _m("transports.copies_per_frame", "count", "count",
       f"{_PP_P50} (queue transport), ops_per_s on evb (loopback)"),
    _m("dataflow.emit_us", "us", "span", "ops_per_s and latency_p99_us on evb"),
    _m("dataflow.parked_per_op", "count", "count", "ops_per_s and latency_p99_us on evb"),
    _m("dataflow.shed_per_op", "count", "count", "ops_per_s and latency_p99_us on evb"),
    _m("daq.synthesize_us", "us", "span", "ops_per_s on evb"),
    _m("daq.parse_us", "us", "span", "ops_per_s on evb"),
    _m("daq.fragments_per_event", "count", "count", "ops_per_s on evb"),
    _m("core.reliable.send_us", "us", "span",
       "ops_per_s and cpu_us_per_op on journaled-stream"),
    _m("core.reliable.retransmits_per_op", "count", "run",
       "ops_per_s and cpu_us_per_op on journaled-stream"),
    _m("core.reliable.duplicates_per_op", "count", "run",
       "ops_per_s and cpu_us_per_op on journaled-stream"),
    _m("durable.append_us", "us", "span", "ops_per_s and cpu_us_per_op on journaled-stream"),
    _m("durable.ack_us", "us", "span", "ops_per_s and cpu_us_per_op on journaled-stream"),
    _m("durable.flushes_per_op", "count", "count",
       "ops_per_s and cpu_us_per_op on journaled-stream"),
    _m("durable.bytes_per_op", "B", "count",
       "ops_per_s and cpu_us_per_op on journaled-stream"),
    _m("durable.compactions_per_kop", "count", "count",
       "ops_per_s and cpu_us_per_op on journaled-stream"),
    _m("core.timer.start_us", "us", "span", "ops_per_s and cpu_us_per_op on journaled-stream"),
    _m("core.timer.cancel_us", "us", "span", "ops_per_s and cpu_us_per_op on journaled-stream"),
    _m("core.timer.poll_us", "us", "span", "ops_per_s and cpu_us_per_op on journaled-stream"),
    _m("obs.flightrec_record_us", "us", "span", "ops_per_s on journaled-stream"),
    _m("obs.flightrec_records_per_op", "count", "count", "ops_per_s on journaled-stream"),
    _m("obs.tracer_us", "us", "span", "ops_per_s on journaled-stream"),
    _m("obs.hist_observe_us", "us", "span", "ops_per_s on journaled-stream"),
    _m("residual_frac", "ratio", "span",
       "share of op wall time no layer span covers (Table 1 vs Figure 6 check)"),
    _m("trace_overhead_frac", "ratio", "run",
       "share of ops_per_s lost to tracing (traced against untraced segments)"),
)

#: Span names whose mean self time each ``_us`` metric reports.
SELF_SPANS: dict[str, tuple[str, ...]] = {
    "i2o.set_header_us": ("i2o.set_header",),
    "mem.alloc_us": ("mem.alloc",),
    "mem.free_us": ("mem.free",),
    "core.scheduler.push_us": ("core.scheduler.push",),
    "core.scheduler.pop_us": ("core.scheduler.pop",),
    "core.executive.step_self_us": ("core.executive.step",),
    "core.device.send_us": (
        "core.device.send", "core.device.reply", "core.device.send_into",
        "dataflow.emit",
    ),
    "transports.forward_us": ("transports.forward",),
    "transports.poll_us": ("transports.poll",),
    "dataflow.emit_us": ("dataflow.emit",),
    "daq.synthesize_us": ("daq.synthesize",),
    "daq.parse_us": ("daq.parse",),
    "core.reliable.send_us": ("core.reliable.send",),
    "durable.append_us": ("durable.append",),
    "durable.ack_us": ("durable.ack",),
    "core.timer.start_us": ("core.timer.start",),
    "core.timer.cancel_us": ("core.timer.cancel",),
    "core.timer.poll_us": ("core.timer.poll",),
    "obs.flightrec_record_us": ("obs.flightrec_record",),
    "obs.tracer_us": ("obs.tracer",),
    "obs.hist_observe_us": ("obs.hist_observe",),
}
