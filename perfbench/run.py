"""Run one workload of the native-plane benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload pingpong --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped,
scaled to a reference host speed (``calibrate.py``);
``--trace 1`` gives the per-layer metrics: a counting pass over a fixed
number of operations (deterministic counts), then a timed run that
alternates untraced and traced segments (layer self times, residual
and tracing overhead).  Both modes check the program's outputs and
the simulation plane's Table 1 / Figure 6 results.  Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
#: scratch space inside the checkout: journals while running, spans after
OUT = ROOT / ".perfbench_out"

#: set-ups timed per run (after one untimed build that loads the code)
SETUPS = 51
WARMUP_S = 0.5
#: the timed run alternates SLICE_S of workload with one calibration
#: pass and scales each block of SLICES_PER_BLOCK slices by its host
#: speed (see calibrate.py)
SLICE_S = 0.01
SLICES_PER_BLOCK = 100
#: latency_p99_us is the median over groups of this many consecutive
#: ops of each group's p99: every p99 has 10 samples beyond it, and a
#: burst of host interference moves one group, not the metric
P99_GROUP = 1000
#: traced run: cycles of an untraced then a traced segment; traced
#: time totals at most TRACED_S (spans are kept in memory)
CYCLES = 10
TRACED_S = 3.0
#: counting pass: (warm-up ops, counted ops) per workload
COUNT_OPS = {"pingpong": (200, 500), "evb": (64, 160), "journaled-stream": (200, 400)}

#: the end-to-end metrics BENCHMARK.json declares; the JSON line of a
#: ``--trace 0`` run carries exactly these
E2E_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_us": "us",
    "mb_per_s": "MB/s",
    "cpu_us_per_op": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: printed by every ``--trace 0`` run but not declared: over ten runs
#: latency_p99_us spread by 0.13 on journaled-stream, whose tail is
#: made of clusters of ops delayed together a few times a second (see
#: README), and failed_frac is 0 on a correct run (the JSON line
#: carries ``attempted`` and ``failed``)
PRINTED_ONLY = {"latency_p99_us": "us", "failed_frac": "ratio"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def rate(marks: list[tuple[int, int, int]]) -> float:
    """Ops per second between the first and the last mark."""
    (t0, _, n0), (t1, _, n1) = marks[0], marks[-1]
    return (n1 - n0) / ((t1 - t0) / 1e9)


def timed_builds(cls: Any, seed: int, workdir: Path) -> tuple[Any, list[float], float]:
    """Build ``SETUPS`` times; return the last system, each build's
    wall time and the host-speed factor measured around the builds.
    One untimed build first loads the program's code."""
    from perfbench import calibrate

    warm = cls(seed, workdir / "warm")
    warm.build()
    warm.close()
    times, cals = [], []
    for i in range(SETUPS):
        w = cls(seed, workdir / f"setup{i}")
        gc.collect()
        cals.append(calibrate.kernel())
        t0 = time.perf_counter()
        w.build()
        times.append(time.perf_counter() - t0)
        if i < SETUPS - 1:
            w.close()
    return w, times, calibrate.factor(cals)


def calibrated_run(w: Any, seconds: float) -> list[tuple[int, int, int, int, float]]:
    """Drive ``w`` for about ``seconds`` of workload time in blocks.
    Returns per block ``(wall ns, cpu ns, first op, end op, speed
    factor)``; wall and cpu leave the calibration passes out."""
    from perfbench import calibrate

    blocks = []
    for _ in range(max(1, round(seconds / (SLICE_S * SLICES_PER_BLOCK)))):
        wall = cpu = 0
        first = w.completed
        cals = []
        for _ in range(SLICES_PER_BLOCK):
            (t0, c0, _), (t1, c1, _) = w.run_for(SLICE_S)
            wall += t1 - t0
            cpu += c1 - c0
            cals.append(calibrate.kernel())
        blocks.append((wall, cpu, first, w.completed, calibrate.factor(cals)))
    return blocks


def at_reference_speed(blocks: list[tuple[int, int, int, int, float]],
                       latencies: Any) -> tuple[list[float], float, float]:
    """Scale every block by its speed factor: the latencies of the ops
    each block completed (in completion order), and the blocks' total
    wall and cpu time, all in ns at the reference speed."""
    lat: list[float] = []
    for _, _, first, end, f in blocks:
        lat.extend(x * f for x in latencies[first:end])
    return (lat, sum(b[0] * b[4] for b in blocks),
            sum(b[1] * b[4] for b in blocks))


def end_to_end(cls: Any, seed: int, seconds: float, workdir: Path,
               errors: list[str]) -> tuple[Any, dict[str, float], list[str]]:
    """Time the closed loop and report every end-to-end metric at the
    reference host speed; the unscaled figures go into the notes."""
    from statistics import median

    from perfbench.stats import percentile, samples_beyond, tail_percentile

    w, setups, setup_factor = timed_builds(cls, seed, workdir)
    try:
        w.run_for(WARMUP_S)
        gc.collect()
        blocks = calibrated_run(w, seconds)
        w.drain()
        errors += w.check()
        # Before the statistics below, which copy every sample.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        w.close()
    lat, scaled_wall, scaled_cpu = at_reference_speed(blocks, w.latencies)
    groups = [sorted(lat[i:i + P99_GROUP])
              for i in range(0, len(lat) - P99_GROUP + 1, P99_GROUP)]
    lat.sort()
    raw_lat = sorted(w.latencies[blocks[0][2]:blocks[-1][3]])
    n = len(lat)
    wall = sum(b[0] for b in blocks)
    factors = sorted(b[4] for b in blocks)
    if not groups or samples_beyond(P99_GROUP, 99.0) < 10:
        errors.append(f"only {n} latency samples: too few for latency_p99_us")
    tail = tail_percentile(n)
    ops_per_s = n / (scaled_wall / 1e9)
    metrics = {
        "ops_per_s": ops_per_s,
        "latency_p50_us": percentile(lat, 50.0) / 1e3 if n else 0.0,
        "latency_p99_us": median([percentile(g, 99.0) for g in groups]) / 1e3
        if groups else 0.0,
        "mb_per_s": ops_per_s * w.bytes_per_op / 1e6,
        "cpu_us_per_op": scaled_cpu / 1e3 / max(1, n),
        "setup_s": median(setups) * setup_factor,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [
        f"latency samples: {n}; latency_p99_us is the median p99 of "
        f"{len(groups)} groups of {P99_GROUP} ops "
        f"({samples_beyond(P99_GROUP, 99.0)} samples beyond each)",
        f"whole-run tail: p{tail} = {percentile(lat, tail) / 1e3:.1f} us "
        f"(highest percentile with >=10 of {n} samples beyond)" if tail else
        "whole-run tail: too few samples",
        f"host speed factor: {len(blocks)} blocks, min {factors[0]:.3f} "
        f"median {median(factors):.3f} max {factors[-1]:.3f}; "
        f"set-up {setup_factor:.3f}",
        "unscaled: "
        f"ops_per_s {n / (wall / 1e9):.6g}, "
        f"latency_p50_us {percentile(raw_lat, 50.0) / 1e3 if n else 0.0:.6g}, "
        f"latency_p99_us {percentile(raw_lat, 99.0) / 1e3 if n else 0.0:.6g}, "
        f"cpu_us_per_op {sum(b[1] for b in blocks) / 1e3 / max(1, n):.6g}, "
        f"setup_s {median(setups):.6g}",
    ]
    return w, metrics, notes


def counting_pass(cls: Any, seed: int, workdir: Path,
                  errors: list[str]) -> tuple[Any, dict[str, float]]:
    """Fixed operations on a fresh, warmed system under sys.setprofile."""
    import repro.durable.segments as segments

    from perfbench.counts import CallCounter

    warm_ops, ops = COUNT_OPS[cls.name]
    w = cls(seed, workdir / "count")
    w.build()
    journal_bytes = 0
    encode = segments.encode_record

    def counting_encode(record: Any) -> bytes:
        nonlocal journal_bytes
        data = encode(record)
        journal_bytes += len(data)
        return data

    try:
        w.run_ops(warm_ops)
        before = w.counters()
        counter = CallCounter(muted=w.muted_codes())
        segments.encode_record = counting_encode
        try:
            counter.run(lambda: w.run_ops(ops))
        finally:
            segments.encode_record = encode
        after = w.counters()
        errors += w.check()
    finally:
        w.close()

    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    seen = counter.watched
    frames = delta("dispatched")
    return w, {
        "i2o.header_reads_per_frame": seen["header_read"] / frames,
        "mem.allocs_per_op": seen["pool_alloc"] / ops,
        "mem.peak_blocks_in_flight": after["peak_blocks"],
        "core.scheduler.peak_depth": counter.peak_scheduler_depth,
        "core.executive.idle_step_frac": counter.idle_steps / seen["step"],
        "core.executive.py_calls_per_op": counter.calls / ops,
        "transports.copies_per_frame": delta("copies") / max(1, delta("frames_received")),
        "dataflow.parked_per_op": delta("parked") / ops,
        "dataflow.shed_per_op": delta("shed") / ops,
        "daq.fragments_per_event": delta("fragments") / ops,
        "durable.flushes_per_op": seen["journal_flush"] / ops,
        "durable.bytes_per_op": journal_bytes / ops,
        "durable.compactions_per_kop": delta("compactions") / ops * 1000,
        "obs.flightrec_records_per_op": delta("flightrec_records") / ops,
    }


def traced_run(cls: Any, seed: int, seconds: float, workdir: Path,
               errors: list[str], workload: str) -> tuple[Any, dict[str, float], list[str]]:
    """Alternate untraced and traced segments on one system."""
    from perfbench.layers import SELF_SPANS
    from statistics import median

    from perfbench.spans import SpanRecorder, aggregate, root_coverage_ns

    w = cls(seed, workdir / "trace")
    w.build()
    recorder = SpanRecorder()
    slowdowns: list[float] = []
    traced: list[tuple[int, int]] = []
    traced_ops = 0
    on_s = min(seconds / 2, TRACED_S) / CYCLES
    off_s = seconds / CYCLES - on_s
    try:
        w.run_for(WARMUP_S)
        gc.collect()
        before, ops_before = w.counters(), w.completed
        for _ in range(CYCLES):
            untraced = rate(w.run_for(off_s))
            recorder.install()
            try:
                marks = w.run_for(on_s)
            finally:
                recorder.uninstall()
            slowdowns.append(rate(marks) / untraced)
            traced.append((marks[0][0], marks[-1][0]))
            traced_ops += marks[-1][2] - marks[0][2]
        after, ops = w.counters(), w.completed - ops_before
        w.drain()
        errors += w.check()
    finally:
        w.close()
    recorder.dump(OUT / f"spans-{workload}.bin")
    stats = aggregate(recorder.names, recorder.data)
    wall = sum(hi - lo for lo, hi in traced)
    covered = sum(root_coverage_ns(recorder.data, lo, hi) for lo, hi in traced)
    metrics: dict[str, float] = {}
    for name, spans in SELF_SPANS.items():
        calls = sum(stats[s].calls for s in spans if s in stats)
        own = sum(stats[s].self_ns for s in spans if s in stats)
        metrics[name] = own / calls / 1e3 if calls else 0.0
    polls = stats.get("transports.poll")
    metrics["transports.useful_poll_frac"] = (
        polls.truthy / polls.calls if polls else 0.0
    )
    metrics["core.reliable.retransmits_per_op"] = (
        (after.get("retransmits", 0) - before.get("retransmits", 0)) / max(1, ops)
    )
    metrics["core.reliable.duplicates_per_op"] = (
        (after.get("duplicates", 0) - before.get("duplicates", 0)) / max(1, ops)
    )
    metrics["residual_frac"] = 1.0 - covered / wall
    metrics["trace_overhead_frac"] = 1.0 - median(slowdowns)

    per_op = max(1, traced_ops)
    notes = [f"traced segments: {len(recorder)} spans over {traced_ops} ops; "
             "self time by span:"]
    for name, st in sorted(stats.items(), key=lambda kv: -kv[1].self_ns):
        notes.append(
            f"  {name:<28} calls/op {st.calls / per_op:8.2f}"
            f"  self us/op {st.self_ns / 1e3 / per_op:9.2f}"
            f"  share {st.self_ns / wall:6.1%}"
        )
    notes.append(f"  {'(no span: residual)':<28} {'':17}  share {1 - covered / wall:6.1%}")
    return w, metrics, notes


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Run every workload, each in its own process, and print all their
    metrics; the last line merges them as ``<workload>.<metric>``."""
    import subprocess

    merged: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0,
                              "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import simcheck
    from perfbench.layers import LAYER_METRICS
    from perfbench.workloads import WORKLOADS, Stalled

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    workdir = OUT / f"run-{os.getpid()}"
    errors: list[str] = []
    notes: list[str] = []
    systems: list[Any] = []
    metrics: dict[str, float] = {}
    declared: dict[str, str] = {}
    try:
        if args.trace:
            w, counts = counting_pass(cls, args.seed, workdir, errors)
            systems.append(w)
            w, layer, notes = traced_run(
                cls, args.seed, args.seconds, workdir, errors, args.workload
            )
            systems.append(w)
            counts.update(layer)
            declared = {m.name: m.unit for m in LAYER_METRICS}
            metrics = {name: counts[name] for name in declared}
        else:
            w, metrics, notes = end_to_end(cls, args.seed, args.seconds, workdir, errors)
            systems.append(w)
            declared = E2E_UNITS
        errors += simcheck.check()
    except Stalled as exc:
        print(f"perfbench: {args.workload} stalled: {exc}", file=sys.stderr)
        errors.append(f"stalled: {exc}")
        metrics = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(w.ledger.attempted for w in systems) or 1
    failed = sum(w.ledger.failed for w in systems) if systems else 1
    print(f"workload: {args.workload}  seed: {args.seed}  "
          f"seconds: {args.seconds:g}  trace: {args.trace}")
    for line in notes:
        print(line)
    print(f"{failed} failed of {attempted} attempted")
    if not args.trace:
        metrics["failed_frac"] = failed / attempted
    units = {**declared, **PRINTED_ONLY}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for problem in errors:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared.items() if name in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
