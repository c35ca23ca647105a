"""The benchmark's three closed-loop workloads.

Every workload builds its executives in this process and the benchmark
steps each of them in turn from this one thread: no executive threads,
no task-mode transports, so the numbers measure the program and not
the host's thread scheduler.

A workload owns an :class:`~perfbench.stats.OpLedger` and a list of
per-operation latencies (ns).  Its ``top_up`` issues operations while
fewer than its window are outstanding and fewer than ``limit`` have
been issued; completion hooks close them.  Hooks that read frames to
check results do so in functions listed by ``muted_codes`` so the
deterministic call count leaves them out.
"""

from __future__ import annotations

import random
import shutil
import struct
import time
from array import array
from collections import Counter
from pathlib import Path
from types import CodeType
from typing import Any, Callable

from perfbench.stats import OpLedger

UNLIMITED = 1 << 62

#: Consecutive rounds in which no executive did any work, with
#: operations outstanding, after which the system counts as stalled.
STALL_ROUNDS = 20_000


class Stalled(RuntimeError):
    """Operations are outstanding but no executive has work."""


def handler_of(device: Any, xfunction: int) -> Callable[[Any], Any]:
    """The handler a device has bound to a private ``xfunction``."""
    from repro.i2o.frame import Frame
    from repro.i2o.function_codes import PRIVATE

    probe = Frame.build(target=0, initiator=0, function=PRIVATE,
                        xfunction=xfunction)
    return device.table.lookup(probe).handler


class Workload:
    """Closed-loop state shared by the workloads; subclasses build the system."""

    name = ""
    #: useful payload bytes moved per completed operation
    bytes_per_op = 0
    #: the closed loop's window: operations kept outstanding
    window = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.executives: list[Any] = []
        self.ledger = OpLedger()
        #: compact, so the benchmark's own memory barely grows with ops
        self.latencies = array("q")
        self.limit = UNLIMITED
        self.issued = 0

    # -- lifecycle ---------------------------------------------------------
    def build(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Tear down the built system (nothing runs in the background)."""

    def muted_codes(self) -> list[CodeType]:
        return []

    # -- driving -----------------------------------------------------------
    def top_up(self) -> None:
        raise NotImplementedError

    def stop_issuing(self) -> None:
        self.limit = self.issued

    @property
    def completed(self) -> int:
        return len(self.latencies)

    def step_all(self) -> bool:
        """Step every executive once, in node order."""
        worked = False
        for exe in self.executives:
            if exe.step():
                worked = True
        return worked

    def run_for(self, seconds: float) -> list[tuple[int, int, int]]:
        """Drive the closed loop for ``seconds``.  Returns
        ``(wall ns, process cpu ns, completed ops)`` at start and end."""
        clock = time.perf_counter_ns
        cpu = time.process_time_ns
        start = (clock(), cpu(), self.completed)
        bound = start[0] + int(seconds * 1e9)
        idle = 0
        while clock() < bound:
            self.top_up()
            if self.step_all():
                idle = 0
            else:
                idle += 1
                if idle > STALL_ROUNDS:
                    raise Stalled(f"{self.ledger.outstanding} operations stuck")
        return [start, (clock(), cpu(), self.completed)]

    def run_ops(self, count: int) -> None:
        """Issue exactly ``count`` more operations and drain."""
        self.limit = self.issued + count
        idle = 0
        while self.issued < self.limit:
            self.top_up()
            if self.step_all():
                idle = 0
            else:
                idle += 1
                if idle > STALL_ROUNDS:
                    raise Stalled(f"{self.ledger.outstanding} operations stuck")
        self.drain()

    def drain(self) -> None:
        """Stop issuing and step until nothing is outstanding or moving."""
        self.stop_issuing()
        idle = 0
        while True:
            if self.step_all():
                idle = 0
            elif not self.ledger.outstanding:
                return
            else:
                idle += 1
                if idle > STALL_ROUNDS:
                    raise Stalled(f"{self.ledger.outstanding} operations stuck")

    def counters(self) -> dict[str, float]:
        """Cumulative layer counters the per-operation counts derive from."""
        totals: dict[str, float] = Counter()
        for exe in self.executives:
            totals["dispatched"] += exe.dispatched
            if exe.pta is not None:
                for pt in exe.pta.transports():
                    totals["frames_received"] += pt.frames_received
                    totals["copies"] += pt.tx_copies + pt.rx_copies
            totals["peak_blocks"] = max(
                totals["peak_blocks"], exe.pool.stats.high_watermark
            )
            if exe.dataflow_outbox is not None:
                totals["parked"] += exe.dataflow_outbox.parked_total
            if exe.dataflow is not None:
                totals["shed"] += exe.dataflow.shed(exe.node)
            if exe.flightrec is not None:
                totals["flightrec_records"] += exe.flightrec.total_records
        return totals

    def check(self) -> list[str]:
        """Whole-system checks after the drain; each string is a fault."""
        errors = []
        for exe in self.executives:
            try:
                exe.pool.check_conservation()
            except Exception as exc:  # the pool's own error type
                errors.append(f"node {exe.node}: {exc}")
            if exe.pool.in_flight:
                errors.append(f"node {exe.node}: {exe.pool.in_flight} blocks leaked")
            if exe.dropped:
                errors.append(f"node {exe.node}: {exe.dropped} frames dropped")
            if exe.handler_errors:
                errors.append(f"node {exe.node}: {exe.handler_errors} handler errors")
        return errors


class PingPong(Workload):
    """N1 ping-pong: 1 B payload over the queue transport, one round
    trip outstanding, no observers armed."""

    name = "pingpong"
    bytes_per_op = 2  # the ping and its echo

    def build(self) -> None:
        from repro.bench.devices import XF_PING, EchoDevice, PingDevice
        from repro.core.executive import Executive
        from repro.transports.agent import PeerTransportAgent
        from repro.transports.queued import QueuePair, QueueTransport

        exe_a = Executive(node=0)
        exe_b = Executive(node=1)
        pair = QueuePair(0, 1)
        PeerTransportAgent.attach(exe_a).register(
            QueueTransport(pair, name="q"), default=True
        )
        PeerTransportAgent.attach(exe_b).register(
            QueueTransport(pair, name="q"), default=True
        )
        echo = EchoDevice()
        echo_tid = exe_b.install(echo)
        ping = PingDevice()
        exe_a.install(ping)
        ping.configure(exe_a.create_proxy(1, echo_tid), 1, 0)
        self.executives = [exe_a, exe_b]
        self.ping = ping
        self.payload = bytes([self.rng.randrange(256)])
        ping.payload = self.payload
        original = handler_of(ping, XF_PING)

        rtts = ping.rtts_ns

        def on_reply(frame: Any) -> None:
            verdict = self._verdict(frame)
            original(frame)
            if verdict is not None:
                # Move the round trip the device just recorded into the
                # compact store.
                self.latencies.append(rtts.pop())
                self.ledger.finish(self.issued, verdict)
                if ping.remaining > 0:  # the device sent the next ping
                    self._issue()

        ping.bind(XF_PING, on_reply)

    def _verdict(self, frame: Any) -> bool | None:
        """None for a non-reply, else whether the echo is byte-equal."""
        if not frame.is_reply:
            return None
        return frame.payload == self.payload

    def muted_codes(self) -> list[CodeType]:
        return [PingPong._verdict.__code__]

    def _issue(self) -> None:
        self.issued += 1
        self.ledger.start(self.issued)

    def top_up(self) -> None:
        if self.ledger.outstanding or self.issued >= self.limit:
            return
        self.ping.remaining = self.limit - self.issued
        self._issue()
        self.ping.kick()

    def stop_issuing(self) -> None:
        super().stop_issuing()
        self.ping.remaining = 1 if self.ledger.outstanding else 0


class EventBuilder(Workload):
    """The native event builder: 3 RU x 2 BU over loopback, routes
    derived by the dataflow section, 16 events in flight."""

    name = "evb"
    window = 16
    n_ru = 3
    n_bu = 2
    mean_fragment = 1024

    def build(self) -> None:
        from repro.config.bootstrap import bootstrap
        from repro.daq.protocol import XF_EVENT_DONE
        from repro.dataflow.examples import event_builder_spec

        cluster = bootstrap(event_builder_spec(
            self.n_ru, self.n_bu, mean_fragment=self.mean_fragment
        ))
        self.cluster = cluster
        self.executives = [cluster.executives[n] for n in sorted(cluster.executives)]
        self.trigger = cluster.device("trigger")
        self.evm = evm = cluster.device("evm")
        self.rus = [cluster.device(f"ru{i}") for i in range(self.n_ru)]
        self.bus = [cluster.device(f"bu{i}") for i in range(self.n_bu)]
        self.trigger.next_event_id = self.rng.randrange(1, 1 << 40)
        self.first_event = self.trigger.next_event_id
        self._fired: dict[int, int] = {}
        original = handler_of(evm, XF_EVENT_DONE)
        clock = time.perf_counter_ns

        def on_done(frame: Any) -> None:
            event_id = self._event_of(frame)
            before = evm.completed
            original(frame)
            if evm.completed != before:
                t_fired = self._fired.pop(event_id, None)
                if t_fired is not None:
                    self.latencies.append(clock() - t_fired)
                self.ledger.finish(event_id)

        evm.bind(XF_EVENT_DONE, on_done)

    @staticmethod
    def _event_of(frame: Any) -> int:
        if frame.is_reply or frame.payload_size < 8:
            return -1
        return int.from_bytes(frame.payload[:8], "little")

    def muted_codes(self) -> list[CodeType]:
        return [EventBuilder._event_of.__code__]

    def top_up(self) -> None:
        ledger = self.ledger
        while ledger.outstanding < self.window and self.issued < self.limit:
            t_fired = time.perf_counter_ns()
            event_id = self.trigger.fire()
            self._fired[event_id] = t_fired
            ledger.start(event_id)
            self.issued += 1

    @property
    def bytes_per_op(self) -> float:  # type: ignore[override]
        """Mean useful fragment bytes per built event so far."""
        built = sum(bu.built for bu in self.bus)
        return sum(bu.bytes_built for bu in self.bus) / built if built else 0.0

    def counters(self) -> dict[str, float]:
        totals = super().counters()
        totals["fragments"] = sum(ru.served for ru in self.rus)
        return totals

    def check(self) -> list[str]:
        from repro.daq.events import fragment_size

        errors = super().check()
        for bu in self.bus:
            if bu.corrupt:
                errors.append(f"{bu.name}: {bu.corrupt} corrupt fragments")
        for ru in self.rus:
            if ru.buffered_events:
                errors.append(f"{ru.name}: {ru.buffered_events} buffers not cleared")
        # Each EVM completion closed one fired event exactly once (the
        # ledger); the builders' totals must then show one build of
        # the expected size per completed event and nothing more.
        built = sum(bu.built for bu in self.bus)
        extra = built - self.ledger.good
        if extra > 0:
            self.ledger.stray += extra
            errors.append(f"builders built {built} events for {self.ledger.good} completions")
        fired = range(self.first_event, self.first_event + self.issued)
        expected = sum(
            fragment_size(event_id, ru, mean=self.mean_fragment)
            for event_id in fired for ru in range(self.n_ru)
        )
        got = sum(bu.bytes_built for bu in self.bus)
        if got != expected:
            errors.append(f"builders assembled {got} bytes, expected {expected}")
        return errors


class JournaledStream(Workload):
    """Two ordered ReliableEndpoints over loopback with the durability
    section on (each record flushed, no fsync) and the flight recorder,
    tracer and dispatch-latency histogram armed."""

    name = "journaled-stream"
    window = 32
    bytes_per_op = 256
    #: far above any round trip, so a retransmission means real loss
    retransmit_ns = 5_000_000_000
    #: distinct seeded payload bodies cycled through the stream
    bodies = 64

    def build(self) -> None:
        from repro.config.bootstrap import bootstrap

        endpoint = {
            "class": "repro.core.reliable.ReliableEndpoint",
            "kwargs": {"ordered": True, "retransmit_ns": self.retransmit_ns},
        }
        self.workdir.mkdir(parents=True, exist_ok=True)
        cluster = bootstrap({
            "transport": "loopback",
            "nodes": {
                0: {"devices": [dict(endpoint, name="sender")]},
                1: {"devices": [dict(endpoint, name="receiver")]},
            },
            "durability": {"dir": str(self.workdir / "journals"),
                           "flush_every": 1, "fsync": False},
            "flight_recorder": {"dir": str(self.workdir / "flightrec")},
            "telemetry": {"tracing": True, "metrics_timing": True,
                          "collector": False},
        })
        self.cluster = cluster
        self.executives = [cluster.executives[n] for n in sorted(cluster.executives)]
        self.sender = cluster.device("sender")
        self.receiver = cluster.device("receiver")
        self.target = cluster.proxy(0, "receiver")
        self.receiver.consumer = self._consume
        self._bodies = [self.rng.randbytes(self.bytes_per_op - 8)
                        for _ in range(self.bodies)]
        self._sent: dict[int, tuple[int, bytes]] = {}
        self._next_delivery = 1

    def close(self) -> None:
        for store in self.cluster.journals.values():
            store.close()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _payload(self, index: int) -> bytes:
        return struct.pack("<Q", index) + self._bodies[index % self.bodies]

    def top_up(self) -> None:
        sender = self.sender
        while sender.in_flight < self.window and self.issued < self.limit:
            self.issued += 1
            index = self.issued
            payload = self._payload(index)
            self.ledger.start(index)
            t_sent = time.perf_counter_ns()
            self._sent[index] = (t_sent, payload)
            sender.send_reliable(self.target, payload)

    def _consume(self, source: Any, payload: bytes) -> None:
        now = time.perf_counter_ns()
        index = int.from_bytes(payload[:8], "little")
        entry = self._sent.pop(index, None)
        in_order = index == self._next_delivery
        self._next_delivery = index + 1
        if entry is not None:
            self.latencies.append(now - entry[0])
        self.ledger.finish(
            index, entry is not None and in_order and entry[1] == payload
        )

    def counters(self) -> dict[str, float]:
        totals = super().counters()
        totals["retransmits"] = self.sender.retransmissions
        totals["duplicates"] = self.receiver.duplicates_suppressed
        totals["compactions"] = sum(
            s.compactions for s in self.cluster.journals.values()
        )
        return totals

    def check(self) -> list[str]:
        errors = super().check()
        if self.sender.in_flight:
            errors.append(f"sender: {self.sender.in_flight} messages never acked")
        for name, store in self.cluster.journals.items():
            if store.depth:
                errors.append(f"journal {name}: {store.depth} live records at the end")
        if self.sender.failures:
            errors.append(f"sender: {self.sender.failures} messages failed")
        return errors


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (PingPong, EventBuilder, JournaledStream)
}
