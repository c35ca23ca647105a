"""The XDAQ executive: routing, dispatching, memory and lifecycle.

One executive runs per processing node.  It is deliberately *lean*
(paper §4: "After all, the executive is very lean as it acts only as a
delegate"): devices keep their own dispatch tables; the executive owns
only the loop of control, the frame memory, the TiD space and the
routes.

Message flow (paper figure 4):

1. a device calls :meth:`frame_send` → the frame is posted to the
   **outbound** queue of the messaging instance;
2. the executive routes it: a local target goes straight to the
   priority scheduler, a proxy target goes to the Peer Transport Agent
   (3) which hands it to the Peer Transport serving the route (4);
3. on the receiving node the PT (5) gives the frame to the PTA (6),
   which posts it to the **inbound** queue (7);
4. the dispatch loop demultiplexes the frame through the target
   device's dispatch table and upcalls the functor (8).
"""

from __future__ import annotations

import logging
import threading
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.core.device import RETAIN, Listener
from repro.core.interrupts import InterruptController
from repro.core.metrics import MetricsRegistry
from repro.core.probes import Probes
from repro.core.tracing import DispatchObserver, FrameTracer
from repro.core.queues import MessagingInstance
from repro.core.registry import ModuleRegistry
from repro.core.scheduler import PriorityScheduler
from repro.core.states import DeviceState
from repro.core.timer import TimerService
from repro.core.watchdog import HandlerWatchdog, WatchdogTimeout
from repro.hw.clock import Clock, WallClock
from repro.i2o.errors import AddressingError, I2OError
from repro.i2o.frame import (
    DEFAULT_PRIORITY,
    FLAG_FAIL,
    FLAG_REPLY,
    HEADER_SIZE,
    NUM_PRIORITIES,
    Frame,
    SharedFrame,
)
from repro.i2o.function_codes import (
    EXEC_DDM_DESTROY,
    EXEC_LCT_NOTIFY,
    EXEC_PATH_CLAIM,
    EXEC_STATUS_GET,
    EXEC_SYS_ENABLE,
    EXEC_SYS_HALT,
    EXEC_SYS_QUIESCE,
    PRIVATE,
    function_name,
)
from repro.i2o.tid import (
    EXECUTIVE_TID,
    PTA_TID,
    TID_BROADCAST,
    Tid,
    TidAllocator,
    check_tid,
)
from repro.flightrec.records import (
    EV_FRAME_ALLOC,
    EV_FRAME_RELEASE,
    EV_HARD_STOP,
    EV_LIVENESS,
    EV_POOL_EXHAUSTED,
    EV_SANITIZER,
    EV_WATCHDOG_TRIP,
    LIVE_ALIVE,
    LIVE_DEAD,
    LIVE_SUSPECT,
    SAN_DOUBLE_FREE,
    SAN_USE_AFTER_FREE,
    pack3,
)
from repro.mem.pool import BufferPool, PoolExhausted

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataflow.routing import CreditLedger, DataflowOutbox
    from repro.flightrec.recorder import FlightRecorder
    from repro.transports.agent import PeerTransportAgent

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Route:
    """Where a proxy TiD leads: a device on another node.

    ``transport`` optionally pins the route to a named peer transport
    (paper §4: "As it is possible to configure each device instance
    with a route, we can use multiple transports to send and receive in
    parallel"); ``None`` lets the PTA pick its default for the node.

    A ``parked`` route belongs to a peer declared DEAD by the
    supervision layer and no replica could take it over: frames sent
    to it are dead-lettered, so the initiator receives the standard
    I2O failure reply instead of waiting forever.
    """

    node: int
    remote_tid: Tid
    transport: str | None = None
    parked: bool = False


class _ExecutiveDevice(Listener):
    """The executive's own device personality (TiD 0).

    Paper §3.5: "All modules, user applications, the peer transports
    and even the executive get such a TiD.  Thus, they are all valid
    I2O devices."
    """

    device_class = "executive"

    def __init__(self, executive: "Executive") -> None:
        super().__init__(name=f"executive@{executive.node}")
        self._exe = executive
        self.table.bind(EXEC_STATUS_GET, self._on_status_get)
        self.table.bind(EXEC_SYS_ENABLE, self._on_sys_enable)
        self.table.bind(EXEC_SYS_QUIESCE, self._on_sys_quiesce)
        self.table.bind(EXEC_SYS_HALT, self._on_sys_halt)
        self.table.bind(EXEC_LCT_NOTIFY, self._on_lct_notify)
        self.table.bind(EXEC_DDM_DESTROY, self._on_ddm_destroy)
        self.table.bind(EXEC_PATH_CLAIM, self._on_path_claim)

    def _on_status_get(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        from repro.core.device import encode_params

        exe = self._exe
        self.reply(
            frame,
            encode_params(
                {
                    "node": str(exe.node),
                    "state": exe.state.value,
                    "devices": str(len(exe.devices())),
                    "dispatched": str(exe.dispatched),
                    "dropped": str(exe.dropped),
                    "rebinds": str(exe.rebinds),
                    "parks": str(exe.parks),
                    "peers_dead": str(len(exe.peers.dead_nodes())),
                }
            ),
        )

    def _broadcast_state(self, frame: Frame, target: DeviceState) -> None:
        if frame.is_reply:
            return
        failures = self._exe._set_all_states(target)
        self.reply(frame, fail=bool(failures))

    def _on_sys_enable(self, frame: Frame) -> None:
        self._broadcast_state(frame, DeviceState.ENABLED)

    def _on_sys_quiesce(self, frame: Frame) -> None:
        self._broadcast_state(frame, DeviceState.QUIESCED)

    def _on_sys_halt(self, frame: Frame) -> None:
        if frame.is_reply:
            return
        self.reply(frame)
        self._exe.request_halt()

    def _on_lct_notify(self, frame: Frame) -> None:
        """Reply with the logical configuration table: tid=class pairs."""
        if frame.is_reply:
            return
        from repro.core.device import encode_params

        table = {
            str(tid): dev.device_class for tid, dev in self._exe._devices.items()
        }
        self.reply(frame, encode_params(table))

    def _on_ddm_destroy(self, frame: Frame) -> None:
        """Remove a device by TiD (ExecDdmDestroy over the wire).

        Payload: decimal TiD.  Infrastructure TiDs (executive, PTA,
        transports) are refused — a controller cannot saw off the
        branch the control channel sits on.
        """
        if frame.is_reply:
            return
        from repro.core.device import decode_params

        try:
            tid = int(bytes(frame.payload).decode("utf-8"))
            victim = self._exe.device(tid)
            if victim.device_class in (
                "executive", "peer_transport_agent", "peer_transport",
            ) or tid in (EXECUTIVE_TID, PTA_TID):
                raise I2OError(f"TiD {tid} is infrastructure")
            self._exe.uninstall(tid)
        except (ValueError, I2OError):
            self.reply(frame, fail=True)
        else:
            self.reply(frame)

    def _on_path_claim(self, frame: Frame) -> None:
        """Create a proxy on this node by request (ExecPathClaim).

        Payload: params map with ``node`` and ``tid`` (and optionally
        ``transport``); reply carries the local proxy TiD.  This is how
        a controller pre-builds routes for devices it is about to
        configure (paper §4: plugged-in classes trigger proxy creation).
        """
        if frame.is_reply:
            return
        from repro.core.device import decode_params, encode_params

        try:
            request = decode_params(frame.payload)
            proxy = self._exe.create_proxy(
                int(request["node"]),
                int(request["tid"]),
                transport=request.get("transport") or None,
            )
        except (KeyError, ValueError, I2OError):
            self.reply(frame, fail=True)
        else:
            self.reply(frame, encode_params({"proxy": str(proxy)}))


class Executive:
    """One processing node's executive program."""

    #: seconds ``hard_stop`` waits for the loop-of-control thread
    #: before it raises
    join_timeout_s = 5.0

    def __init__(
        self,
        node: int = 0,
        *,
        pool: BufferPool | None = None,
        clock: Clock | None = None,
        probes: Probes | None = None,
        watchdog: HandlerWatchdog | None = None,
        max_dispatch_per_step: int = 16,
        metrics: MetricsRegistry | None = None,
        tracer: FrameTracer | None = None,
        flightrec: "FlightRecorder | None" = None,
    ) -> None:
        self.node = node
        self.pool = pool if pool is not None else BufferPool()
        self.clock: Clock = clock if clock is not None else WallClock()
        self.probes = probes if probes is not None else Probes("off")
        self.watchdog = watchdog
        self.max_dispatch_per_step = max_dispatch_per_step
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: the dispatch observers, in arming order; empty keeps the
        #: dispatch loop at one test of this tuple and no clock read.
        #: Change it only through :meth:`observe` / :meth:`unobserve`.
        self.observers: tuple[DispatchObserver, ...] = ()
        #: the armed tracer, which also stamps sends and enqueues
        #: (armed via :meth:`observe`); ``None`` costs the send and
        #: enqueue paths one ``is not None`` test each.
        self.tracer: FrameTracer | None = None
        #: the black-box flight recorder, which also records frame and
        #: liveness events (set via :meth:`attach_flight_recorder`).
        self.flightrec: "FlightRecorder | None" = None
        #: backpressure state, set by bootstrap when the spec enables
        #: the dataflow layer; ``None`` keeps the dispatch path at one
        #: ``is None`` test.
        self.dataflow: "CreditLedger | None" = None
        self.dataflow_outbox: "DataflowOutbox | None" = None

        self.tids = TidAllocator()
        self.scheduler = PriorityScheduler()
        self.msgi = MessagingInstance()
        self.timers = TimerService(self)
        self.interrupts = InterruptController(self)
        self.registry = ModuleRegistry()
        self.state = DeviceState.INITIALISED

        self._devices: dict[Tid, Listener] = {}
        #: name → TiD index behind ``find_device`` (bootstrap and
        #: telemetry sweeps look devices up by name per device, so the
        #: O(n) scan was quadratic across a sweep)
        self._names: dict[str, Tid] = {}
        self._routes: dict[Tid, Route] = {}
        self._proxies: dict[tuple[int, Tid, str | None], Tid] = {}
        #: Serialises proxy/route table writes: task-mode transports
        #: call ``create_proxy`` from their receive threads while the
        #: loop of control rebinds/parks routes on the dispatch thread.
        self._route_lock = threading.Lock()
        self.pta: "PeerTransportAgent | None" = None
        self._pollable: list[object] = []  # polling-mode PTs, set by the PTA

        # Peer liveness table (fed by a HeartbeatService, if installed).
        from repro.core.liveness import PeerTable

        self.peers = PeerTable()

        self.dispatched = 0
        self.dropped = 0
        self.handler_errors = 0
        self.rebinds = 0
        self.parks = 0
        self._halt_requested = False
        self._thread: threading.Thread | None = None
        self._thread_stop = threading.Event()

        # Install the executive's own device personality at TiD 0.
        self.tids.reserve(EXECUTIVE_TID)
        self._self_device = _ExecutiveDevice(self)
        self._self_device.plugin(self, EXECUTIVE_TID)
        self._devices[EXECUTIVE_TID] = self._self_device
        self._names[self._self_device.name] = EXECUTIVE_TID

        self._register_core_metrics()
        if tracer is not None:
            self.observe(tracer)
        if flightrec is not None:
            self.attach_flight_recorder(flightrec)

    def _register_core_metrics(self) -> None:
        """Expose hot-path state through callback gauges.

        The dispatch loop keeps bumping plain ints; the registry only
        reads them when a snapshot is taken, so being observable costs
        the hot path nothing.
        """
        m = self.metrics
        m.gauge("exe_dispatched_total", lambda: self.dispatched)
        m.gauge("exe_dropped_total", lambda: self.dropped)
        m.gauge("exe_handler_errors_total", lambda: self.handler_errors)
        m.gauge("exe_route_rebinds_total", lambda: self.rebinds)
        m.gauge("exe_route_parks_total", lambda: self.parks)
        m.gauge("exe_devices", lambda: len(self._devices))
        m.gauge("exe_scheduler_depth", lambda: len(self.scheduler))
        for priority in range(NUM_PRIORITIES):
            m.gauge(
                f"exe_fifo_depth_p{priority}",
                lambda p=priority: self.scheduler.depth_of(p),
            )
        m.gauge("exe_scheduler_pushed_total", lambda: self.scheduler.pushed)
        m.gauge("pool_blocks_in_flight", lambda: self.pool.in_flight)
        m.gauge(
            "pool_bytes_internal_fragmentation",
            lambda: self.pool.internal_fragmentation,
        )
        m.gauge("timer_fired_total", lambda: self.timers.fired)
        m.gauge(
            "exe_watchdog_trips_total",
            lambda: self.watchdog.overruns if self.watchdog is not None else 0,
        )
        m.gauge(
            "trace_spans_dropped_total",
            lambda: self.tracer.dropped if self.tracer is not None else 0,
        )

    def observe(self, observer: DispatchObserver) -> None:
        """Arm a dispatch observer: from the next dispatch on it
        receives the dispatch record (see
        :class:`~repro.core.tracing.DispatchObserver`).

        A :class:`~repro.core.tracing.FrameTracer` also becomes
        :attr:`tracer`, adopting this node's id when it has none; one
        tracer per executive.
        """
        if observer in self.observers:
            raise I2OError(f"node {self.node}: {observer!r} is already armed")
        if isinstance(observer, FrameTracer):
            if self.tracer is not None:
                raise I2OError(f"node {self.node} already has a tracer")
            if observer.node is None:
                observer.node = self.node
            self.tracer = observer
        self.observers += (observer,)

    def unobserve(self, observer: DispatchObserver) -> None:
        """Disarm a dispatch observer; with the last one gone the
        dispatch loop is back to its single empty-tuple test."""
        self.observers = tuple(o for o in self.observers if o is not observer)
        if observer is self.tracer:
            self.tracer = None
        if observer is self.flightrec:
            self.flightrec = None

    def attach_flight_recorder(self, recorder: "FlightRecorder") -> None:
        """Wire a black-box :class:`~repro.flightrec.FlightRecorder`.

        Adopts this executive's node id and clock when the recorder
        has none, arms it as a dispatch observer (BEGIN/END/ERROR
        records), subscribes liveness transitions from the peer table,
        hooks sanitizer violations (when the pool's allocator exposes
        the ``on_violation`` callback slot) so a use-after-free or
        double free spills the ring before raising, and exposes the
        recorder's own accounting as callback gauges.
        """
        if self.flightrec is not None:
            raise I2OError(
                f"node {self.node} already has a flight recorder attached"
            )
        if recorder.node is None:
            recorder.node = self.node
        if recorder.clock is None:
            recorder.clock = self.clock
        self.observe(recorder)
        self.flightrec = recorder
        record = recorder.record
        self.peers.on_alive(lambda node: record(EV_LIVENESS, node, LIVE_ALIVE))
        self.peers.on_suspect(
            lambda node: record(EV_LIVENESS, node, LIVE_SUSPECT)
        )
        self.peers.on_dead(lambda node: record(EV_LIVENESS, node, LIVE_DEAD))
        allocator = self.pool.allocator
        if hasattr(allocator, "on_violation"):
            codes = {
                "double-free": SAN_DOUBLE_FREE,
                "use-after-free": SAN_USE_AFTER_FREE,
            }

            def spill_violation(kind: str) -> None:
                record(EV_SANITIZER, codes.get(kind, 0))
                recorder.spill("sanitizer")

            allocator.on_violation = spill_violation
        m = self.metrics
        m.gauge("flightrec_records_total", lambda: recorder.total_records)
        m.gauge("flightrec_dropped_total", lambda: recorder.dropped_records)
        m.gauge("flightrec_spills_total", lambda: recorder.spills)

    # ------------------------------------------------------------------
    # device management
    # ------------------------------------------------------------------
    def install(self, device: Listener, tid: Tid | None = None) -> Tid:
        """Register a device module; returns its freshly assigned TiD."""
        if device.executive is not None:
            raise I2OError(f"device {device.name!r} is already installed")
        if tid is None:
            tid = self.tids.allocate()
        else:
            self.tids.reserve(tid)
        self._devices[tid] = device
        # First installation wins a contested name, matching the old
        # scan-in-insertion-order lookup.
        self._names.setdefault(device.name, tid)
        device.plugin(self, tid)
        logger.debug("node %s: installed %s at TiD %d", self.node, device.name, tid)
        return tid

    def uninstall(self, tid: Tid) -> Listener:
        """Remove a device (ExecDdmDestroy); drops its queued frames
        and disarms every timer the device still owns."""
        device = self._devices.pop(tid, None)
        if device is None:
            raise AddressingError(f"no device at TiD {tid}")
        if self._names.get(device.name) == tid:
            del self._names[device.name]
            # Promote the next device carrying the same name, if any —
            # again in insertion order, like the old scan.
            for other_tid, other in self._devices.items():
                if other.name == device.name:
                    self._names[device.name] = other_tid
                    break
        for frame in self.scheduler.drop_device(tid):
            self._release_frame(frame)
        self.timers.cancel_owned(tid)
        device.unplug()
        self.tids.release(tid)
        self.registry.forget(tid)
        return device

    def device(self, tid: Tid) -> Listener:
        dev = self._devices.get(tid)
        if dev is None:
            raise AddressingError(f"no device at TiD {tid} on node {self.node}")
        return dev

    def devices(self) -> dict[Tid, Listener]:
        return dict(self._devices)

    def find_device(self, name: str) -> Listener:
        tid = self._names.get(name)
        if tid is None:
            raise AddressingError(
                f"no device named {name!r} on node {self.node}"
            )
        return self._devices[tid]

    def _set_all_states(self, target: DeviceState) -> list[Tid]:
        """Drive every application device to ``target``; returns failures."""
        failures: list[Tid] = []
        for tid, dev in list(self._devices.items()):
            if tid == EXECUTIVE_TID:
                continue
            try:
                dev.set_state(target)
                if target is DeviceState.ENABLED:
                    dev.on_enable()
                elif target is DeviceState.QUIESCED:
                    dev.on_quiesce()
            except I2OError:
                failures.append(tid)
        self.state = target
        return failures

    # ------------------------------------------------------------------
    # proxies and routes
    # ------------------------------------------------------------------
    def create_proxy(
        self, node: int, remote_tid: Tid, transport: str | None = None
    ) -> Tid:
        """Allocate a local TiD standing in for a device on ``node``.

        Paper §3.4: "To communicate with a remote device, the executive
        creates a local TiD for the target device along with information
        how to reach this device ... compared to the Proxy pattern."
        Idempotent per ``(node, remote_tid)``.
        """
        # Every ingested frame comes here to resolve its initiator, so
        # the known-proxy case returns first (a lock-free dict read; an
        # entry implies a valid TiD on another node).
        existing = self._proxies.get((node, remote_tid, transport))
        if existing is not None:
            return existing
        check_tid(remote_tid)
        if node == self.node:
            # A proxy for a local device is just the device itself.
            return remote_tid
        with self._route_lock:
            existing = self._proxies.get((node, remote_tid, transport))
            if existing is not None:
                return existing
            tid = self.tids.allocate()
            self._routes[tid] = Route(
                node=node, remote_tid=remote_tid, transport=transport)
            self._proxies[(node, remote_tid, transport)] = tid
            return tid

    def route_for(self, tid: Tid) -> Route | None:
        return self._routes.get(tid)

    def routes_to(self, node: int, *, include_parked: bool = False) -> list[Tid]:
        """Proxy TiDs whose route currently leads to ``node``."""
        return sorted(
            tid for tid, route in self._routes.items()
            if route.node == node and (include_parked or not route.parked)
        )

    def rebind_route(
        self,
        proxy_tid: Tid,
        node: int,
        remote_tid: Tid,
        transport: str | None = None,
    ) -> Route:
        """Point an existing proxy at a different remote device.

        This is the failover primitive: every frame already addressed
        to ``proxy_tid`` — pending replies included — now reaches the
        replacement device, without any sender learning a new TiD.
        """
        old = self._routes.get(proxy_tid)
        if old is None:
            raise AddressingError(f"TiD {proxy_tid} is not a proxy")
        check_tid(remote_tid)
        if node == self.node:
            raise AddressingError("cannot rebind a route to the local node")
        new = Route(node=node, remote_tid=remote_tid, transport=transport)
        with self._route_lock:
            self._proxies.pop((old.node, old.remote_tid, old.transport), None)
            self._routes[proxy_tid] = new
            # Keep proxy idempotency pointing at the earliest binding.
            self._proxies.setdefault((node, remote_tid, transport), proxy_tid)
        self.rebinds += 1
        logger.info(
            "node %s: rebound proxy %d: %s:%d -> %s:%d",
            self.node, proxy_tid, old.node, old.remote_tid, node, remote_tid,
        )
        return new

    def park_route(self, proxy_tid: Tid) -> Route:
        """Mark a proxy's route unusable; senders get failure replies."""
        old = self._routes.get(proxy_tid)
        if old is None:
            raise AddressingError(f"TiD {proxy_tid} is not a proxy")
        if not old.parked:
            with self._route_lock:
                self._routes[proxy_tid] = Route(
                    node=old.node, remote_tid=old.remote_tid,
                    transport=old.transport, parked=True,
                )
            self.parks += 1
        return self._routes[proxy_tid]

    def unpark_route(self, proxy_tid: Tid) -> Route:
        """Restore a parked route (the peer rejoined)."""
        old = self._routes.get(proxy_tid)
        if old is None:
            raise AddressingError(f"TiD {proxy_tid} is not a proxy")
        if old.parked:
            with self._route_lock:
                self._routes[proxy_tid] = Route(
                    node=old.node, remote_tid=old.remote_tid,
                    transport=old.transport,
                )
        return self._routes[proxy_tid]

    # ------------------------------------------------------------------
    # frame API (the narrow component interface of paper §1)
    # ------------------------------------------------------------------
    def frame_alloc(
        self,
        payload_size: int,
        *,
        target: Tid,
        initiator: Tid = EXECUTIVE_TID,
        function: int = PRIVATE,
        xfunction: int = 0,
        priority: int = DEFAULT_PRIORITY,
        flags: int = 0,
        organization: int = 0,
        initiator_context: int = 0,
        transaction_context: int = 0,
    ) -> Frame:
        """Loan a pool block and shape it into an addressed frame.

        The payload size is declared in the header; content is written
        by the caller directly into ``frame.payload`` (zero-copy
        buffer loaning).
        """
        size = HEADER_SIZE + payload_size
        probes = self.probes
        span = None if probes.mode == "off" else probes.begin("frame_alloc")
        try:
            block = self.pool.alloc(size)
            frame = Frame(block.memory[:size], block=block)
            frame.set_header(
                target=target,
                initiator=initiator,
                function=function,
                payload_size=payload_size,
                priority=priority,
                flags=flags,
                xfunction=xfunction,
                organization=organization,
                initiator_context=initiator_context,
                transaction_context=transaction_context,
            )
        except PoolExhausted:
            if self.flightrec is not None:
                self.flightrec.record(EV_POOL_EXHAUSTED, size)
            raise
        finally:
            if span is not None:
                span.end()
        if self.flightrec is not None:
            self.flightrec.record(EV_FRAME_ALLOC, size, self.pool.in_flight)
        return frame

    def frame_send(self, frame: Frame) -> None:
        """Post a frame for routing (frameSend).

        Pool-backed frames were header-validated at ``frame_alloc`` and
        their payload views cannot overrun the header, so only foreign
        buffers (hand-built bytearrays) are re-validated here; wire
        input is always validated at ingest.
        """
        if frame.block is None:
            frame.validate()
        if self.tracer is not None:
            self.tracer.stamp(frame)
        self.msgi.post_outbound(frame)

    def frame_free(self, frame: Frame) -> None:
        """Release a frame's block back to the pool (frameFree)."""
        probes = self.probes
        span = None if probes.mode == "off" else probes.begin("frame_free")
        try:
            block = frame.block
            if block is not None:
                if self.flightrec is not None:
                    # Context read *before* the free: afterwards the
                    # block may recycle under the sanitizer's poison.
                    self.flightrec.record(
                        EV_FRAME_RELEASE, frame.transaction_context
                    )
                self.pool.free(block)
                frame.block = None
        finally:
            if span is not None:
                span.end()

    def post_inbound(self, frame: Frame) -> None:
        """Entry point for peer transports and the timer service."""
        self.msgi.post_inbound(frame)

    # ------------------------------------------------------------------
    # the loop of control
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """One scheduling quantum; returns True if any work was done."""
        worked = False
        if len(self.timers) and self.timers.poll(self.clock.now_ns()):
            worked = True
        for pt in self._pollable:
            if pt.poll():  # type: ignore[attr-defined]
                worked = True
        msgi = self.msgi
        if msgi.outbound:
            self._route_outbound()
            worked = True
        if msgi.inbound:
            self._intake_inbound()
            worked = True
        for _ in range(self.max_dispatch_per_step):
            if not self._dispatch_one():
                break
            worked = True
            # Dispatching may have generated sends: route them before
            # the next dispatch so request/reply chains complete within
            # one call in single-threaded use.
            if msgi.outbound:
                self._route_outbound()
            if msgi.inbound:
                self._intake_inbound()
        return worked

    def run_until_idle(self, max_steps: int = 1_000_000) -> int:
        """Step until no work remains; returns steps executed.

        Only meaningful in single-threaded use (tests, simulation);
        raises if the budget is exhausted, which almost always means a
        message loop.
        """
        for count in range(max_steps):
            if not self.step():
                return count
        raise I2OError(f"run_until_idle exceeded {max_steps} steps")

    @property
    def idle(self) -> bool:
        if not self.msgi.idle or not self.scheduler.empty:
            return False
        return not any(
            getattr(pt, "has_pending", False) for pt in self._pollable
        )

    def request_halt(self) -> None:
        self._halt_requested = True
        self._thread_stop.set()

    # -- native thread mode -------------------------------------------------
    def start(self, poll_interval: float = 0.001) -> None:
        """Run the loop of control in a dedicated thread (native plane)."""
        if self._thread is not None:
            raise I2OError("executive already started")
        self._thread_stop.clear()
        self._halt_requested = False

        def loop() -> None:
            while not self._thread_stop.is_set():
                if not self.step():
                    self.msgi.wait_for_work(timeout=poll_interval)
                if self._halt_requested:
                    break

        self._thread = threading.Thread(
            target=loop, name=f"executive-{self.node}", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        if self._thread is None:
            return
        self._thread_stop.set()
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover - defensive
            raise I2OError(f"executive thread on node {self.node} did not stop")
        self._thread = None
        self._report_pool_leaks()

    def hard_stop(self) -> None:
        """Kill this executive as a crashed process (``kill -9``).

        The in-process analogue of abrupt node death, for durability
        and rejoin tests: every frame this executive still holds — in
        the messaging queues, the scheduler, or staged inside its
        transports — is released, exactly as the OS reclaims a dead
        process's memory (staged blocks may belong to *other* nodes'
        pools; they must not leak).  Timers are disarmed, transports
        detach from shared media so peers fail fast and a replacement
        can rejoin under the same node id.  Nothing is flushed and no
        device hook runs: anything not already journaled or
        snapshotted is gone — that is the point.  Recovery happens in
        a *new* executive built from the durable state, never by
        reusing this object.

        Raises :class:`I2OError` naming the loop-of-control thread if it
        is still alive after :attr:`join_timeout_s` (a handler blocked
        past it): draining the queues under a live loop would race it,
        so nothing is torn down.
        """
        thread = self._thread
        if thread is not None:
            self._thread_stop.set()
            thread.join(timeout=self.join_timeout_s)
            if thread.is_alive():
                raise I2OError(
                    f"executive {self.node}: thread {thread.name} did not "
                    f"stop within {self.join_timeout_s:g} s"
                )
            self._thread = None
        self._halt_requested = True
        if self.flightrec is not None:
            self.flightrec.record(EV_HARD_STOP)
        self.timers.cancel_all()
        detached: set[int] = set()
        for pt in self._pollable:
            pt.crash_detach()  # type: ignore[attr-defined]
            detached.add(id(pt))
        if self.pta is not None:
            for pt in self.pta.transports():
                if id(pt) not in detached:
                    pt.crash_detach()
        for queue in (self.msgi.outbound, self.msgi.inbound):
            while queue:
                self._release_frame(queue.popleft())
        while (frame := self.scheduler.pop()) is not None:
            self._release_frame(frame)
        self.state = DeviceState.FAILED
        if self.flightrec is not None:
            # Spill last so the drain's frame-release records make it
            # into the black box before the ring goes to disk.
            self.flightrec.spill("hard_stop")

    def _report_pool_leaks(self) -> None:
        """Under ``REPRO_SANITIZE=1``, surface any blocks still loaned
        at shutdown with the tracebacks of the allocations that leaked
        them.  A warning, not an exception: ``stop()`` runs in teardown
        paths where raising would mask the original failure — strict
        callers use :func:`repro.analysis.sanitize.assert_clean`.
        """
        from repro.analysis.sanitize import leak_report

        leaks = leak_report(self.pool)
        if leaks:
            warnings.warn(
                f"executive {self.node} shut down with "
                f"{len(leaks)} leaked pool block(s):\n" + "\n".join(leaks),
                ResourceWarning,
                stacklevel=3,
            )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _route_outbound(self) -> bool:
        outbound = self.msgi.outbound
        routed = False
        while outbound:
            routed = True
            self._route(outbound.popleft())
        return routed

    def _route(self, frame: Frame) -> None:
        target = frame.target
        if target == TID_BROADCAST:
            self._broadcast(frame)
        elif target in self._devices:
            self._enqueue(frame, target)
        elif (route := self._routes.get(target)) is not None:
            if route.parked:
                self._dead_letter(
                    frame,
                    f"route parked: node {route.node} is dead",
                )
            elif self.pta is None:
                self._dead_letter(frame, "no peer transport agent installed")
            else:
                try:
                    self.pta.forward(frame, route)
                except I2OError as exc:
                    self._dead_letter(frame, f"transport failure: {exc}")
        else:
            self._dead_letter(frame, f"unroutable TiD {target}")

    def _broadcast(self, frame: Frame) -> None:
        """Deliver one shared, refcounted frame to every local device
        except the initiator.

        The paper's buffer loaning applied to fan-out: instead of N
        alloc+copy clones, every listener gets a :class:`SharedFrame`
        aliasing the same pool block (one ``addref`` per delivery);
        the block recycles when the last dispatch — or a RETAINing
        handler's eventual ``frame_free`` — drops its reference.
        """
        block = frame.block
        view = frame.view
        initiator = frame.initiator
        for tid in list(self._devices):
            if tid == initiator:
                continue
            if block is not None:
                block.addref()
            self._enqueue(SharedFrame(view, block=block, target=tid), tid)
        self._release_frame(frame)

    def _dead_letter(self, frame: Frame, reason: str) -> None:
        self.dropped += 1
        logger.warning(
            "node %s: dropping %s: %s", self.node, function_name(frame.function), reason
        )
        (
            initiator, function, xfunction, priority, _organization,
            initiator_context, transaction_context,
        ) = frame.reply_fields()
        # Tell the initiator its request went nowhere — whether it is a
        # local device or a proxy for a remote one (an inbound frame's
        # initiator was rewritten to a local proxy TiD at ingest, so the
        # failure reply routes back across the wire).
        if not frame.is_reply and (
            initiator in self._devices or initiator in self._routes
        ):
            # The headers the reply needs are snapshot above; release
            # the original *before* allocating: if the pool is exhausted
            # the dropped frame must not leak on top of the lost reply.
            self._release_frame(frame)
            try:
                failure = self.frame_alloc(
                    0,
                    target=initiator,
                    initiator=EXECUTIVE_TID,
                    function=function,
                    xfunction=xfunction,
                    priority=priority,
                    flags=FLAG_REPLY | FLAG_FAIL,
                    initiator_context=initiator_context,
                    transaction_context=transaction_context,
                )
            except PoolExhausted:
                logger.warning(
                    "node %s: pool exhausted, failure reply to TiD %s lost",
                    self.node, initiator,
                )
                return
            self._route(failure)
            return
        self._release_frame(frame)

    def _intake_inbound(self) -> bool:
        inbound = self.msgi.inbound
        took = False
        while inbound:
            took = True
            frame = inbound.popleft()
            target = frame.target
            if target in self._devices:
                self._enqueue(frame, target)
            else:
                self._dead_letter(frame, f"inbound for unknown TiD {target}")
        return took

    def _enqueue(self, frame: Frame, target: Tid) -> None:
        """Push a frame (whose ``target`` the caller has read) for
        dispatch, noting its queue-entry time when a tracer is
        installed (queue wait is a per-hop span field)."""
        if self.tracer is not None:
            self.tracer.note_enqueue(frame, self.clock.now_ns())
        self.scheduler.push(frame, target)

    def _dispatch_one(self) -> bool:
        frame = self.scheduler.pop()
        if frame is None:
            return False
        target = frame.target
        function = frame.function
        xfunction = frame.xfunction
        if self.dataflow is not None:
            # The frame left its priority FIFO: the consumer's queue
            # slot is free, so the emitting edge gets its credit back.
            self.dataflow.on_dispatched(self.node, target, function, xfunction)
        observers = self.observers
        if observers:
            start_ns = self.clock.now_ns()
            # The dispatch record every observer receives.  Snapshot it
            # before dispatch: the handler may free the frame, after
            # which reading it is a use-after-free.
            ctx = frame.transaction_context
            hdr = pack3(target, function, xfunction)
            for obs in observers:
                obs.begin_dispatch(frame, ctx, hdr, start_ns)
        failed = False
        # Probe spans (Table 1 stages) exist only when probes are live:
        # off mode costs this one attribute read per dispatch.  Spans
        # are closed before any handler below runs, as a ``with``
        # block would close them.
        probes = self.probes
        live = probes.mode != "off"
        span = probes.begin("demultiplex") if live else None
        try:
            device = self._devices.get(target)
            if device is None:
                # Device vanished between queueing and dispatch.
                if span is not None:
                    span.end()
                self._release_frame(frame)
                self.dropped += 1
            else:
                functor = device.table.lookup_key(function, xfunction)
                if span is not None:
                    span.end()
                    span = probes.begin("upcall")
                thunk = functor.prepare(frame, function, xfunction)
                if span is not None:
                    span.end()
                    accrued_before = probes.accrued_ns
                    span = probes.begin("application")
                if self.watchdog is not None and probes.mode != "model":
                    with self.watchdog.guard(label=device.name):
                        result = thunk()
                else:
                    result = thunk()
                if span is not None:
                    span.end()
                    span = None
                    if (
                        self.watchdog is not None
                        and probes.mode == "model"
                        and (probes.accrued_ns - accrued_before)
                        > self.watchdog.limit_ns
                    ):
                        # Simulation plane: the handler's *modelled*
                        # cost blew the budget — same quarantine as a
                        # wall-clock overrun.
                        self.watchdog.overruns += 1
                        raise WatchdogTimeout(
                            f"handler {device.name} modelled cost exceeded "
                            f"{self.watchdog.limit_ns} ns"
                        )
        except WatchdogTimeout as exc:
            if span is not None:
                span.end()
            self._quarantine(target, str(exc))
            result = None
        except Exception as exc:  # fault tolerance: a bad handler must
            # never take the executive down (paper §3.2)
            if span is not None:
                span.end()
            self.handler_errors += 1
            failed = True
            logger.error(
                "node %s: handler error for %s at TiD %d: %s",
                self.node,
                function_name(function),
                target,
                exc,
            )
            if not frame.is_reply and frame.initiator != target:
                self._send_failure_reply(frame)
            result = None
        except BaseException:
            # A non-Exception escape — crash injection
            # (repro.analysis.crashpoints), KeyboardInterrupt — is
            # *meant* to take the loop of control down; ``except
            # Exception`` above deliberately lets it through.  But the
            # frame being dispatched must still return to its pool, or
            # the simulated process death leaks a real block.
            if span is not None:
                span.end()
            self._release_frame(frame)
            raise
        if device is not None:
            self.dispatched += 1
            if live:
                span = probes.begin("postprocess")
                try:
                    if result is not RETAIN:
                        self.frame_free(frame)
                finally:
                    span.end()
            elif result is not RETAIN:
                self.frame_free(frame)
        if observers:
            # The one observer exit: handled, failed and vanished-device
            # dispatches all leave through here.
            end_ns = self.clock.now_ns()
            for obs in observers:
                if failed:
                    obs.dispatch_error(ctx, hdr, start_ns, end_ns)
                obs.end_dispatch(ctx, hdr, start_ns, end_ns)
        return True

    def _send_failure_reply(self, request: Frame) -> None:
        device = self._devices.get(request.target)
        if device is None:
            return
        try:
            device.reply(request, fail=True)
        except I2OError:  # pragma: no cover - defensive
            logger.exception("failure reply failed")

    def _quarantine(self, tid: Tid, reason: str) -> None:
        """Watchdog action: mark the device FAILED and drop its queue."""
        device = self._devices.get(tid)
        if device is None:
            return
        logger.error("node %s: quarantining TiD %d: %s", self.node, tid, reason)
        device.state = DeviceState.FAILED
        if self.flightrec is not None:
            self.flightrec.record(EV_WATCHDOG_TRIP, int(tid))
        for frame in self.scheduler.drop_device(tid):
            self._release_frame(frame)
        if self.flightrec is not None:
            self.flightrec.spill("watchdog")

    def _release_frame(self, frame: Frame) -> None:
        if self.tracer is not None:
            self.tracer.forget(frame)
        if frame.block is not None:
            if self.flightrec is not None:
                self.flightrec.record(
                    EV_FRAME_RELEASE, frame.transaction_context
                )
            self.pool.free(frame.block)
            frame.block = None
