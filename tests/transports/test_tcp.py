"""TCP transport over real localhost sockets."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.executive import Executive
from repro.transports.agent import PeerTransportAgent
from repro.transports.base import TransportError
from repro.transports.tcp import TcpTransport

from tests.transports.harness import Caller, Echo

REMOTE_TID = 5
INITIATOR_TID = 0

# Round-trip, burst, large-payload and counter semantics are covered
# for every transport by tests/transports/test_conformance.py; this
# module keeps only what is TCP-specific (socket learning, dialing).


def new_pt_threads(before: set[threading.Thread]) -> list[str]:
    """PT threads alive now that were not alive at ``before``."""
    return sorted(
        t.name for t in threading.enumerate()
        if t.name.startswith("pt-") and t not in before
    )


@pytest.fixture
def tcp_cluster():
    """Two threaded executives joined by real TCP sockets; teardown
    proves no PT thread survives."""
    before = set(threading.enumerate())
    exes, pts = {}, {}
    for node in range(2):
        exe = Executive(node=node)
        pt = TcpTransport(name="tcp")
        PeerTransportAgent.attach(exe).register(pt, default=True)
        exes[node], pts[node] = exe, pt
    # Exchange the ephemeral ports.
    pts[0].add_peer(1, "127.0.0.1", pts[1].bound_port)
    pts[1].add_peer(0, "127.0.0.1", pts[0].bound_port)
    for exe in exes.values():
        exe.start(poll_interval=0.001)
    yield exes, pts
    for exe in exes.values():
        exe.stop()
    for pt in pts.values():
        pt.shutdown()
    for exe in exes.values():
        exe.pool.check_conservation()
    assert new_pt_threads(before) == []


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


class TestTcp:
    def test_teardown_is_prompt_with_sockets_in_both_directions(self):
        """Both nodes dial each other, so each holds an initiated and an
        accepted socket for the same peer and one of them loses the
        race to be the cached connection.  Shutdown must still wake
        every reader and the accept thread well inside a join timeout."""
        before = set(threading.enumerate())
        exes, pts = {}, {}
        for node in range(2):
            exe = Executive(node=node)
            pt = TcpTransport(name="tcp")
            PeerTransportAgent.attach(exe).register(pt, default=True)
            exes[node], pts[node] = exe, pt
        pts[0].add_peer(1, "127.0.0.1", pts[1].bound_port)
        pts[1].add_peer(0, "127.0.0.1", pts[0].bound_port)
        callers, echoes = {}, {}
        for node in range(2):
            echoes[node] = exes[node].install(Echo())
            callers[node] = Caller()
            exes[node].install(callers[node])
        for exe in exes.values():
            exe.start(poll_interval=0.001)
        try:
            for node in range(2):
                peer = 1 - node
                callers[node].send(exes[node].create_proxy(peer, echoes[peer]),
                                   b"both ways", xfunction=0x1)
            assert wait_for(lambda: all(
                c.replies == [b"both ways"] for c in callers.values()
            ))
        finally:
            for exe in exes.values():
                exe.stop()
        t0 = time.monotonic()
        for pt in pts.values():
            pt.shutdown()
        elapsed = time.monotonic() - t0
        assert new_pt_threads(before) == []
        assert elapsed < TcpTransport.join_timeout_s / 2
        for exe in exes.values():
            exe.pool.check_conservation()

    def test_thread_outliving_join_timeout_raises(self):
        exe = Executive(node=0)
        pt = TcpTransport(name="tcp")
        PeerTransportAgent.attach(exe).register(pt, default=True)
        release = threading.Event()
        stuck = threading.Thread(target=release.wait, name="pt-tcp-stuck",
                                 daemon=True)
        stuck.start()
        pt._readers.append(stuck)
        pt.join_timeout_s = 0.05
        try:
            with pytest.raises(TransportError, match="pt-tcp-stuck"):
                pt.shutdown()
        finally:
            release.set()
            stuck.join()

    def test_reverse_path_learned_from_accepted_connection(self, tcp_cluster):
        """The reply comes back over the same socket the request used,
        even though node 1 never dialled node 0."""
        exes, pts = tcp_cluster
        pts[1].peers.clear()  # node 1 cannot dial out at all
        echo_tid = exes[1].install(Echo())
        caller = Caller()
        exes[0].install(caller)
        caller.send(exes[0].create_proxy(1, echo_tid), b"learned",
                    xfunction=0x1)
        assert wait_for(lambda: caller.replies == [b"learned"])

    def test_unconfigured_peer_raises(self):
        exe = Executive(node=0)
        pt = TcpTransport(name="tcp")
        PeerTransportAgent.attach(exe).register(pt, default=True)
        try:
            frame = exe.frame_alloc(0, target=REMOTE_TID,
                                    initiator=INITIATOR_TID)
            from repro.core.executive import Route

            with pytest.raises(TransportError, match="no TCP address"):
                pt.transmit(frame, Route(node=42, remote_tid=REMOTE_TID))
            exe.frame_free(frame)
        finally:
            pt.shutdown()
