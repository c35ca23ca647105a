"""TCP peer transport.

The paper's benchmark setup ran *"another PT thread ... handling TCP
communication for configuration and control purposes"* alongside the
Myrinet/GM data PT — the classic control/data plane split.  This
transport provides that role in the native plane: real sockets on
localhost (or anywhere), lazy outbound connections, and a task-mode
accept/reader thread per peer.

Both directions take the zero-copy path: transmit puts the frame's
pool buffer on the wire with vectored ``sendmsg`` (no serialisation
copy), and receive re-frames on the 12-byte wire header, allocates the
receiving pool block first, and ``recv_into``s the frame straight into
it — exactly one copy per node, the one off the wire.

Teardown is a contract, not a best effort: :meth:`TcpTransport.shutdown`
shuts the listener down (``close`` alone does not wake a thread blocked
in ``accept`` on Linux) and every socket the transport ever accepted or
dialled — including one that lost the race to become a node's cached
connection — so every PT thread wakes and exits.  A thread that still
does not stop within its join timeout raises :class:`TransportError`
naming it; a silent timeout never counts as a clean stop.
"""

from __future__ import annotations

import socket
import threading
from typing import TYPE_CHECKING

from repro.i2o.errors import FrameFormatError
from repro.i2o.frame import Frame
from repro.transports.base import PeerTransport, TransportError
from repro.transports.wire import (
    encode_wire_parts,
    read_wire_header,
    recv_into_exact,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.executive import Route


def _close(sock: socket.socket) -> None:
    """Shut a socket down (waking any thread blocked on it) and close it."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:  # never connected, or already shut down
        pass
    sock.close()


def _sendmsg_all(sock: socket.socket, parts: list) -> None:
    """Vectored send of all ``parts``, looping on partial writes."""
    views = [memoryview(p) for p in parts]
    while views:
        sent = sock.sendmsg(views)
        while sent:
            if sent >= len(views[0]):
                sent -= len(views[0])
                views.pop(0)
            else:
                views[0] = views[0][sent:]
                sent = 0


class TcpTransport(PeerTransport):
    """Task-mode TCP endpoint.

    ``peers`` maps node id → ``(host, port)``.  The local endpoint
    listens on ``listen_port`` (0 = ephemeral; read ``bound_port``
    after install).  Connections are made lazily on first transmit and
    cached; each accepted or initiated socket gets a reader thread.
    """

    #: seconds ``shutdown`` waits for each PT thread before it raises
    join_timeout_s = 2.0

    def __init__(
        self,
        name: str = "tcp",
        *,
        listen_host: str = "127.0.0.1",
        listen_port: int = 0,
        peers: dict[int, tuple[str, int]] | None = None,
    ) -> None:
        super().__init__(name=name, mode="task")
        self.listen_host = listen_host
        self.listen_port = listen_port
        self.peers: dict[int, tuple[str, int]] = dict(peers or {})
        self.bound_port: int | None = None
        self._server: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conns: dict[int, socket.socket] = {}
        #: every accepted or dialled socket still open, cached in
        #: ``_conns`` or not: shutdown closes all of them
        self._sockets: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._readers: list[threading.Thread] = []
        self._stop = threading.Event()

    # -- lifecycle ------------------------------------------------------------
    def on_plugin(self) -> None:
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self.listen_host, self.listen_port))
        server.listen(16)
        self._server = server
        self.bound_port = server.getsockname()[1]
        self._stop.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"pt-{self.name}-accept", daemon=True
        )
        self._accept_thread.start()

    def on_unplug(self) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Stop every PT thread and close every socket.

        Raises :class:`TransportError` naming any thread still alive
        after :attr:`join_timeout_s`."""
        self._stop.set()
        server, self._server = self._server, None
        if server is not None:
            _close(server)
        with self._conn_lock:
            sockets = list(self._sockets)
            self._sockets.clear()
            self._conns.clear()
            threads, self._readers = self._readers, []
        for sock in sockets:
            _close(sock)
        if self._accept_thread is not None:
            threads.append(self._accept_thread)
            self._accept_thread = None
        stuck = []
        for thread in threads:
            thread.join(timeout=self.join_timeout_s)
            if thread.is_alive():
                stuck.append(thread.name)
        if stuck:
            raise TransportError(
                f"transport {self.name!r}: thread(s) {', '.join(stuck)} "
                f"did not stop within {self.join_timeout_s:g} s"
            )

    def add_peer(self, node: int, host: str, port: int) -> None:
        self.peers[node] = (host, port)

    # -- transmit ---------------------------------------------------------------
    def transmit(self, frame: Frame, route: "Route") -> None:
        exe = self._require_live()
        sock = self._connection_to(route.node)
        # Scatter-gather: [wire header, frame's pool buffer].  The
        # frame stays with the caller until the send succeeds, then the
        # block is released — no serialisation copy on this side.
        parts = encode_wire_parts(exe.node, frame)
        try:
            _sendmsg_all(sock, list(parts))
        except OSError as exc:
            self._drop_connection(route.node)
            raise TransportError(f"send to node {route.node} failed: {exc}") from exc
        self.account_sent(frame.total_size)
        exe.frame_free(frame)

    def _connection_to(self, node: int) -> socket.socket:
        with self._conn_lock:
            sock = self._conns.get(node)
            if sock is not None:
                return sock
        address = self.peers.get(node)
        if address is None:
            raise TransportError(f"no TCP address configured for node {node}")
        try:
            sock = socket.create_connection(address, timeout=5)
        except OSError as exc:
            raise TransportError(f"connect to node {node} {address}: {exc}") from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if not self._adopt(sock):
            raise TransportError(f"transport {self.name!r} is shut down")
        with self._conn_lock:
            self._conns[node] = sock
        return sock

    def _drop_connection(self, node: int) -> None:
        with self._conn_lock:
            sock = self._conns.pop(node, None)
            if sock is not None:
                self._sockets.discard(sock)
        if sock is not None:
            _close(sock)

    # -- receive ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        server = self._server
        assert server is not None
        while not self._stop.is_set():
            try:
                conn, _addr = server.accept()
            except OSError:
                return  # listener shut down
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if not self._adopt(conn):
                return

    def _adopt(self, sock: socket.socket) -> bool:
        """Track a new socket and give it a reader thread — or, once
        shutdown has begun, close it and return False.

        Spawned from both the accept thread and (lazily, on first
        transmit) the dispatch thread.  Checking ``_stop`` under the
        lock that ``shutdown`` takes to collect sockets and readers
        means a socket is either collected there or closed here."""
        with self._conn_lock:
            if not self._stop.is_set():
                reader = threading.Thread(
                    target=self._reader_loop,
                    args=(sock,),
                    name=f"pt-{self.name}-reader",
                    daemon=True,
                )
                self._sockets.add(sock)
                self._readers.append(reader)
                reader.start()
                return True
        _close(sock)
        return False

    def _reader_loop(self, sock: socket.socket) -> None:
        while not self._stop.is_set():
            try:
                parsed = read_wire_header(sock.recv_into)
            except (OSError, FrameFormatError):
                return
            if parsed is None:
                return  # orderly shutdown at a message boundary
            src_node, frame_len = parsed
            # Learn the reverse path: an accepted connection can serve
            # replies to its originating node.
            with self._conn_lock:
                self._conns.setdefault(src_node, sock)

            def fill(view: memoryview, _sock: socket.socket = sock) -> None:
                if not recv_into_exact(_sock.recv_into, view):
                    raise TransportError("connection closed mid-frame")

            try:
                self.ingest_into(src_node, frame_len, fill)
            except (OSError, TransportError, FrameFormatError):
                return
