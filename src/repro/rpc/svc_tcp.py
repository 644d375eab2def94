"""TCP RPC server transport (``svctcp``) with record marking."""

import socket
import threading

from repro import obs as _obs
from repro.errors import FaultInjected, RpcProtocolError
from repro.rpc.faults import FaultySocket
from repro.rpc.record import read_record, write_record
from repro.rpc.resilience import InflightLimiter
from repro.rpc.server import serve_registry


class TcpServer:
    """Serves a :class:`~repro.rpc.server.SvcRegistry` (or a server
    specialization installed in one) over TCP.

    Each accepted connection gets its own daemon thread, processing
    record-marked calls until the peer disconnects.

    ``drc=True`` enables the registry's duplicate-request reply cache
    (keyed per peer) — duplicates cannot arise inside one healthy TCP
    stream, but a client that reconnects and replays an xid after a
    torn connection is answered from the cache rather than re-executing
    the handler.

    ``max_inflight=N`` bounds concurrently dispatching requests across
    all connections; requests over the cap are *shed* — answered with
    a ``SYSTEM_ERR`` reply instead of queuing without bound.  Graceful
    shutdown: :meth:`drain` puts the registry into drain mode and waits
    for in-flight dispatches to finish.

    ``fault_plan`` wraps every accepted connection in a
    :class:`~repro.rpc.faults.FaultySocket` (stream semantics: delay,
    corrupt, abort), faulting outgoing replies.
    """

    def __init__(self, registry, host="127.0.0.1", port=0, backlog=16,
                 drc=True, fault_plan=None,
                 max_inflight=None, drc_dir=None, drc_fsync=None,
                 online_spec=None):
        self.registry = registry
        self._limiter = InflightLimiter(max_inflight)
        #: requests answered with an over-cap shed reply
        self.requests_shed = 0
        #: the registry holding dispatch policy (see
        #: :func:`~repro.rpc.server.serve_registry`)
        self.svc, self.journal = serve_registry(
            registry, drc=drc, drc_dir=drc_dir, drc_fsync=drc_fsync,
            online_spec=online_spec)
        self.fault_plan = fault_plan
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind((host, port))
        self.sock.listen(backlog)
        self.sock.settimeout(0.2)
        self.host, self.port = self.sock.getsockname()
        self._stop = threading.Event()
        self._thread = None
        self._conn_threads = []
        self._conns = set()
        self._conns_lock = threading.Lock()
        self.connections_accepted = 0

    def _serve_connection(self, raw_conn, peer):
        raw_conn.settimeout(30.0)
        conn = raw_conn
        if self.fault_plan is not None:
            conn = FaultySocket(conn, self.fault_plan)
        try:
            while not self._stop.is_set():
                try:
                    data = read_record(conn)
                except (RpcProtocolError, socket.timeout, OSError):
                    # RpcConnectionError subclasses RpcProtocolError:
                    # a lost or misbehaving peer ends this connection
                    # thread, never the server.
                    return
                if not self._limiter.try_acquire():
                    # Over the in-flight cap: answer, don't queue.
                    reply = self.svc.shed_reply_bytes(
                        data, reason="queue_full")
                    self.requests_shed += 1
                else:
                    try:
                        reply = self.registry.dispatch_bytes(data,
                                                             caller=peer)
                    finally:
                        self._limiter.release()
                if reply is not None:
                    try:
                        write_record(conn, reply)
                    except (RpcProtocolError, FaultInjected):
                        return
        finally:
            conn.close()
            with self._conns_lock:
                self._conns.discard(raw_conn)

    def serve_forever(self):
        while not self._stop.is_set():
            try:
                conn, addr = self.sock.accept()
            except socket.timeout:
                continue
            except OSError:
                if self._stop.is_set():
                    return
                raise
            self.connections_accepted += 1
            with self._conns_lock:
                self._conns.add(conn)
            if _obs.enabled:
                _obs.registry.counter("rpc.server.connections",
                                      transport="tcp").inc()
            thread = threading.Thread(
                target=self._serve_connection, args=(conn, addr), daemon=True
            )
            thread.start()
            self._conn_threads.append(thread)

    @property
    def inflight(self):
        """Requests currently mid-dispatch across all connections."""
        return self._limiter.inflight

    def drain(self, timeout=5.0):
        """Graceful drain: registry into drain mode, wait for in-flight
        dispatches to finish.  Connections stay open (DRC replays and
        health checks still answer); call :meth:`stop` to tear down.
        Returns True once idle."""
        self.svc.begin_drain()
        return self._limiter.wait_idle(timeout)

    def start(self):
        self._stop.clear()
        self._thread = threading.Thread(
            target=self.serve_forever, name=f"svctcp:{self.port}", daemon=True
        )
        self._thread.start()
        return self.host, self.port

    def stop(self):
        self._stop.set()
        # Sever established connections so peers observe the stop as
        # RpcConnectionError immediately — a connection thread blocked
        # in read_record() would otherwise keep answering until its
        # socket timeout.  Drain first for a graceful goodbye.
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        if self.journal is not None:
            self.journal.close()
        self.sock.close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()
        return False
