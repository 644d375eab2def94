"""``repro.rpc.svc_mux`` — readiness-driven (event-loop) server
transports.

The threaded servers (:mod:`repro.rpc.svc_udp`,
:mod:`repro.rpc.svc_tcp`) spend a thread per connection (TCP) or a
blocking receive loop plus a worker pool (UDP).  The mux tier replaces
both with one :mod:`selectors` event loop per server:

* :class:`MuxUdpServer` — a non-blocking datagram socket drained to
  EAGAIN on every readiness wakeup, so a burst of N datagrams costs
  one ``select`` return instead of N; understands the client-side
  batch envelope (:func:`repro.rpc.mux.unpack_batch`) and answers a
  batched request datagram with a batched reply datagram.
* :class:`MuxTcpServer` — accept, read, and write readiness all
  multiplexed in one loop; per-connection incremental record
  reassembly (:class:`repro.rpc.record.RecordAssembler`) and buffered
  writes with write-interest registration under backpressure.  No
  thread per connection: 1,000 idle connections cost 1,000 registered
  keys, not 1,000 stacks.

Dispatch feeds the same machinery as the threaded tier — the
registry's routes, DRC, drain mode, and overload
control.  ``workers=N`` hands decoded requests to the existing bounded
:class:`~repro.rpc.resilience.WorkerPool` (replies are routed back to
the loop thread for transmission); ``workers=0`` dispatches inline on
the loop thread, which is the fastest configuration for cheap handlers
(no cross-thread handoff) and the right one for the loopback bench.
Either way a full queue *sheds* (SYSTEM_ERR reply, never silence, and
never a DRC store).

Telemetry: ``rpc.mux.wakeups{side=server}`` and
``rpc.mux.batch_size{side=server}`` complement the client-side series
(see :mod:`repro.obs.catalog`).
"""

import collections
import selectors
import socket
import threading
import time

from repro import obs as _obs
from repro.errors import FaultInjected, RpcProtocolError
from repro.rpc.client import UDPMSGSIZE
from repro.rpc.faults import FaultySocket
from repro.rpc.mux import batch_overhead, mark_record, pack_batch, \
    unpack_batch
from repro.rpc.record import RecordAssembler
from repro.rpc.resilience import InflightLimiter, WorkerPool
from repro.rpc.server import serve_registry

__all__ = ["MuxTcpServer", "MuxUdpServer", "make_server"]


class _EventLoopMixin:
    """Selector + wakeup plumbing shared by both mux servers."""

    def _init_loop(self):
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ,
                                self._on_wakeup)
        self._stop = threading.Event()
        self._thread = None

    def _wake(self):
        try:
            self._wake_w.send(b"\0")
        except (BlockingIOError, OSError):
            pass

    def _on_wakeup(self, key, mask):
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def serve_forever(self):
        while not self._stop.is_set():
            events = self._selector.select(timeout=0.2)
            if _obs.enabled:
                _obs.registry.counter("rpc.mux.wakeups", side="server",
                                      transport=self._transport).inc()
            for key, mask in events:
                if self._stop.is_set():
                    return
                key.data(key, mask)
            self._between_events()

    def _between_events(self):
        pass

    def start(self):
        """Run the server in a daemon thread; returns (host, port)."""
        self._stop.clear()
        self._thread = threading.Thread(
            target=self.serve_forever,
            name=f"svcmux-{self._transport}:{self.port}", daemon=True,
        )
        self._thread.start()
        return self.host, self.port

    def _stop_loop(self):
        self._stop.set()
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        try:
            self._selector.close()
        except OSError:
            pass
        try:
            self._wake_r.close()
            self._wake_w.close()
        except OSError:
            pass

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()
        return False


class MuxUdpServer(_EventLoopMixin):
    """Event-loop UDP server, batch-envelope aware.

    Keeps the threaded :class:`~repro.rpc.svc_udp.UdpServer` contract —
    same constructor knobs, same ``requests_handled`` /
    ``requests_shed`` counters, same :meth:`drain`/:meth:`stop`
    lifecycle — so replicas and benches swap tiers with one line.

    A datagram carrying the batch envelope is unwrapped and each inner
    call dispatched; the replies are re-batched into (at most
    ``bufsize``-sized) reply datagrams, so a 32-call batch costs one
    receive syscall and one send syscall instead of 64.
    """

    _transport = "udp"

    def __init__(self, registry, host="127.0.0.1", port=0,
                 bufsize=UDPMSGSIZE, drc=True,
                 fault_plan=None, workers=0, queue_depth=64,
                 drc_dir=None, drc_fsync=None, online_spec=None,
                 queue_policy=None, queue_target_s=None,
                 queue_interval_s=None):
        self.registry = registry
        self.bufsize = bufsize
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind((host, port))
        self.sock.setblocking(False)
        self.host, self.port = self.sock.getsockname()
        if fault_plan is not None:
            self.sock = FaultySocket(self.sock, fault_plan)
        self.requests_handled = 0
        self.requests_shed = 0
        self._counters_lock = threading.Lock()
        self._recv_buffer = bytearray(bufsize)
        #: the registry holding dispatch policy (see
        #: :func:`~repro.rpc.server.serve_registry`)
        self.svc, self.journal = serve_registry(
            registry, drc=drc, drc_dir=drc_dir, drc_fsync=drc_fsync,
            online_spec=online_spec)
        self._inflight = InflightLimiter()
        self._pool = None
        #: worker-produced replies routed back to the loop for sending
        self._replyq = collections.deque()
        if workers:
            self._pool = WorkerPool(
                workers, queue_depth, self._work,
                name=f"svcmux-udp:{self.port}",
                queue_policy=queue_policy,
                queue_target_s=queue_target_s,
                queue_interval_s=queue_interval_s,
                shed_handler=self._shed_sojourn,
            )
        self._init_loop()
        self._selector.register(self.sock, selectors.EVENT_READ,
                                self._on_readable)

    @property
    def inflight(self):
        if self._pool is not None:
            return self._pool.inflight
        return self._inflight.inflight

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, data, addr, received_at=None):
        """One RPC message → reply bytes (or None); any thread."""
        reply = self.registry.dispatch_bytes(data, caller=addr,
                                             received_at=received_at)
        with self._counters_lock:
            self.requests_handled += 1
        if _obs.enabled:
            _obs.registry.counter("rpc.server.datagrams",
                                  transport="udp").inc()
        return reply

    def _work(self, item):
        data, addr, received_at = item
        reply = self._dispatch(data, addr, received_at)
        if reply is not None:
            # sendto on a datagram socket is atomic and thread-safe;
            # workers answer directly instead of round-tripping through
            # the loop (single messages only — batches are loop-side).
            self._send(reply, addr)

    def _shed(self, data, addr, reason="queue_full"):
        shed = self.svc.shed_reply_bytes(data, reason=reason)
        with self._counters_lock:
            self.requests_shed += 1
        return shed

    def _shed_sojourn(self, item):
        """Answer a request the CoDel controller shed after queueing
        (worker thread; sendto is atomic and thread-safe)."""
        data, addr, _received_at = item
        reply = self._shed(data, addr, reason="sojourn")
        if reply is not None:
            self._send(reply, addr)

    def _send(self, payload, addr):
        try:
            self.sock.sendto(payload, addr)
        except (FaultInjected, OSError):
            pass  # a lost reply is the client's retransmit to recover

    # -- the event loop ----------------------------------------------------

    def _on_readable(self, key, mask):
        """Drain every queued datagram for one readiness wakeup."""
        while not self._stop.is_set():
            try:
                nbytes, addr = self.sock.recvfrom_into(self._recv_buffer)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            data = memoryview(self._recv_buffer)[:nbytes]
            received_at = time.monotonic()
            try:
                messages = unpack_batch(data)
            except RpcProtocolError:
                continue  # truncated envelope: drop like garbage
            if messages is None:
                self._handle_single(data, addr, received_at)
            else:
                self._handle_batch(messages, addr, received_at)

    def _handle_single(self, data, addr, received_at=None):
        if self._pool is not None:
            # The receive buffer is reused; workers need their own copy.
            if not self._pool.submit((bytes(data), addr, received_at)):
                reply = self._shed(data, addr)
                if reply is not None:
                    self._send(reply, addr)
            return
        self._inflight.try_acquire()
        try:
            reply = self._dispatch(data, addr, received_at)
        finally:
            self._inflight.release()
        if reply is not None:
            self._send(reply, addr)

    def _handle_batch(self, messages, addr, received_at=None):
        """Dispatch a batched request datagram; batch the replies.

        With workers, each inner message is queued (or shed)
        individually — a full queue sheds the overflow, not the whole
        batch.  Inline, the replies are grouped into reply datagrams of
        at most ``bufsize`` bytes.
        """
        if _obs.enabled:
            _obs.registry.histogram("rpc.mux.batch_size", side="server",
                                    transport="udp").observe(len(messages))
        if self._pool is not None:
            for message in messages:
                if not self._pool.submit((bytes(message), addr,
                                          received_at)):
                    reply = self._shed(message, addr)
                    if reply is not None:
                        self._send(reply, addr)
            return
        replies = []
        # One limiter slot, one counter-lock acquisition, and one
        # datagram count for the whole batch: the per-message work in
        # this loop is exactly one dispatch.
        dispatch = self.registry.dispatch_bytes
        self._inflight.try_acquire()
        try:
            for message in messages:
                reply = dispatch(message, caller=addr,
                                 received_at=received_at)
                if reply is not None:
                    replies.append(reply)
        finally:
            self._inflight.release()
        with self._counters_lock:
            self.requests_handled += len(messages)
        if _obs.enabled:
            _obs.registry.counter("rpc.server.datagrams",
                                  transport="udp").inc()
        self._send_replies(replies, addr)

    def _send_replies(self, replies, addr):
        """Send replies, re-batching under the datagram size cap."""
        group = []
        group_bytes = batch_overhead(0)
        for reply in replies:
            size = len(reply) + 4
            if group and group_bytes + size > self.bufsize:
                self._flush_reply_group(group, addr)
                group, group_bytes = [], batch_overhead(0)
            group.append(reply)
            group_bytes += size
        if group:
            self._flush_reply_group(group, addr)

    def _flush_reply_group(self, group, addr):
        if len(group) == 1:
            self._send(group[0], addr)
        else:
            self._send(pack_batch(group), addr)

    # -- lifecycle ---------------------------------------------------------

    def drain(self, timeout=5.0):
        """Graceful drain (same contract as the threaded server)."""
        self.svc.begin_drain()
        if self._pool is not None:
            return self._pool.wait_idle(timeout)
        return self._inflight.wait_idle(timeout)

    def stop(self):
        self._stop_loop()
        if self._pool is not None:
            self._pool.stop()
        if self.journal is not None:
            self.journal.close()
        self.sock.close()


class _MuxConn:
    """Per-connection state for :class:`MuxTcpServer`."""

    __slots__ = ("sock", "peer", "assembler", "outbuf", "writing")

    def __init__(self, sock, peer, max_record):
        self.sock = sock
        self.peer = peer
        self.assembler = RecordAssembler(max_size=max_record)
        self.outbuf = bytearray()
        #: registered for EVENT_WRITE (backpressure) when True
        self.writing = False


class MuxTcpServer(_EventLoopMixin):
    """Event-loop TCP server: one thread, N connections.

    Pipelined requests on one connection are answered in arrival
    order; several replies ready at once coalesce into one ``send``.
    ``max_inflight`` sheds (SYSTEM_ERR) over the cap exactly like the
    threaded tier; ``workers=N`` moves dispatch to the bounded pool
    with replies routed back to the loop thread.
    """

    _transport = "tcp"

    def __init__(self, registry, host="127.0.0.1", port=0, backlog=128,
                 drc=True, fault_plan=None,
                 max_inflight=None, workers=0, queue_depth=64,
                 max_record=1 << 24, drc_dir=None, drc_fsync=None,
                 online_spec=None, queue_policy=None,
                 queue_target_s=None, queue_interval_s=None):
        self.registry = registry
        self.max_record = max_record
        self._limiter = InflightLimiter(max_inflight)
        self.requests_shed = 0
        self.requests_handled = 0
        self._counters_lock = threading.Lock()
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
        self.sock.setblocking(False)
        self.host, self.port = self.sock.getsockname()
        self.connections_accepted = 0
        self._conns = {}
        self._pool = None
        self._replyq = collections.deque()
        self._replyq_lock = threading.Lock()
        if workers:
            self._pool = WorkerPool(
                workers, queue_depth, self._work,
                name=f"svcmux-tcp:{self.port}",
                queue_policy=queue_policy,
                queue_target_s=queue_target_s,
                queue_interval_s=queue_interval_s,
                shed_handler=self._shed_sojourn,
            )
        self._init_loop()
        self._selector.register(self.sock, selectors.EVENT_READ,
                                self._on_accept)

    @property
    def inflight(self):
        if self._pool is not None:
            return self._pool.inflight
        return self._limiter.inflight

    # -- accept / read / write callbacks -----------------------------------

    def _on_accept(self, key, mask):
        while not self._stop.is_set():
            try:
                raw, peer = self.sock.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            raw.setblocking(False)
            wire = raw
            if self.fault_plan is not None:
                wire = FaultySocket(wire, self.fault_plan)
            conn = _MuxConn(wire, peer, self.max_record)
            self._conns[raw.fileno()] = conn
            self.connections_accepted += 1
            if _obs.enabled:
                _obs.registry.counter("rpc.server.connections",
                                      transport="tcp").inc()
            self._selector.register(
                wire, selectors.EVENT_READ,
                lambda key, mask, conn=conn: self._on_conn_event(conn, mask),
            )

    def _on_conn_event(self, conn, mask):
        if mask & selectors.EVENT_READ:
            self._read_conn(conn)
        if mask & selectors.EVENT_WRITE:
            self._write_conn(conn)

    def _read_conn(self, conn):
        while True:
            try:
                chunk = conn.sock.recv(1 << 16)
            except (BlockingIOError, InterruptedError):
                return
            except (FaultInjected, OSError):
                self._close_conn(conn)
                return
            if not chunk:
                self._close_conn(conn)
                return
            try:
                records = conn.assembler.feed(chunk)
            except RpcProtocolError:
                # A desynced or abusive peer ends its own connection,
                # never the server.
                self._close_conn(conn)
                return
            if records and _obs.enabled:
                _obs.registry.histogram(
                    "rpc.mux.batch_size", side="server", transport="tcp"
                ).observe(len(records))
            received_at = time.monotonic()
            for record in records:
                self._handle_record(conn, record, received_at)
            if len(chunk) < (1 << 16):
                return

    def _handle_record(self, conn, record, received_at=None):
        if self._pool is not None:
            if not self._pool.submit((conn, record, received_at)):
                reply = self._shed(record)
                if reply is not None:
                    self._queue_reply(conn, reply)
            return
        if not self._limiter.try_acquire():
            reply = self._shed(record)
        else:
            try:
                reply = self._dispatch(record, conn.peer, received_at)
            finally:
                self._limiter.release()
        if reply is not None:
            self._queue_reply(conn, reply)

    def _dispatch(self, record, peer, received_at=None):
        reply = self.registry.dispatch_bytes(record, caller=peer,
                                             received_at=received_at)
        with self._counters_lock:
            self.requests_handled += 1
        return reply

    def _shed(self, record, reason="queue_full"):
        shed = self.svc.shed_reply_bytes(record, reason=reason)
        with self._counters_lock:
            self.requests_shed += 1
        return shed

    def _shed_sojourn(self, item):
        """CoDel sojourn shed (worker thread): the SYSTEM_ERR reply
        rides back to the loop thread like any worker reply."""
        conn, record, _received_at = item
        reply = self._shed(record, reason="sojourn")
        if reply is not None:
            with self._replyq_lock:
                self._replyq.append((conn, reply))
            self._wake()

    def _work(self, item):
        """Worker-side dispatch; the reply rides back via the loop."""
        conn, record, received_at = item
        reply = self._dispatch(record, conn.peer, received_at)
        if reply is not None:
            with self._replyq_lock:
                self._replyq.append((conn, reply))
            self._wake()

    def _between_events(self):
        """Drain worker replies onto their connections (loop thread)."""
        while True:
            with self._replyq_lock:
                if not self._replyq:
                    return
                conn, reply = self._replyq.popleft()
            self._queue_reply(conn, reply)

    def _queue_reply(self, conn, reply):
        """Append a record-marked reply and pump the connection."""
        if conn.sock.fileno() < 0:
            return  # connection already closed
        conn.outbuf += mark_record(reply)
        self._write_conn(conn)

    def _write_conn(self, conn):
        while conn.outbuf:
            try:
                sent = conn.sock.send(conn.outbuf)
            except (BlockingIOError, InterruptedError):
                break
            except (FaultInjected, OSError):
                self._close_conn(conn)
                return
            if sent <= 0:
                break
            del conn.outbuf[:sent]
        # Register/unregister write interest as backpressure demands.
        if conn.outbuf and not conn.writing:
            conn.writing = True
            self._selector.modify(
                conn.sock, selectors.EVENT_READ | selectors.EVENT_WRITE,
                lambda key, mask, conn=conn: self._on_conn_event(conn, mask),
            )
        elif not conn.outbuf and conn.writing:
            conn.writing = False
            self._selector.modify(
                conn.sock, selectors.EVENT_READ,
                lambda key, mask, conn=conn: self._on_conn_event(conn, mask),
            )

    def _close_conn(self, conn):
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        self._conns.pop(conn.sock.fileno(), None)
        try:
            conn.sock.close()
        except OSError:
            pass

    # -- lifecycle ---------------------------------------------------------

    def drain(self, timeout=5.0):
        """Graceful drain (same contract as the threaded server)."""
        self.svc.begin_drain()
        if self._pool is not None:
            return self._pool.wait_idle(timeout)
        return self._limiter.wait_idle(timeout)

    def stop(self):
        self._stop_loop()
        if self._pool is not None:
            self._pool.stop()
        if self.journal is not None:
            self.journal.close()
        for conn in list(self._conns.values()):
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.sock.close()
            except OSError:
                pass
        self._conns.clear()
        self.sock.close()


def make_server(registry, transport="udp", engine="threaded", **kwargs):
    """Engine-selected server construction.

    ``engine="threaded"`` returns the classic
    :class:`~repro.rpc.svc_udp.UdpServer` /
    :class:`~repro.rpc.svc_tcp.TcpServer`; ``engine="mux"`` returns the
    event-loop tier.  Both tiers of a transport accept the same core
    knobs, so callers switch engines without touching the rest of the
    configuration.
    """
    if engine not in ("threaded", "mux"):
        raise ValueError(f"unknown engine {engine!r}")
    if transport == "udp":
        if engine == "mux":
            return MuxUdpServer(registry, **kwargs)
        from repro.rpc.svc_udp import UdpServer

        return UdpServer(registry, **kwargs)
    if transport == "tcp":
        if engine == "mux":
            return MuxTcpServer(registry, **kwargs)
        from repro.rpc.svc_tcp import TcpServer

        kwargs.pop("workers", None)
        kwargs.pop("queue_depth", None)
        kwargs.pop("queue_policy", None)
        kwargs.pop("queue_target_s", None)
        kwargs.pop("queue_interval_s", None)
        return TcpServer(registry, **kwargs)
    raise ValueError(f"unknown transport {transport!r}")
