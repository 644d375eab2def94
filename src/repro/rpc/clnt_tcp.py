"""TCP RPC client (``clnttcp_call``): record-marked stream transport.

Every wire failure is translated to a typed
:class:`~repro.errors.RpcError`: timeouts raise
:class:`~repro.errors.RpcTimeoutError`, connection loss (reset,
broken pipe, EOF mid-record) raises
:class:`~repro.errors.RpcConnectionError`, and a peer that sends
unframeable garbage raises :class:`~repro.errors.RpcProtocolError` —
callers never see ``struct.error`` or a bare ``OSError``.

With observability enabled (``repro.obs``), each call emits a
``client.call`` span (``transport=tcp``) with ``client.encode`` /
``client.send`` / ``client.wait`` / ``client.decode`` children plus
per-call counters and a latency histogram; stale replies consumed
inside the read loop are counted like the UDP client's.
"""

import socket
import struct
import time

from repro import obs as _obs
from repro.errors import (
    RpcConnectionError,
    RpcDeadlineExceeded,
    RpcProtocolError,
    RpcTimeoutError,
)
from repro.rpc.client import RpcClient
from repro.rpc.record import read_record, write_record
from repro.rpc.resilience import Deadline


class TcpClient(RpcClient):
    """An RPC client over a persistent TCP connection.

    After a :class:`~repro.errors.RpcConnectionError` the client can be
    revived in place with :meth:`reconnect`, which re-establishes the
    connection *and* resets per-call state — no span state survives the
    failed call, so a failed-then-retried call reports exactly one
    encode span per attempt.
    """

    def __init__(self, host, port, prog, vers, timeout=25.0, bufsize=1 << 16,
                 fault_plan=None, **kwargs):
        super().__init__(prog, vers, bufsize=bufsize, **kwargs)
        self.address = (host, port)
        self.timeout = timeout
        self._fault_plan = fault_plan
        #: calls finished (returned or raised) over the client's lifetime
        self.calls_completed = 0
        #: stale replies discarded over the client's lifetime
        self.stale_replies = 0
        #: successful :meth:`reconnect` calls over the client's lifetime
        self.reconnects = 0
        self.sock = self._connect(timeout)

    def _connect(self, timeout):
        """A connected (and fault-wrapped) socket to ``self.address``."""
        host, port = self.address
        try:
            sock = socket.create_connection(self.address, timeout=timeout)
        except socket.timeout as exc:
            raise RpcTimeoutError(
                f"connect to {host}:{port} timed out after {timeout}s"
            ) from exc
        except OSError as exc:
            raise RpcConnectionError(
                f"cannot connect to {host}:{port}: {exc}"
            ) from exc
        sock.settimeout(self.timeout)
        if self._fault_plan is not None:
            from repro.rpc.faults import FaultySocket

            sock = FaultySocket(sock, self._fault_plan)
        return sock

    def reconnect(self, deadline=None):
        """Re-establish the connection after a connection failure.

        Resets per-call state so the retried call starts clean: the
        old socket (possibly holding a half-written record) is closed
        and every request is re-encoded.  ``deadline`` bounds the
        connect attempt
        (it draws from the same per-call budget as everything else).
        """
        deadline = Deadline.coerce(deadline)
        timeout = self.timeout
        if deadline is not None:
            timeout = min(timeout, deadline.check("reconnect"))
        try:
            self.sock.close()
        except OSError:
            pass
        try:
            self.sock = self._connect(timeout)
        except RpcTimeoutError:
            if deadline is not None and deadline.expired:
                raise RpcDeadlineExceeded(
                    f"deadline exceeded reconnecting to {self.address}"
                ) from None
            raise
        self.reconnects += 1
        return self

    def call(self, proc, args=None, xdr_args=None, xdr_res=None,
             deadline=None):
        """One RPC.  ``deadline`` (a
        :class:`~repro.rpc.resilience.Deadline` or seconds budget) caps
        the whole call — the reply wait is clamped to the remaining
        budget and exhaustion raises
        :class:`~repro.errors.RpcDeadlineExceeded`."""
        deadline = Deadline.coerce(deadline)
        xid = self.next_xid()
        span = None
        if _obs.enabled:
            tier = "specialized" if proc in self._codecs else "generic"
            _obs.registry.counter("rpc.client.calls", transport="tcp",
                                  tier=tier).inc()
            span = _obs.span("client.call", side="client", transport="tcp",
                             xid=xid, prog=self.prog, vers=self.vers,
                             proc=proc, tier=tier)
        started = time.monotonic() if _obs.enabled else 0.0
        try:
            if deadline is not None:
                # Pre-flight check + clamp the socket to the remaining
                # budget for this call's reads/writes.
                self.sock.settimeout(
                    min(self.timeout, deadline.check(f"proc={proc}"))
                )
            value = self._call_once(xid, proc, args, xdr_args, xdr_res,
                                    span, deadline)
        except BaseException as exc:
            self._finish_call(started, type(exc).__name__)
            if span is not None:
                span.end(outcome="error", error=type(exc).__name__)
            raise
        finally:
            if deadline is not None:
                try:
                    self.sock.settimeout(self.timeout)
                except OSError:
                    pass
        self._finish_call(started, "ok")
        if span is not None:
            span.end(outcome="ok")
        return value

    def _finish_call(self, started, outcome):
        """Single per-call aggregation point (cf. the UDP client's)."""
        self.calls_completed += 1
        if not _obs.enabled:
            return
        registry = _obs.registry
        registry.counter("rpc.client.attempts", transport="tcp").inc()
        if outcome == "RpcDeadlineExceeded":
            registry.counter("rpc.client.deadline_exceeded",
                             transport="tcp").inc()
        elif outcome == "RpcTimeoutError":
            registry.counter("rpc.client.timeouts", transport="tcp").inc()
        elif outcome != "ok":
            registry.counter("rpc.client.errors", transport="tcp",
                             error=outcome).inc()
        registry.histogram("rpc.client.call_latency_s",
                           transport="tcp").observe(
            time.monotonic() - started
        )

    def _call_once(self, xid, proc, args, xdr_args, xdr_res, span=None,
                   deadline=None):
        wait_span = None
        encode_span = (span.child("client.encode")
                       if span is not None else None)
        try:
            if (self.propagate_deadline and deadline is not None
                    and proc not in self._codecs):
                # Deadline propagation: carry the remaining budget in
                # the deadline cred so the server can drop doomed work.
                request = self.build_call_deadline(xid, proc, args,
                                                   xdr_args, deadline)
            else:
                request = self.build_call(xid, proc, args, xdr_args)
        except BaseException as exc:
            if encode_span is not None:
                encode_span.end(outcome="error", error=type(exc).__name__)
            raise
        if encode_span is not None:
            encode_span.end(bytes=len(request))
        try:
            send_span = (span.child("client.send", bytes=len(request))
                         if span is not None else None)
            write_record(self.sock, request)
            if send_span is not None:
                send_span.end()
            wait_span = (span.child("client.wait")
                         if span is not None else None)
            while True:
                data = read_record(self.sock)
                if span is not None:
                    decode_span = span.child("client.decode",
                                             bytes=len(data))
                    try:
                        matched, value = self.parse_reply(data, xid, proc,
                                                          xdr_res)
                    except BaseException as exc:
                        decode_span.end(outcome="error",
                                        error=type(exc).__name__)
                        raise
                    decode_span.end(matched=matched)
                else:
                    matched, value = self.parse_reply(data, xid, proc,
                                                      xdr_res)
                if matched:
                    if wait_span is not None:
                        wait_span.end(outcome="reply")
                    return value
                # A reply for an earlier xid on our own stream: count
                # it per-lifetime and keep reading.
                self.stale_replies += 1
                if _obs.enabled:
                    _obs.registry.counter("rpc.client.stale_replies",
                                          transport="tcp").inc()
        except socket.timeout as exc:
            if deadline is not None and deadline.expired:
                raise RpcDeadlineExceeded(
                    f"TCP RPC call (prog={self.prog}, proc={proc})"
                    f" exceeded its deadline of {deadline.budget_s}s"
                ) from exc
            raise RpcTimeoutError(
                f"TCP RPC call (prog={self.prog}, proc={proc}) timed out"
            ) from exc
        except struct.error as exc:
            # A corrupted stream can desync any decoder below us; make
            # it a protocol error instead of leaking the struct layer.
            raise RpcProtocolError(
                f"undecodable reply on TCP stream: {exc}"
            ) from exc
        except (BrokenPipeError, ConnectionResetError,
                ConnectionAbortedError) as exc:
            raise RpcConnectionError(f"connection failed: {exc}") from exc
        finally:
            if wait_span is not None:
                # Idempotent: a no-op when the reply path already
                # closed it; closes the span on every error path.
                wait_span.end(outcome="aborted")

    def close(self):
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
