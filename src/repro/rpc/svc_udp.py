"""UDP RPC server transport (``svcudp``)."""

import socket
import threading
import time

from repro import obs as _obs
from repro.errors import RpcProtocolError
from repro.rpc.client import UDPMSGSIZE
from repro.rpc.faults import FaultySocket
from repro.rpc.resilience import InflightLimiter, WorkerPool
from repro.rpc.server import serve_registry


class UdpServer:
    """Serves a :class:`~repro.rpc.server.SvcRegistry` (or a server
    specialization installed in one) over UDP.

    Usable inline (``handle_once`` in a loop) or as a daemon thread
    (``start``/``stop``), which is how the tests and examples run
    loopback round-trips.

    ``drc=True`` (the default) turns on the registry's duplicate-request
    reply cache so retransmitted requests replay the recorded reply
    instead of re-executing the handler — the UDP retransmission
    discipline makes duplicates a fact of life on this transport.

    ``workers=N`` (N >= 1) switches dispatch to a bounded request queue
    drained by N worker threads: the receive loop only reads datagrams
    and enqueues them, and when the queue (``queue_depth``) is full the
    request is *shed* — answered immediately with a ``SYSTEM_ERR``
    reply so the client fails over instead of retransmitting into a
    black hole.  ``workers=0`` keeps the classic inline dispatch.

    Graceful shutdown: :meth:`drain` puts the registry into drain mode
    (DRC replays and health checks still answered, new work shed) and
    waits for in-flight requests to finish; :meth:`stop` then tears the
    transport down.

    ``fault_plan`` wraps the server socket in a
    :class:`~repro.rpc.faults.FaultySocket`, faulting outgoing replies
    (the reply half of a lossy wire; wrap the client to lose requests).
    """

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
        self.sock.settimeout(0.2)
        self.host, self.port = self.sock.getsockname()
        if fault_plan is not None:
            self.sock = FaultySocket(self.sock, fault_plan)
        self._thread = None
        self._stop = threading.Event()
        #: datagrams processed (for tests)
        self.requests_handled = 0
        #: requests answered with a queue-full shed reply
        self.requests_shed = 0
        self._counters_lock = threading.Lock()
        #: in-flight tracking for graceful drain (inline mode; worker
        #: mode tracks through the pool's own limiter)
        self._inflight = InflightLimiter()
        #: the registry holding dispatch policy (drain, shed, DRC,
        #: journal, profiler) — ``registry`` itself, or the one a
        #: specialization is installed in
        self.svc, self.journal = serve_registry(
            registry, drc=drc, drc_dir=drc_dir, drc_fsync=drc_fsync,
            online_spec=online_spec)
        self._pool = None
        if workers:
            self._pool = WorkerPool(
                workers, queue_depth, self._work,
                name=f"svcudp:{self.port}",
                queue_policy=queue_policy,
                queue_target_s=queue_target_s,
                queue_interval_s=queue_interval_s,
                shed_handler=self._shed_sojourn,
            )

    def _process(self, data, addr, received_at=None):
        """Dispatch one datagram and send the reply (any thread).

        A datagram carrying the mux tier's batch envelope is unwrapped
        and each inner call dispatched and answered individually, so a
        pipelining :class:`~repro.rpc.mux.MuxUdpClient` works against
        the threaded tier too (the event-loop tier additionally
        re-batches the replies).
        """
        from repro.rpc.mux import unpack_batch

        try:
            messages = unpack_batch(data)
        except RpcProtocolError:
            return  # truncated envelope: drop like any garbage datagram
        for message in ([data] if messages is None else messages):
            reply = self.registry.dispatch_bytes(message, caller=addr,
                                                 received_at=received_at)
            if reply is not None:
                self.sock.sendto(reply, addr)
            with self._counters_lock:
                self.requests_handled += 1
            if _obs.enabled:
                _obs.registry.counter("rpc.server.datagrams",
                                      transport="udp").inc()

    def _work(self, item):
        data, addr, received_at = item
        self._process(data, addr, received_at)

    def _shed(self, data, addr, reason="queue_full"):
        """Answer a request the queue refused with SYSTEM_ERR."""
        shed = self.svc.shed_reply_bytes(data, reason=reason)
        if shed is not None:
            self.sock.sendto(shed, addr)
        with self._counters_lock:
            self.requests_shed += 1

    def _shed_sojourn(self, item):
        """Answer a request the CoDel controller shed after queueing
        (sojourn over target): SYSTEM_ERR, reason ``sojourn``."""
        data, addr, _received_at = item
        self._shed(data, addr, reason="sojourn")

    def handle_once(self, timeout=None):
        """Receive and handle (or enqueue) one datagram; returns True
        if one was received."""
        if timeout is not None:
            self.sock.settimeout(timeout)
        try:
            data, addr = self.sock.recvfrom(self.bufsize)
        except socket.timeout:
            return False
        received_at = time.monotonic()
        if self._pool is not None:
            if not self._pool.submit((data, addr, received_at)):
                self._shed(data, addr)
            return True
        self._inflight.try_acquire()
        try:
            self._process(data, addr, received_at)
        finally:
            self._inflight.release()
        return True

    @property
    def inflight(self):
        """Requests currently queued or mid-dispatch."""
        if self._pool is not None:
            return self._pool.inflight
        return self._inflight.inflight

    def drain(self, timeout=5.0):
        """Graceful drain: stop taking new work, finish what's queued.

        Puts the registry into drain mode (DRC replays and installed
        health programs keep answering; other requests are shed with
        SYSTEM_ERR) and waits up to ``timeout`` for in-flight requests
        to complete.  The transport keeps running — call :meth:`stop`
        to tear it down.  Returns True once idle.
        """
        self.svc.begin_drain()
        if self._pool is not None:
            return self._pool.wait_idle(timeout)
        return self._inflight.wait_idle(timeout)

    def serve_forever(self):
        while not self._stop.is_set():
            try:
                self.handle_once()
            except OSError:
                if self._stop.is_set():
                    return
                raise

    def start(self):
        """Run the server in a daemon thread; returns (host, port)."""
        self._stop.clear()
        self._thread = threading.Thread(
            target=self.serve_forever, name=f"svcudp:{self.port}", daemon=True
        )
        self._thread.start()
        return self.host, self.port

    def stop(self):
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        if self._pool is not None:
            self._pool.stop()
        if self.journal is not None:
            self.journal.close()
        self.sock.close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()
        return False
