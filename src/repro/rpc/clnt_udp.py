"""UDP RPC client (``clntudp_call`` of the paper's Figure 1).

Implements the Sun retransmission discipline, upgraded from the
classic fixed-interval retry to *adaptive* retransmission: send the
datagram, wait one backoff interval for a matching reply, retransmit
on silence with the interval growing exponentially (jittered, capped
at ``max_wait``), and give up when the total ``timeout`` budget is
exhausted.  Per-call statistics (attempts, the realized backoff
schedule, stale and garbage datagrams seen) land in
:attr:`UdpClient.last_call_stats`.

Two robustness guarantees the naive loop lacks:

* the per-try receive window is clamped to the remaining budget, and
  the *final* try always gets one full backoff interval to listen —
  the client never fires back-to-back retransmits in a sliver of
  budget near the deadline;
* undecodable datagrams (corruption, truncation) are counted and
  discarded like stale xids instead of failing the call — the
  retransmission discipline recovers the reply from the server (whose
  duplicate-request cache replays it without re-executing the
  handler).

Telemetry (``repro.obs``): when observability is enabled, each call
emits a ``client.call`` span with ``client.encode`` / ``client.send``
/ ``client.wait`` / ``client.decode`` children, and the per-call
:class:`CallStats` fold into the cumulative client counters and the
metrics registry at exactly one point (:meth:`UdpClient._finish_call`)
— during the call only the per-call stats are touched, so a
retransmitted attempt can never be double-counted against both the
in-flight lifetime counters and the finished call's numbers.
"""

import random
import select
import socket
import threading
import time

from repro import obs as _obs
from repro.errors import (
    RpcDeadlineExceeded,
    RpcProtocolError,
    RpcRetryBudgetExhausted,
    RpcTimeoutError,
    XdrError,
)
from repro.rpc.client import RpcClient, UDPMSGSIZE
from repro.rpc.faults import FaultySocket
from repro.rpc.overload import stamp_deadline
from repro.rpc.resilience import Deadline


class CallStats:
    """Per-call retransmission telemetry."""

    __slots__ = ("proc", "attempts", "retransmissions", "backoff_schedule",
                 "stale_replies", "garbage_datagrams", "elapsed_s")

    def __init__(self, proc):
        self.proc = proc
        #: datagrams sent for this call (1 == no retransmission)
        self.attempts = 0
        self.retransmissions = 0
        #: the receive window (seconds) granted to each attempt
        self.backoff_schedule = []
        #: well-formed replies bearing another call's xid
        self.stale_replies = 0
        #: datagrams that failed to decode at all (corruption, noise)
        self.garbage_datagrams = 0
        self.elapsed_s = 0.0

    def as_dict(self):
        return {
            "proc": self.proc,
            "attempts": self.attempts,
            "retransmissions": self.retransmissions,
            "backoff_schedule": list(self.backoff_schedule),
            "stale_replies": self.stale_replies,
            "garbage_datagrams": self.garbage_datagrams,
            "elapsed_s": self.elapsed_s,
        }

    def __repr__(self):
        return (
            f"CallStats(proc={self.proc}, attempts={self.attempts},"
            f" stale={self.stale_replies}, garbage={self.garbage_datagrams})"
        )


class UdpClient(RpcClient):
    """An RPC client over UDP.

    ``wait`` is the initial receive window; each silent retry grows it
    by ``backoff`` (default double), up to ``max_wait``, with ±
    ``jitter`` relative randomization so a fleet of clients does not
    retransmit in lockstep.  ``retrans_seed`` makes the jitter
    deterministic (tests); ``jitter=0`` disables it.  ``fault_plan``
    wraps the socket in a :class:`~repro.rpc.faults.FaultySocket`
    faulting outgoing requests.

    Cumulative telemetry: :attr:`calls_completed`,
    :attr:`retransmissions`, :attr:`stale_replies`,
    :attr:`garbage_datagrams` (also :meth:`stats_summary`), all updated
    once per finished call from that call's :class:`CallStats`.

    **Single-reader ownership.** The receive loop assumes it is the
    socket's only reader: concurrent :meth:`call` invocations are
    serialized on an internal lock, so two threads sharing one client
    take turns rather than racing ``select()`` for each other's
    datagrams (the pre-serialization behavior: both threads woke, one
    consumed the datagram, the other ate ``BlockingIOError`` and
    busy-looped).  Callers that need genuine concurrency over one
    socket should use :class:`~repro.rpc.mux.MuxUdpClient`, whose
    demux loop is the sole reader for many in-flight xids.
    """

    def __init__(
        self,
        host,
        port,
        prog,
        vers,
        timeout=5.0,
        wait=0.5,
        max_wait=None,
        backoff=2.0,
        jitter=0.1,
        retrans_seed=None,
        bufsize=UDPMSGSIZE,
        fault_plan=None,
        retry_budget=None,
        **kwargs,
    ):
        super().__init__(prog, vers, bufsize=bufsize, **kwargs)
        #: optional :class:`~repro.rpc.overload.RetryBudget` gating
        #: retransmissions: calls deposit, retransmits withdraw, and a
        #: dry bucket fails the call with RpcRetryBudgetExhausted
        #: instead of feeding a retry storm.
        self.retry_budget = retry_budget
        self.address = (host, port)
        self.timeout = timeout
        self.wait = wait
        self.max_wait = max_wait if max_wait is not None else max(
            wait, timeout / 2.0
        )
        self.backoff = backoff
        self.jitter = jitter
        self._jitter_rng = random.Random(retrans_seed)
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.setblocking(False)
        #: serializes calls: the receive loop owns the socket while a
        #: call is in flight (single-reader ownership; see class doc).
        self._serial_lock = threading.Lock()
        if fault_plan is not None:
            self.sock = FaultySocket(self.sock, fault_plan)
        #: calls finished (returned, timed out, or raised)
        self.calls_completed = 0
        #: retransmissions performed over the client's lifetime
        self.retransmissions = 0
        #: stale replies discarded over the client's lifetime
        self.stale_replies = 0
        #: undecodable datagrams discarded over the client's lifetime
        self.garbage_datagrams = 0
        #: :class:`CallStats` of the most recent call
        self.last_call_stats = None

    def stats_summary(self):
        """Cumulative client statistics (the registry mirrors these)."""
        return {
            "calls_completed": self.calls_completed,
            "retransmissions": self.retransmissions,
            "stale_replies": self.stale_replies,
            "garbage_datagrams": self.garbage_datagrams,
        }

    def call(self, proc, args=None, xdr_args=None, xdr_res=None,
             deadline=None):
        """One RPC.  ``deadline`` (a
        :class:`~repro.rpc.resilience.Deadline` or a seconds budget)
        caps the whole call — every retransmission window draws from
        it and exhaustion raises
        :class:`~repro.errors.RpcDeadlineExceeded` — on top of the
        client's own ``timeout``."""
        deadline = Deadline.coerce(deadline)
        xid = self.next_xid()
        span = None
        if _obs.enabled:
            tier = "specialized" if proc in self._codecs else "generic"
            _obs.registry.counter("rpc.client.calls", transport="udp",
                                  tier=tier).inc()
            span = _obs.span("client.call", side="client", transport="udp",
                             xid=xid, prog=self.prog, vers=self.vers,
                             proc=proc, tier=tier)
        try:
            encode_span = (span.child("client.encode")
                           if span is not None else None)
            try:
                if (self.propagate_deadline and deadline is not None
                        and proc not in self._codecs):
                    # Deadline propagation: a mutable request carrying
                    # the remaining budget in the deadline cred
                    # (re-stamped on every retransmission).
                    request = self.build_call_deadline(
                        xid, proc, args, xdr_args, deadline
                    )
                else:
                    request = self.build_call(xid, proc, args, xdr_args)
            except BaseException as exc:
                if encode_span is not None:
                    encode_span.end(outcome="error",
                                    error=type(exc).__name__)
                raise
            if encode_span is not None:
                encode_span.end(bytes=len(request))
            # Single-reader ownership: one call owns the socket at a
            # time; concurrent callers queue here instead of racing
            # select() for each other's datagrams.
            with self._serial_lock:
                value = self._call_loop(request, xid, proc, xdr_res, span,
                                        deadline)
        except BaseException as exc:
            if span is not None:
                span.end(outcome="error", error=type(exc).__name__)
            raise
        if span is not None:
            span.end(outcome="ok")
        return value

    def _next_window(self, window):
        """The next backoff interval: grow, jitter, cap."""
        grown = window * self.backoff
        if self.jitter:
            grown *= 1.0 + self.jitter * (
                2.0 * self._jitter_rng.random() - 1.0
            )
        return min(grown, self.max_wait)

    def _finish_call(self, stats, outcome):
        """The single aggregation point for per-call telemetry.

        Lifetime counters and the metrics registry are updated *here
        only*, from the finished :class:`CallStats` — never inline
        during the retransmission loop.  That guarantees one call
        contributes each number exactly once however it ends (reply,
        timeout, server verdict, fault), fixing the double-count risk
        of bumping live counters per attempt *and* folding the
        per-call stats in afterwards.
        """
        self.calls_completed += 1
        self.retransmissions += stats.retransmissions
        self.stale_replies += stats.stale_replies
        self.garbage_datagrams += stats.garbage_datagrams
        if not _obs.enabled:
            return
        registry = _obs.registry
        registry.counter("rpc.client.attempts",
                         transport="udp").inc(stats.attempts)
        if stats.retransmissions:
            registry.counter("rpc.client.retransmissions",
                             transport="udp").inc(stats.retransmissions)
        if stats.stale_replies:
            registry.counter("rpc.client.stale_replies",
                             transport="udp").inc(stats.stale_replies)
        if stats.garbage_datagrams:
            registry.counter("rpc.client.garbage_datagrams",
                             transport="udp").inc(stats.garbage_datagrams)
        if outcome == "timeout":
            registry.counter("rpc.client.timeouts", transport="udp").inc()
        elif outcome == "deadline":
            registry.counter("rpc.client.deadline_exceeded",
                             transport="udp").inc()
        elif outcome != "ok":
            registry.counter("rpc.client.errors", transport="udp",
                             error=outcome).inc()
        registry.histogram("rpc.client.call_latency_s",
                           transport="udp").observe(stats.elapsed_s)

    def _call_loop(self, request, xid, proc, xdr_res, span=None,
                   deadline=None):
        stats = CallStats(proc)
        self.last_call_stats = stats
        started = time.monotonic()
        budget_end = started + self.timeout
        # The per-call deadline (when given) caps the whole loop: no
        # send and no receive window may extend past it.
        hard_end = budget_end
        if deadline is not None:
            hard_end = min(budget_end, deadline.expires_at)
        window = min(self.wait, self.max_wait)
        outcome = "timeout"
        budget = self.retry_budget
        if budget is not None:
            budget.note_call()
        try:
            while True:
                now = time.monotonic()
                if now >= hard_end:
                    if deadline is not None and deadline.expired:
                        outcome = "deadline"
                    break
                if stats.attempts:
                    if budget is not None and not budget.try_retry():
                        raise RpcRetryBudgetExhausted(
                            f"retry budget exhausted for RPC call"
                            f" (prog={self.prog}, proc={proc}) after"
                            f" {stats.attempts} attempt(s)"
                        )
                    stats.retransmissions += 1
                    if deadline is not None:
                        # Honest budget on the wire: the retransmission
                        # carries what *remains*, not the build-time
                        # value (no-op for non-propagated requests).
                        stamp_deadline(request, deadline)
                send_span = (span.child("client.send",
                                        attempt=stats.attempts + 1,
                                        bytes=len(request))
                             if span is not None else None)
                self.sock.sendto(request, self.address)
                if send_span is not None:
                    send_span.end()
                stats.attempts += 1
                # Clamp the try to the remaining budget — but when the
                # budget no longer covers a full window, make this the
                # *final* try and still grant it the whole window: one
                # guaranteed full receive wait instead of a sliver
                # followed by a back-to-back retransmit.  A deadline is
                # harder than the timeout budget: the grant never
                # stretches past it.
                final = (hard_end - now) <= window
                grant = window
                if deadline is not None:
                    grant = min(grant, max(deadline.expires_at - now, 0.0))
                stats.backoff_schedule.append(grant)
                wait_span = (span.child("client.wait",
                                        attempt=stats.attempts,
                                        window_s=round(grant, 6))
                             if span is not None else None)
                try:
                    reply = self._await_reply(xid, proc, xdr_res,
                                              now + grant, stats, span)
                except BaseException as exc:
                    if wait_span is not None:
                        wait_span.end(outcome="error",
                                      error=type(exc).__name__)
                    raise
                if wait_span is not None:
                    wait_span.end(
                        outcome="reply" if reply is not None else "silent"
                    )
                if reply is not None:
                    outcome = "ok"
                    return reply[0]
                if final:
                    if deadline is not None and deadline.expired:
                        outcome = "deadline"
                    break
                window = self._next_window(window)
        except BaseException as exc:
            outcome = type(exc).__name__
            raise
        finally:
            stats.elapsed_s = time.monotonic() - started
            self._finish_call(stats, outcome)
        if outcome == "deadline":
            raise RpcDeadlineExceeded(
                f"RPC call (prog={self.prog}, proc={proc}) exceeded its"
                f" deadline of {deadline.budget_s}s"
                f" ({stats.attempts} attempts,"
                f" {stats.retransmissions} retransmissions)"
            )
        raise RpcTimeoutError(
            f"RPC call (prog={self.prog}, proc={proc}) timed out"
            f" after {self.timeout}s"
            f" ({stats.attempts} attempts,"
            f" {stats.retransmissions} retransmissions)"
        )

    def _await_reply(self, xid, proc, xdr_res, try_deadline, stats,
                     span=None):
        """Wait for a matching reply until ``try_deadline``; None means
        retransmit."""
        while True:
            remaining = try_deadline - time.monotonic()
            if remaining <= 0:
                return None
            readable, _, _ = select.select([self.sock], [], [], remaining)
            if not readable:
                return None
            try:
                data, _addr = self.sock.recvfrom(self.bufsize)
                matched, value = self._parse_traced(data, xid, proc,
                                                    xdr_res, stats, span)
            except (BlockingIOError, InterruptedError):
                # Genuinely spurious readiness (e.g. the kernel dropped
                # a datagram with a bad checksum after select returned)
                # or an interrupted read.  Calls are serialized on
                # _serial_lock, so this is *not* another thread winning
                # the race — that failure mode is retired; concurrency
                # over one socket belongs to MuxUdpClient's demux loop.
                continue
            if matched:
                return (value,)
            # Stale xid or garbage: keep listening within the window.

    def _parse_traced(self, data, xid, proc, xdr_res, stats, span):
        """:meth:`_parse_tolerant` wrapped in a ``client.decode`` span."""
        if span is None:
            return self._parse_tolerant(data, xid, proc, xdr_res, stats)
        decode_span = span.child("client.decode", bytes=len(data))
        try:
            matched, value = self._parse_tolerant(data, xid, proc, xdr_res,
                                                  stats)
        except BaseException as exc:
            decode_span.end(outcome="error", error=type(exc).__name__)
            raise
        decode_span.end(matched=matched)
        return matched, value

    def _parse_tolerant(self, data, xid, proc, xdr_res, stats):
        """``parse_reply`` that treats undecodable datagrams as noise.

        A corrupted or truncated datagram fails header or body decode
        with :class:`XdrError`/:class:`RpcProtocolError` *before* the
        xid is validated as ours — discard it and let retransmission
        recover.  Genuine server verdicts (denials, non-SUCCESS
        accepts) raise *after* the xid matched and propagate.

        Only the per-call ``stats`` are updated here; the lifetime
        counters fold in once per call via :meth:`_finish_call`.
        """
        try:
            matched, value = self.parse_reply(data, xid, proc, xdr_res)
        except (XdrError, RpcProtocolError):
            stats.garbage_datagrams += 1
            return False, None
        if not matched:
            stats.stale_replies += 1
        return matched, value

    def close(self):
        self.sock.close()
