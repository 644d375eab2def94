"""RPC service dispatch — the transport-independent server half.

A :class:`SvcRegistry` maps (program, version, procedure) to handlers
with their XDR filters, and turns a raw call message into a raw reply
message, covering every accept/deny path of RFC 1057 (PROG_UNAVAIL,
PROG_MISMATCH, PROC_UNAVAIL, GARBAGE_ARGS, SYSTEM_ERR, RPC_MISMATCH).

Specialized code enters dispatch through one table of :class:`Route`
entries — residual answers keyed by a call's header signature and
size.  The staged, offline-specialized and online-specialized servers
all produce routes; every dispatch policy (doomed-work drops, the
duplicate-request cache, drain, quota, handler counts, telemetry) runs
once, here, for routed and generic requests alike.

Telemetry (``repro.obs``): when observability is enabled, each
dispatch emits a ``server.dispatch`` span (``tier`` names the route
that answered, or ``generic``) with ``server.drc_lookup`` /
``server.decode_args`` / ``server.handler`` / ``server.encode_reply``
children, and every outcome increments the
``rpc.server.replies{outcome=...}`` counter.  Observing never changes
which code runs.
"""

import logging
import struct
import time
from dataclasses import dataclass

from repro import obs as _obs
from repro.errors import RpcProtocolError, XdrError
from repro.rpc.auth import NULL_AUTH
from repro.rpc.drc import DuplicateRequestCache
from repro.rpc.durable import attach_journal
from repro.rpc.message import (
    AcceptStat,
    RejectStat,
    accepted_reply_tail,
    decode_call_header,
    encode_accepted_reply,
    encode_denied_reply,
)
from repro.rpc.overload import remaining_from_cred
from repro.rpc.resilience import (
    HEALTH_PROG,
    HEALTH_PROC_STATUS,
    HEALTH_VERS,
    STATUS_DRAINING,
    STATUS_SERVING,
    CallerQuota,
)
from repro.xdr import XdrMemStream, XdrOp, xdr_u_long

logger = logging.getLogger(__name__)

#: procedure 0 of every program/version is the NULL ping.
NULLPROC = 0

#: the static words of a v2 call header (msg_type CALL=0, rpcvers=2)
#: and the 16 zero bytes of two NULL auth areas: a routable call is
#: recognized with slice compares instead of the micro-layer decode.
_CALL_V2 = struct.pack(">II", 0, 2)
_NULL_AUTHS = bytes(16)
#: bytes in a call header with two NULL auth areas.
_HEADER_SIZE = 10 * 4
#: the accepted-reply header after the xid, for SUCCESS and SYSTEM_ERR.
_SUCCESS_TAIL = accepted_reply_tail(AcceptStat.SUCCESS)
_SYSTEM_ERR_TAIL = accepted_reply_tail(AcceptStat.SYSTEM_ERR)


def _count_reply(outcome):
    _obs.registry.counter("rpc.server.replies", outcome=outcome).inc()


def signature(prog, vers, proc):
    """The 20 header bytes after the xid that identify a null-auth v2
    call to (prog, vers, proc): msg_type, rpcvers, prog, vers, proc."""
    return struct.pack(">5I", 0, 2, prog, vers, proc)


class Route:
    """Residual answers for one procedure's null-auth calls.

    The registry finds a route by the call's header :func:`signature`,
    then a residual by the exact request size: ``replies`` maps a size
    to ``reply(data) -> bytes | None``, and the key None matches any
    size.  A residual must not raise; it returns None to decline, and
    the generic path then answers the same request under the same DRC
    claim.  Routes carry no policy — doomed drops, the DRC, drain,
    quota, handler counts and telemetry run once, in
    :meth:`SvcRegistry.dispatch_bytes`.

    ``replies`` is replaced whole, never mutated, so a concurrent
    dispatcher sees the old or the new map.
    """

    def __init__(self, prog, vers, proc, replies, tier):
        self.prog = prog
        self.vers = vers
        self.proc = proc
        self.replies = dict(replies)
        #: the ``tier`` span field / metric label of routed answers
        self.tier = tier
        #: requests a residual answered
        self.hits = 0

    def miss(self, nbytes):
        """Called for each signature-matching request no residual
        answered (no entry for its size, or the residual declined)."""


@dataclass
class Procedure:
    """One registered procedure."""

    handler: object
    xdr_args: object
    xdr_res: object


class SvcRegistry:
    """Dispatch table for any number of programs/versions."""

    def __init__(self, bufsize=8800, drc=False):
        #: (prog, vers) -> {proc: Procedure}
        self._programs = {}
        self.bufsize = bufsize
        #: header signature -> :class:`Route`; swapped copy-on-write so
        #: concurrent dispatchers see the old or the new table.
        self._routes = None
        #: optional :class:`~repro.specialized.online.DispatchProfiler`
        #: sampling (prog, vers, proc) call counts and message sizes.
        self.profiler = None
        #: duplicate-request reply cache (see :mod:`repro.rpc.drc`);
        #: active only for dispatches that identify their caller.
        self.drc = None
        #: handler executions, routed residuals included (DRC replays
        #: do not count) — lets tests assert "invocations == unique
        #: requests" under retransmission.
        self.handlers_invoked = 0
        #: optional per-caller token-bucket admission (see
        #: :meth:`install_quota`); DRC replays and drain-exempt
        #: programs are never charged.
        self.quota = None
        #: graceful-drain mode: DRC replays and health checks are still
        #: answered; everything else is shed with SYSTEM_ERR.
        self.draining = False
        #: (prog, vers) pairs still served while draining (health).
        self._drain_exempt = set()
        #: requests answered with a shed (overload/drain) reply.
        self.sheds = 0
        #: requests dropped because their propagated deadline budget
        #: (see :mod:`repro.rpc.overload`) had already expired — the
        #: caller is gone, so executing them would be pure waste.
        self.doomed_dropped = 0
        #: non-RpcError exceptions the defensive decode converted into
        #: drops instead of letting them crash dispatch.
        self.decode_defended = 0
        if drc:
            self.enable_drc()

    def enable_drc(self, capacity=256):
        """Turn on the duplicate-request reply cache.

        Retransmitted requests — same (xid, caller, prog, vers, proc)
        — are answered by replaying the recorded reply bytes instead of
        re-executing the handler, upgrading UDP's at-least-once
        semantics toward at-most-once.  Takes effect only for
        dispatches that pass a ``caller`` identity (the transports do).
        """
        self.drc = DuplicateRequestCache(capacity)
        return self

    @property
    def drc_enabled(self):
        return self.drc is not None

    # -- resilience: drain, health, shedding ------------------------------

    def begin_drain(self):
        """Enter graceful-drain mode.

        In-flight handlers finish normally; retransmissions of already
        answered calls keep replaying from the DRC; health-check
        programs (:meth:`install_health`) keep answering; every other
        request is *shed* — answered with a ``SYSTEM_ERR`` reply (not
        silently dropped) so clients fail over promptly instead of
        burning their deadline on retransmits.
        """
        self.draining = True
        if _obs.enabled:
            _obs.registry.counter("rpc.server.drains").inc()
            _obs.registry.gauge("rpc.server.draining").set(1)
        return self

    def end_drain(self):
        """Leave drain mode (a drained server can resume serving)."""
        self.draining = False
        if _obs.enabled:
            _obs.registry.gauge("rpc.server.draining").set(0)
        return self

    def install_health(self, prog=HEALTH_PROG, vers=HEALTH_VERS):
        """Register the health-check program.

        Procedure 0 is the ordinary NULL ping; procedure
        ``HEALTH_PROC_STATUS`` returns the serving status as a u_long
        (``STATUS_SERVING`` / ``STATUS_DRAINING``).  Health stays
        answerable *during* drain so orchestrators can watch the drain
        complete.
        """
        self.register(
            prog, vers, HEALTH_PROC_STATUS,
            lambda _args: (STATUS_DRAINING if self.draining
                           else STATUS_SERVING),
            xdr_args=None, xdr_res=xdr_u_long,
        )
        self._drain_exempt.add((prog, vers))
        return self

    def install_quota(self, rate, burst=None, max_callers=4096,
                      clock=time.time, key=None):
        """Layer per-caller token-bucket admission onto dispatch.

        Each caller (transport peer host) accrues ``rate`` calls/second
        up to a ``burst`` allowance; a caller over budget is answered
        with a shed reply (``SYSTEM_ERR``, reason ``quota``) exactly
        like the overload paths.  DRC replays are never charged — a
        retransmission of an answered call costs the server a cache
        probe, not handler work, and charging it would punish the
        retry behavior the DRC exists to absorb.  Drain-exempt
        programs (health, replication) are exempt here too.

        ``clock=time.time`` by default so buckets refill in wall time;
        tests inject a fake clock.
        """
        self.quota = CallerQuota(rate, burst=burst,
                                 max_callers=max_callers, clock=clock,
                                 key=key)
        return self

    def _over_quota(self, caller, prog, vers):
        """Should this request be quota-shed?  (Charges the bucket.)"""
        return (self.quota is not None and caller is not None
                and (prog, vers) not in self._drain_exempt
                and not self.quota.admit(caller))

    def shed_reply_bytes(self, data, reason="queue_full"):
        """A ``SYSTEM_ERR`` reply for a request refused before dispatch
        (bounded queue full), or None when ``data`` is not a
        recognizable v2 call.

        Shed replies are *never* recorded in the DRC — a retransmission
        after load subsides must reach the handler.
        """
        if len(data) < _HEADER_SIZE or bytes(data[4:12]) != _CALL_V2:
            return None
        self.sheds += 1
        if _obs.enabled:
            _obs.registry.counter("rpc.server.sheds", reason=reason).inc()
            _count_reply("shed")
        return bytes(data[0:4]) + _SYSTEM_ERR_TAIL

    def _shed(self, xid, reason, span):
        """Answer one dispatched request with a shed reply (SYSTEM_ERR);
        not recorded in the DRC."""
        self.sheds += 1
        if _obs.enabled:
            _obs.registry.counter("rpc.server.sheds", reason=reason).inc()
        self._verdict(span, "shed")
        return xid.to_bytes(4, "big") + _SYSTEM_ERR_TAIL

    def register(self, prog, vers, proc, handler, xdr_args=None,
                 xdr_res=None):
        """Register ``handler(args) -> result`` for one procedure."""
        table = self._programs.setdefault((prog, vers), {})
        table[proc] = Procedure(handler, xdr_args, xdr_res)

    # -- routes -------------------------------------------------------------

    def install_route(self, route):
        """Atomically publish ``route`` (replacing any route for the
        same procedure); returns it."""
        routes = dict(self._routes or {})
        routes[signature(route.prog, route.vers, route.proc)] = route
        self._routes = routes
        return route

    def remove_route(self, prog, vers, proc):
        """Hand (prog, vers, proc) back to the generic dispatcher;
        returns the removed route, or None."""
        routes = dict(self._routes or {})
        removed = routes.pop(signature(prog, vers, proc), None)
        self._routes = routes or None
        return removed

    def route_for(self, prog, vers, proc):
        """The installed :class:`Route` for (prog, vers, proc), or None."""
        return (self._routes or {}).get(signature(prog, vers, proc))

    def stage_route(self, prog, vers, proc, unpack_args=None,
                    pack_res=None):
        """Stage one registered procedure's decode, handler and encode
        into a residual :class:`Route` (tier ``staged``) and install it.

        The server-side dual of ``RpcClient.install_codec``: for a
        null-auth call the arguments are unmarshaled straight off the
        datagram, the handler runs, and the reply is assembled as
        ``xid + constant accepted-SUCCESS header + results`` — no
        header decode, no reply stream.  This is the dispatch
        specialization of the paper applied to the live stack.

        ``unpack_args(data, offset) -> args`` and
        ``pack_res(result) -> bytes`` are the residual body marshalers
        (e.g. one ``struct`` call each); either may be omitted to fall
        back to the procedure's registered XDR filters run over a
        stream.  Undecodable arguments decline (the generic path
        answers GARBAGE_ARGS); a handler failure answers SYSTEM_ERR.
        """
        procedure = self._programs[(prog, vers)][proc]
        handler = procedure.handler
        if unpack_args is None:
            xdr_args = procedure.xdr_args

            def unpack_args(data, offset):
                if xdr_args is None:
                    return None
                return xdr_args(XdrMemStream(data, XdrOp.DECODE,
                                             offset=offset), None)
        if pack_res is None:
            xdr_res = procedure.xdr_res
            bufsize = self.bufsize

            def pack_res(result):
                stream = XdrMemStream(bytearray(bufsize), XdrOp.ENCODE)
                if xdr_res is not None:
                    xdr_res(stream, result)
                return stream.data()

        def reply(data):
            try:
                args = unpack_args(data, _HEADER_SIZE)
            # repro: disable=overbroad-except -- hostile bytes may raise anything; the generic path answers GARBAGE_ARGS
            except Exception:
                return None
            xid_bytes = bytes(data[0:4])
            try:
                return xid_bytes + _SUCCESS_TAIL + pack_res(handler(args))
            # repro: disable=overbroad-except -- any servant crash must become a SYSTEM_ERR reply, not kill dispatch
            except Exception:
                logger.exception(
                    "staged route for prog=%d proc=%d failed", prog, proc
                )
                return xid_bytes + _SYSTEM_ERR_TAIL

        return self.install_route(
            Route(prog, vers, proc, {None: reply}, tier="staged"))

    def install_profiler(self, profiler):
        """Tap dispatch with a traffic profiler (``profiler.record(data,
        reply)`` after every request no route answered).  Installed
        by :meth:`repro.specialized.online.OnlineSpecializer.attach_server`.
        """
        self.profiler = profiler
        return self

    def versions_of(self, prog):
        return sorted(vers for p, vers in self._programs if p == prog)

    # -- the dispatcher ---------------------------------------------------

    def dispatch_bytes(self, data, caller=None, received_at=None):
        """Process one call message; returns the reply message bytes, or
        None when the request is dropped (unparseable garbage, like the
        C svc code; a duplicate of a request still executing; doomed
        work).

        ``data`` may be ``bytes``, ``bytearray``, or a ``memoryview``
        over the transport's receive buffer — it is decoded in place,
        never copied.

        ``caller`` is the transport-level peer identity (UDP source
        address, TCP peer name); when given and the DRC is enabled,
        retransmitted requests are answered from the reply cache
        without re-invoking the handler.

        ``received_at`` is the ``time.monotonic()`` instant the
        transport *received* the message (before any queueing); with
        deadline propagation it anchors the doomed-work check, so a
        request whose budget expired while it sat in the worker queue
        is dropped instead of executed.
        """
        if not _obs.enabled:
            return self._dispatch(data, caller, received_at, None)
        _obs.registry.counter("rpc.server.requests").inc()
        started = time.monotonic()
        span = _obs.span("server.dispatch", side="server", bytes=len(data),
                         caller=str(caller) if caller is not None else None)
        try:
            reply = self._dispatch(data, caller, received_at, span)
        except BaseException as exc:
            if span is not None:
                span.end(outcome="error", error=type(exc).__name__)
            raise
        finally:
            _obs.registry.histogram("rpc.server.dispatch_latency_s").observe(
                time.monotonic() - started
            )
        if reply is None:
            _count_reply("dropped")
            if span is not None:
                span.end(outcome="dropped")
        elif span is not None:
            span.end(reply_bytes=len(reply))
        return reply

    def _dispatch(self, data, caller, received_at, span):
        route = None
        routes = self._routes
        if (routes is not None and len(data) >= _HEADER_SIZE
                and data[24:40] == _NULL_AUTHS):
            route = routes.get(bytes(data[4:24]))
        if route is not None:
            # A null-auth call of a routed procedure: the header is
            # known from the signature, and it carries no deadline.
            xid = int.from_bytes(data[0:4], "big")
            prog, vers, proc = route.prog, route.vers, route.proc
            stream = None
            if span is not None:
                span.add(tier=route.tier, xid=xid, prog=prog, vers=vers,
                         proc=proc)
        else:
            if span is not None:
                span.add(tier="generic")
            stream = XdrMemStream(data, XdrOp.DECODE)
            try:
                header = decode_call_header(stream)
            # repro: disable=overbroad-except -- defensive decode: arbitrary bytes must never crash dispatch
            except Exception as exc:
                return self._undecodable(data, exc, span)
            xid, prog, vers, proc = (header.xid, header.prog, header.vers,
                                     header.proc)
            if span is not None:
                span.add(xid=xid, prog=prog, vers=vers, proc=proc)
            if self._doomed(header.cred, received_at, span):
                return None
        drc = self.drc
        drc_key = None
        if drc is not None and caller is not None:
            # the DuplicateRequestCache.key layout, built inline
            drc_key = (xid, caller, prog, vers, proc)
            drc_span = (span.child("server.drc_lookup")
                        if span is not None else None)
            verdict = drc.begin(drc_key)
            if drc_span is not None:
                drc_span.end(hit=verdict is not True and verdict is not False)
            if verdict is False:
                # The original is executing right now: drop — the
                # client's next retransmit replays the cached reply.
                return None
            if verdict is not True:
                self._verdict(span, "drc_replay")
                return verdict
        try:
            reply, executed = self._answer(data, stream, route, xid, prog,
                                           vers, proc, caller, span)
        except BaseException:
            # Only non-Exception escapes reach here; release the claim
            # so a retransmission is not blocked forever.
            if drc_key is not None:
                drc.abandon(drc_key)
            raise
        if drc_key is not None:
            if executed:
                drc.put(drc_key, reply)
            else:
                # Sheds and protocol errors are never cached: a retry
                # after load subsides must reach the handler.
                drc.abandon(drc_key)
        if self.profiler is not None and executed is not route:
            self.profiler.record(data, reply)
        return reply

    def _undecodable(self, data, exc, span):
        """The reply to a call whose header does not decode: RPC_MISMATCH
        when only the version is wrong, else None (dropped)."""
        if isinstance(exc, RpcProtocolError):
            if "bad RPC version" not in str(exc):
                logger.debug("dropping undecodable call: %s", exc)
                return None
            # We can still answer an RPC_MISMATCH if the xid parsed.
            try:
                xid = int.from_bytes(data[0:4], "big")
            except (TypeError, ValueError):
                return None
            out = XdrMemStream(bytearray(64), XdrOp.ENCODE)
            encode_denied_reply(out, xid, RejectStat.RPC_MISMATCH, (2, 2))
            if _obs.enabled:
                _count_reply("rpc_mismatch")
            if span is not None:
                span.add(xid=xid, outcome="rpc_mismatch")
            return out.data()
        if isinstance(exc, XdrError):
            logger.debug("dropping truncated call: %s", exc)
            return None
        # Anything the grammar-level decoders did not already map to a
        # typed error (struct.error, ValueError, IndexError, ...) is
        # counted and dropped like undecodable garbage.
        self.decode_defended += 1
        if _obs.enabled:
            _obs.registry.counter("rpc.server.decode_defended").inc()
        logger.debug("defended undecodable call: %r", exc)
        return None

    def _doomed(self, cred, received_at, span):
        """Deadline propagation: the cred carries the budget that
        remained when the client *built* this message.  Anchored at the
        transport's receive instant, an expired budget means the caller
        has already timed out — doomed work is dropped (not answered:
        there is nobody left to read the reply), before the DRC spends
        a probe on it."""
        remaining = remaining_from_cred(cred)
        if remaining is None:
            return False
        now = time.monotonic()
        arrived = received_at if received_at is not None else now
        if arrived + remaining > now:
            return False
        self.doomed_dropped += 1
        if _obs.enabled:
            _obs.registry.counter("rpc.deadline.doomed").inc()
        if span is not None:
            span.add(outcome="doomed")
        return True

    def _verdict(self, span, outcome):
        """Record a dispatch outcome on the span + outcome counter."""
        if _obs.enabled:
            _count_reply(outcome)
        if span is not None:
            span.add(outcome=outcome)

    def _answer(self, data, stream, route, xid, prog, vers, proc, caller,
                span):
        """Drain, quota, then the route's residual or the generic
        procedure.  Returns ``(reply, executed)``: ``executed`` is
        false for replies the DRC must not record, and is the route
        itself when its residual answered."""
        if self.draining and (prog, vers) not in self._drain_exempt:
            # Draining: replays and health (exempt) still answer; new
            # work is refused with a typed error reply.
            return self._shed(xid, "draining", span), False
        if self._over_quota(caller, prog, vers):
            # Over the caller's token budget: answered (never cached),
            # so a retry after the bucket refills reaches the handler.
            return self._shed(xid, "quota", span), False
        if route is not None:
            replies = route.replies
            residual = replies.get(len(data))
            if residual is None:
                residual = replies.get(None)
            if residual is not None:
                handler_span = (span.child("server.handler")
                                if span is not None else None)
                reply = residual(data)
                if handler_span is not None:
                    handler_span.end(residual=reply is not None)
                if reply is not None:
                    self.handlers_invoked += 1
                    route.hits += 1
                    if _obs.enabled:
                        _obs.registry.counter("rpc.server.route_hits",
                                              tier=route.tier).inc()
                        self._verdict(span, "success")
                    return reply, route
            route.miss(len(data))
            if _obs.enabled:
                _obs.registry.counter("rpc.server.route_misses",
                                      tier=route.tier).inc()
            if span is not None:
                span.add(tier="generic")
            stream = XdrMemStream(data, XdrOp.DECODE, offset=_HEADER_SIZE)
        out = XdrMemStream(bytearray(self.bufsize), XdrOp.ENCODE)
        table = self._programs.get((prog, vers))
        if table is None:
            versions = self.versions_of(prog)
            if versions:
                encode_accepted_reply(
                    out, xid, AcceptStat.PROG_MISMATCH, NULL_AUTH,
                    mismatch=(versions[0], versions[-1]),
                )
                self._verdict(span, "prog_mismatch")
            else:
                encode_accepted_reply(out, xid, AcceptStat.PROG_UNAVAIL,
                                      NULL_AUTH)
                self._verdict(span, "prog_unavail")
            return out.data(), False
        procedure = table.get(proc)
        if procedure is None:
            if proc == NULLPROC:
                encode_accepted_reply(out, xid, AcceptStat.SUCCESS,
                                      NULL_AUTH)
                self._verdict(span, "success")
            else:
                encode_accepted_reply(out, xid, AcceptStat.PROC_UNAVAIL,
                                      NULL_AUTH)
                self._verdict(span, "proc_unavail")
            return out.data(), False
        decode_span = (span.child("server.decode_args")
                       if span is not None else None)
        try:
            args = (procedure.xdr_args(stream, None)
                    if procedure.xdr_args is not None else None)
        # repro: disable=overbroad-except -- fuzzed bytes raise beyond XdrError; all map to GARBAGE_ARGS
        except Exception as exc:
            # XdrError is the designed signal, but fuzzed bytes can
            # make body filters raise UnicodeDecodeError, ValueError
            # (enum discriminants), struct.error, ... — all of them are
            # GARBAGE_ARGS per the message grammar, never a crash.
            if not isinstance(exc, XdrError):
                self.decode_defended += 1
                if _obs.enabled:
                    _obs.registry.counter(
                        "rpc.server.decode_defended").inc()
            if decode_span is not None:
                decode_span.end(outcome="garbage_args")
            logger.debug("garbage args: %r", exc)
            encode_accepted_reply(out, xid, AcceptStat.GARBAGE_ARGS,
                                  NULL_AUTH)
            self._verdict(span, "garbage_args")
            return out.data(), False
        if decode_span is not None:
            decode_span.end()
        return self._run_handler(procedure, args, xid, prog, proc, out,
                                 span), True

    def _run_handler(self, procedure, args, xid, prog, proc, out, span):
        handler_span = (span.child("server.handler")
                        if span is not None else None)
        try:
            self.handlers_invoked += 1
            result = procedure.handler(args)
        # repro: disable=overbroad-except -- any servant crash must become a SYSTEM_ERR reply, not kill dispatch
        except Exception:
            if handler_span is not None:
                handler_span.end(outcome="error")
            logger.exception(
                "handler for prog=%d proc=%d failed", prog, proc
            )
            if _obs.enabled:
                _obs.registry.counter("rpc.server.handler_errors").inc()
            self._verdict(span, "system_err")
            return xid.to_bytes(4, "big") + _SYSTEM_ERR_TAIL
        if handler_span is not None:
            handler_span.end()
        encode_span = (span.child("server.encode_reply")
                       if span is not None else None)
        encode_accepted_reply(out, xid, AcceptStat.SUCCESS, NULL_AUTH)
        outcome = "success"
        try:
            if procedure.xdr_res is not None:
                procedure.xdr_res(out, result)
            reply = out.data()
        # repro: disable=overbroad-except -- unmarshalable handler result must become SYSTEM_ERR, not kill the transport
        except Exception:
            # Result does not fit the reply buffer (XdrError) or the
            # handler returned something the filter cannot marshal:
            # answer SYSTEM_ERR rather than killing the transport.
            logger.exception(
                "reply encoding failed for prog=%d proc=%d", prog, proc
            )
            reply = xid.to_bytes(4, "big") + _SYSTEM_ERR_TAIL
            outcome = "system_err"
        if encode_span is not None:
            encode_span.end(bytes=len(reply))
        self._verdict(span, outcome)
        return reply


def serve_registry(served, drc=True, drc_dir=None, drc_fsync=None,
                   online_spec=None):
    """The set-up every server transport shares; returns ``(registry,
    journal)``.

    ``served`` is the object the transport dispatches through: a
    :class:`SvcRegistry`, or a specialization whose residual is a
    route in one (its ``registry``).  Policy lives in that registry,
    so this is where it is configured: ``drc=True`` turns its
    duplicate-request cache on, ``drc_dir`` (or ``REPRO_DRC_DIR``)
    attaches a journal that recovers the predecessor's replies and
    records this incarnation's (see :mod:`repro.rpc.durable`), and
    ``online_spec`` — an :class:`~repro.specialized.online
    .OnlineSpecializer` whose lifetime belongs to the caller — starts
    profiling it.
    """
    registry = getattr(served, "registry", served)
    if drc and registry.drc is None:
        registry.enable_drc()
    journal = attach_journal(registry, drc_dir=drc_dir, fsync=drc_fsync)
    if online_spec is not None:
        online_spec.attach_server(registry)
        online_spec.ensure_started()
    return registry, journal


def rpc_service(registry, prog, vers):
    """Decorator helper::

        svc = SvcRegistry()
        service = rpc_service(svc, PROG, VERS)

        @service(1, xdr_args=..., xdr_res=...)
        def rmin(args):
            ...
    """

    def proc_decorator(proc, xdr_args=None, xdr_res=None):
        def wrap(handler):
            registry.register(prog, vers, proc, handler, xdr_args, xdr_res)
            return handler

        return wrap

    return proc_decorator
