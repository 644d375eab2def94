"""Duplicate-request reply cache tests: the LRU itself and its wiring
into the dispatcher (generic, staged-route, and specialized paths)."""

import socket
import time

import pytest

from repro.rpc import (
    DuplicateRequestCache,
    MuxUdpServer,
    SvcRegistry,
    UdpServer,
)
from repro.rpc.client import RpcClient
from repro.rpc.message import AcceptStat
from repro.xdr import xdr_array, xdr_int, xdr_u_long

PROG, VERS = 0x20004444, 1
CALLER = ("10.0.0.1", 40000)
OTHER_CALLER = ("10.0.0.2", 40000)


def xdr_iarr(xdrs, value):
    return xdr_array(xdrs, value, 512, xdr_int)


def make_registry(drc=True):
    registry = SvcRegistry(drc=drc)
    calls = []
    registry.register(
        PROG, VERS, 1,
        lambda a: calls.append(a) or sum(a), xdr_iarr, xdr_int,
    )
    registry.calls_log = calls
    return registry


def accept_stat(reply):
    """The accept_stat word of an accepted reply (null verifier)."""
    return int.from_bytes(reply[20:24], "big")


def build(xid, values, proc=1):
    return RpcClient(PROG, VERS).build_call(xid, proc, values, xdr_iarr)


class TestCacheUnit:
    def test_put_get_roundtrip(self):
        cache = DuplicateRequestCache(capacity=4)
        key = cache.key(7, CALLER, PROG, VERS, 1)
        assert cache.get(key) is None
        cache.put(key, b"reply-bytes")
        assert cache.get(key) == b"reply-bytes"
        assert cache.summary() == {
            "capacity": 4, "entries": 1, "hits": 1, "misses": 1,
            "stores": 1, "evictions": 0, "in_progress_drops": 0,
            "absorbed": 0,
        }

    def test_lru_eviction_order(self):
        cache = DuplicateRequestCache(capacity=2)
        keys = [cache.key(x, CALLER, PROG, VERS, 1) for x in range(3)]
        cache.put(keys[0], b"a")
        cache.put(keys[1], b"b")
        assert cache.get(keys[0]) == b"a"  # refresh 0 -> 1 is oldest
        cache.put(keys[2], b"c")
        assert cache.get(keys[1]) is None  # evicted
        assert cache.get(keys[0]) == b"a"
        assert cache.get(keys[2]) == b"c"
        assert cache.evictions == 1

    def test_distinct_key_components(self):
        cache = DuplicateRequestCache()
        base = cache.key(1, CALLER, PROG, VERS, 1)
        cache.put(base, b"x")
        assert cache.get(cache.key(2, CALLER, PROG, VERS, 1)) is None
        assert cache.get(cache.key(1, OTHER_CALLER, PROG, VERS, 1)) is None
        assert cache.get(cache.key(1, CALLER, PROG + 1, VERS, 1)) is None
        assert cache.get(cache.key(1, CALLER, PROG, VERS + 1, 1)) is None
        assert cache.get(cache.key(1, CALLER, PROG, VERS, 2)) is None

    def test_put_copies_mutable_reply(self):
        cache = DuplicateRequestCache()
        key = cache.key(1, CALLER, PROG, VERS, 1)
        buffer = bytearray(b"pooled-reply")
        cache.put(key, buffer)
        buffer[:] = b"overwritten!"  # the pool reused the buffer
        assert cache.get(key) == b"pooled-reply"
        assert isinstance(cache.get(key), bytes)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DuplicateRequestCache(capacity=0)


class TestDispatchIntegration:
    def test_duplicate_replayed_without_reexecution(self):
        registry = make_registry()
        request = build(xid=5, values=[1, 2, 3])
        first = registry.dispatch_bytes(request, caller=CALLER)
        again = registry.dispatch_bytes(request, caller=CALLER)
        assert again == first
        assert registry.handlers_invoked == 1
        assert len(registry.calls_log) == 1
        assert registry.drc.hits == 1

    def test_different_caller_reexecutes(self):
        registry = make_registry()
        request = build(xid=5, values=[1, 2, 3])
        first = registry.dispatch_bytes(request, caller=CALLER)
        other = registry.dispatch_bytes(request, caller=OTHER_CALLER)
        assert other == first  # same bytes, separately computed
        assert registry.handlers_invoked == 2
        assert registry.drc.hits == 0

    def test_no_caller_bypasses_cache(self):
        registry = make_registry()
        request = build(xid=5, values=[1, 2])
        registry.dispatch_bytes(request)
        registry.dispatch_bytes(request)
        assert registry.handlers_invoked == 2
        assert registry.drc.summary()["stores"] == 0

    def test_drc_disabled_reexecutes(self):
        registry = make_registry(drc=False)
        request = build(xid=5, values=[1, 2])
        registry.dispatch_bytes(request, caller=CALLER)
        registry.dispatch_bytes(request, caller=CALLER)
        assert registry.drc is None
        assert registry.handlers_invoked == 2

    def test_error_paths_not_cached(self):
        """Requests that never reach a handler (unknown prog/proc,
        garbage args) are recomputed, not cached."""
        registry = make_registry()
        unknown_prog = RpcClient(PROG + 9, VERS).build_call(3, 1, [1],
                                                            xdr_iarr)
        registry.dispatch_bytes(unknown_prog, caller=CALLER)
        registry.dispatch_bytes(unknown_prog, caller=CALLER)
        assert registry.drc.summary()["stores"] == 0

    def test_handler_exception_reply_cached(self):
        """SYSTEM_ERR replies for crashed handlers are cached too: the
        handler ran once; a retransmission must not run it again."""
        registry = SvcRegistry(drc=True)
        attempts = []
        registry.register(
            PROG, VERS, 1,
            lambda a: attempts.append(a) or 1 // 0, xdr_iarr, xdr_int,
        )
        request = build(xid=9, values=[1])
        first = registry.dispatch_bytes(request, caller=CALLER)
        again = registry.dispatch_bytes(request, caller=CALLER)
        assert again == first
        assert len(attempts) == 1

    def test_route_and_generic_replays_byte_equal(self):
        generic = make_registry()
        routed = make_registry()
        route = routed.stage_route(PROG, VERS, 1)
        request = build(xid=4, values=[5, 6, 7])
        for _ in range(2):
            assert (generic.dispatch_bytes(request, caller=CALLER)
                    == routed.dispatch_bytes(request, caller=CALLER))
        assert generic.drc.hits == routed.drc.hits == 1
        assert route.hits == 1

    def test_lru_bound_holds_under_load(self):
        registry = SvcRegistry()
        registry.enable_drc(capacity=16)
        registry.register(PROG, VERS, 1, sum, xdr_iarr, xdr_int)
        for xid in range(100):
            registry.dispatch_bytes(build(xid, [xid]), caller=CALLER)
        assert len(registry.drc) == 16
        summary = registry.drc.summary()
        assert summary["evictions"] == 84
        assert summary["stores"] == 100


class TestSpecializedDispatchIntegration:
    IDL = """
    const MAXN = 64;
    struct intarr { int vals<MAXN>; };
    program DRC_PROG {
        version DRC_VERS { intarr SENDRECV(intarr) = 1; } = 1;
    } = 0x20005556;
    """
    IMPL = """
    void sendrecv_impl(struct intarr *args, struct intarr *res)
    {
        int i;
        res->vals_len = args->vals_len;
        for (i = 0; i < args->vals_len; i++)
            res->vals[i] = args->vals[i] + 1;
    }
    """

    def test_residual_dispatcher_uses_fallback_drc(self):
        """The compiled specialized server consults (and fills) the
        fallback registry's DRC, so duplicates skip the residual
        dispatcher too — fast_path_hits stays put on a replay."""
        from repro.specialized import SpecializationPipeline

        n = 8
        pipeline = SpecializationPipeline(self.IDL,
                                          impl_sources=[self.IMPL])
        fallback = SvcRegistry(drc=True)
        spec = pipeline.specialize_server(
            "SENDRECV", arg_lens={"vals": n}, res_lens={"vals": n},
            fallback=fallback,
        )
        client_spec = pipeline.specialize_client(
            "SENDRECV", arg_lens={"vals": n}, res_lens={"vals": n}
        )
        request = client_spec.build_request(77, {"vals": list(range(n))})
        first = spec.dispatch_bytes(request, caller=CALLER)
        assert spec.fast_path_hits == 1
        again = spec.dispatch_bytes(request, caller=CALLER)
        assert again == first
        assert spec.fast_path_hits == 1  # replayed, not re-executed
        assert fallback.drc.hits == 1
        matched, result = client_spec.parse_reply(again, 77)
        assert matched
        assert result.vals == [v + 1 for v in range(n)]


@pytest.fixture(scope="module")
def served_pipeline():
    from repro.specialized import SpecializationPipeline

    return SpecializationPipeline(TestSpecializedDispatchIntegration.IDL,
                                  impl_sources=[
                                      TestSpecializedDispatchIntegration
                                      .IMPL])


@pytest.mark.parametrize("server_cls", [UdpServer, MuxUdpServer],
                         ids=["udp", "mux_udp"])
class TestServedSpecialization:
    """``specialize_server(..., fallback=reg)`` served by a transport
    gets every policy of ``reg``: the transport's ``drc=``/``drc_dir=``
    configure it, drain and queue-full sheds go through it, its quota
    charges residual hits, and doomed work is dropped before the route
    runs."""

    N = 8
    PROG, VERS, SLOW = 0x20005556, 1, 2

    def spec_for(self, pipeline, fallback):
        return pipeline.specialize_server(
            "SENDRECV", arg_lens={"vals": self.N},
            res_lens={"vals": self.N}, fallback=fallback)

    def request(self, pipeline, xid):
        return pipeline.specialize_client(
            "SENDRECV", arg_lens={"vals": self.N},
            res_lens={"vals": self.N},
        ).build_request(xid, {"vals": list(range(self.N))})

    @staticmethod
    def exchange(sock, port, data, timeout=5.0):
        """Send ``data``; the reply datagram, or None on silence."""
        sock.sendto(data, ("127.0.0.1", port))
        sock.settimeout(timeout)
        try:
            return sock.recvfrom(65536)[0]
        except socket.timeout:
            return None

    @pytest.fixture()
    def sock(self):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind(("127.0.0.1", 0))
        yield sock
        sock.close()

    def test_drc_flag_turns_on_the_registry_cache(self, served_pipeline,
                                                 server_cls, sock):
        reg = SvcRegistry()
        spec = self.spec_for(served_pipeline, reg)
        with server_cls(spec, drc=True) as server:
            assert reg.drc is not None
            request = self.request(served_pipeline, 11)
            first = self.exchange(sock, server.port, request)
            assert self.exchange(sock, server.port, request) == first
        assert spec.fast_path_hits == 1
        assert reg.drc.hits == 1
        assert reg.handlers_invoked == 1

    def test_journal_replays_across_restart(self, served_pipeline,
                                            server_cls, sock, tmp_path):
        request = self.request(served_pipeline, 12)
        first_reg = SvcRegistry()
        first = self.spec_for(served_pipeline, first_reg)
        with server_cls(first, drc=True, drc_dir=str(tmp_path)) as server:
            assert server.journal is not None
            reply = self.exchange(sock, server.port, request)
        assert first.fast_path_hits == 1
        reborn_reg = SvcRegistry()
        reborn = self.spec_for(served_pipeline, reborn_reg)
        with server_cls(reborn, drc=True, drc_dir=str(tmp_path)) as server:
            assert server.journal.recovery["entries"] >= 1
            assert self.exchange(sock, server.port, request) == reply
        assert reborn.fast_path_hits == 0  # replayed from the journal

    def test_drain_sheds_new_calls_but_replays(self, served_pipeline,
                                               server_cls, sock):
        reg = SvcRegistry()
        spec = self.spec_for(served_pipeline, reg)
        with server_cls(spec, drc=True) as server:
            answered = self.request(served_pipeline, 13)
            first = self.exchange(sock, server.port, answered)
            assert server.drain(timeout=2.0)
            assert self.exchange(sock, server.port, answered) == first
            shed = self.exchange(sock, server.port,
                                 self.request(served_pipeline, 14))
        assert accept_stat(shed) == AcceptStat.SYSTEM_ERR
        assert spec.fast_path_hits == 1
        assert reg.sheds == 1

    def test_quota_charges_residual_hits(self, served_pipeline,
                                         server_cls, sock):
        reg = SvcRegistry()
        reg.install_quota(rate=1.0, burst=1.0, clock=lambda: 1000.0)
        spec = self.spec_for(served_pipeline, reg)
        with server_cls(spec, drc=True) as server:
            replies = [self.exchange(sock, server.port,
                                     self.request(served_pipeline, xid))
                       for xid in (21, 22, 23)]
        assert [accept_stat(r) for r in replies] == [
            AcceptStat.SUCCESS, AcceptStat.SYSTEM_ERR, AcceptStat.SYSTEM_ERR]
        assert spec.fast_path_hits == 1

    def test_queue_full_shed_is_answered(self, served_pipeline,
                                         server_cls, sock):
        reg = SvcRegistry()
        reg.register(self.PROG, self.VERS, self.SLOW,
                     lambda v: time.sleep(0.3) or v,
                     xdr_args=xdr_u_long, xdr_res=xdr_u_long)
        spec = self.spec_for(served_pipeline, reg)
        slow = RpcClient(self.PROG, self.VERS)
        with server_cls(spec, drc=True, workers=1, queue_depth=1,
                        queue_policy="fifo") as server:
            address = ("127.0.0.1", server.port)
            sock.sendto(slow.build_call(31, self.SLOW, 1, xdr_u_long),
                        address)
            time.sleep(0.1)  # the worker is busy with it
            sock.sendto(slow.build_call(32, self.SLOW, 2, xdr_u_long),
                        address)  # fills the queue
            time.sleep(0.05)
            sock.sendto(self.request(served_pipeline, 33), address)
            sock.settimeout(5.0)
            replies = {}
            while 33 not in replies:
                data = sock.recvfrom(65536)[0]
                replies[int.from_bytes(data[:4], "big")] = data
        assert accept_stat(replies[33]) == AcceptStat.SYSTEM_ERR
        assert server.requests_shed == 1
        assert spec.fast_path_hits == 0

    def test_doomed_call_dropped_before_the_route(self, served_pipeline,
                                                  server_cls, sock):
        from repro import obs
        from repro.obs.metrics import MetricsRegistry
        from repro.rpc.resilience import Deadline

        reg = SvcRegistry()
        spec = self.spec_for(served_pipeline, reg)
        stubs = served_pipeline.stubs
        doomed = RpcClient(self.PROG, self.VERS).build_call_deadline(
            41, 1, stubs.intarr(vals=list(range(self.N))),
            stubs.xdr_intarr, Deadline(0.0))
        prev = obs.enabled, obs.registry
        obs.registry = MetricsRegistry()
        obs.enabled = True
        try:
            with server_cls(spec, drc=True) as server:
                assert self.exchange(sock, server.port, bytes(doomed),
                                     timeout=0.5) is None
            counters = obs.collect()["counters"]
        finally:
            obs.enabled, obs.registry = prev
        assert reg.doomed_dropped == 1
        assert counters["rpc.server.requests"] == 1
        assert spec.route.hits == 0
        assert not any(name.startswith("rpc.server.route_misses")
                       for name in counters)
