"""Loopback integration tests: UDP and TCP clients against live servers."""

import threading

import pytest

from repro.errors import RpcDeniedError, RpcTimeoutError
from repro.rpc import (
    SvcRegistry,
    TcpClient,
    TcpServer,
    UdpClient,
    UdpServer,
    make_auth_sys,
)
from repro.rpc.auth import NULL_AUTH, OpaqueAuth
from repro.rpc.client import RpcClient
from repro.rpc.message import CallHeader, encode_call_header
from repro.xdr import XdrMemStream, XdrOp, xdr_array, xdr_int, xdr_string

PROG, VERS = 0x20002222, 1


def xdr_iarr(xdrs, value):
    return xdr_array(xdrs, value, 4096, xdr_int)


@pytest.fixture()
def registry():
    reg = SvcRegistry()
    reg.register(PROG, VERS, 1, lambda a: min(a), xdr_iarr, xdr_int)
    reg.register(
        PROG, VERS, 2, lambda a: [x * 2 for x in a], xdr_iarr, xdr_iarr
    )
    reg.register(
        PROG, VERS, 3, lambda s: s.upper(),
        lambda x, v: xdr_string(x, v, 256),
        lambda x, v: xdr_string(x, v, 256),
    )
    return reg


AUTH_FLAVORS = [
    (NULL_AUTH, NULL_AUTH),
    (make_auth_sys(7, "testhost", 1000, 100, (1, 2, 3)), NULL_AUTH),
    (make_auth_sys(1, "h", 0, 0), OpaqueAuth(2, b"shorthand")),
]


class TestMessageBytes:
    """Client message building and reply checking, off the wire."""

    @pytest.mark.parametrize("cred,verf", AUTH_FLAVORS)
    @pytest.mark.parametrize("proc", [0, 1, 2, 77])
    def test_call_bytes_identical(self, cred, verf, proc):
        """``build_call`` equals the header encoder plus the body."""
        client = RpcClient(PROG, VERS, cred=cred, verf=verf)
        for xid in (0, 1, 0x7FFFFFFF, 0xFFFFFFFF):
            stream = XdrMemStream(bytearray(client.bufsize), XdrOp.ENCODE)
            encode_call_header(stream, CallHeader(xid, PROG, VERS, proc,
                                                  cred, verf))
            xdr_iarr(stream, [1, 2, 3])
            assert client.build_call(xid, proc, [1, 2, 3],
                                     xdr_iarr) == stream.data()

    def test_stale_xid_is_unmatched_not_an_error(self, registry):
        client = RpcClient(PROG, VERS)
        reply = registry.dispatch_bytes(
            client.build_call(41, 2, [1, 2], xdr_iarr))
        matched, _ = client.parse_reply(reply, 42, 2, xdr_iarr)
        assert matched is False
        matched, value = client.parse_reply(memoryview(reply), 41, 2,
                                            xdr_iarr)
        assert matched and value == [2, 4]

    def test_error_reply_raises(self, registry):
        client = RpcClient(PROG, VERS)
        reply = registry.dispatch_bytes(client.build_call(7, 99, None, None))
        with pytest.raises(RpcDeniedError, match="PROC_UNAVAIL"):
            client.parse_reply(reply, 7, 99, None)


class TestUdp:
    def test_simple_call(self, registry):
        with UdpServer(registry) as server:
            with UdpClient("127.0.0.1", server.port, PROG, VERS) as client:
                assert client.call(1, [5, 3, 9], xdr_iarr, xdr_int) == 3

    def test_auth_sys_call(self, registry):
        cred = make_auth_sys(3, "box", 501, 20, (12,))
        with UdpServer(registry) as server:
            with UdpClient("127.0.0.1", server.port, PROG, VERS,
                           cred=cred) as client:
                assert client.call(1, [5, 7], xdr_iarr, xdr_int) == 5

    def test_null_ping(self, registry):
        with UdpServer(registry) as server:
            with UdpClient("127.0.0.1", server.port, PROG, VERS) as client:
                assert client.null_call() is None

    def test_large_array(self, registry):
        data = list(range(2000))
        with UdpServer(registry) as server:
            with UdpClient("127.0.0.1", server.port, PROG, VERS) as client:
                got = client.call(2, data, xdr_iarr, xdr_iarr)
        assert got == [x * 2 for x in data]

    def test_string_payload(self, registry):
        with UdpServer(registry) as server:
            with UdpClient("127.0.0.1", server.port, PROG, VERS) as client:
                got = client.call(
                    3, "sun rpc",
                    lambda x, v: xdr_string(x, v, 256),
                    lambda x, v: xdr_string(x, v, 256),
                )
        assert got == "SUN RPC"

    def test_sequential_calls_increment_xid(self, registry):
        with UdpServer(registry) as server:
            with UdpClient("127.0.0.1", server.port, PROG, VERS) as client:
                first = client.next_xid()
                for value in range(5):
                    assert client.call(1, [value], xdr_iarr, xdr_int) == value
                assert client.next_xid() == (first + 6) & 0xFFFFFFFF

    def test_timeout_when_no_server(self):
        with UdpClient(
            "127.0.0.1", 1, PROG, VERS, timeout=0.3, wait=0.1
        ) as client:
            with pytest.raises(RpcTimeoutError):
                client.call(1, [1], xdr_iarr, xdr_int)
            assert client.retransmissions >= 1

    def test_denied_error_surfaces(self, registry):
        with UdpServer(registry) as server:
            with UdpClient("127.0.0.1", server.port, PROG + 1,
                           VERS) as client:
                with pytest.raises(RpcDeniedError, match="PROG_UNAVAIL"):
                    client.call(1, [1], xdr_iarr, xdr_int)

    def test_retransmission_recovers_lost_datagram(self, registry):
        """A server that drops the first datagram: the client's
        retransmission discipline must still complete the call."""

        class DroppyServer(UdpServer):
            def __init__(self, reg):
                super().__init__(reg)
                self.dropped = False

            def handle_once(self, timeout=None):
                import socket as socket_mod

                try:
                    data, addr = self.sock.recvfrom(self.bufsize)
                except socket_mod.timeout:
                    return False
                if not self.dropped:
                    self.dropped = True
                    return True  # swallow the first request
                reply = self.registry.dispatch_bytes(data)
                if reply is not None:
                    self.sock.sendto(reply, addr)
                return True

        with DroppyServer(registry) as server:
            with UdpClient(
                "127.0.0.1", server.port, PROG, VERS, timeout=5.0, wait=0.2
            ) as client:
                assert client.call(1, [4, 2], xdr_iarr, xdr_int) == 2
                assert client.retransmissions >= 1


class TestTcp:
    def test_simple_call(self, registry):
        with TcpServer(registry) as server:
            with TcpClient("127.0.0.1", server.port, PROG, VERS) as client:
                assert client.call(1, [8, 6, 7], xdr_iarr, xdr_int) == 6

    def test_many_calls_one_connection(self, registry):
        with TcpServer(registry) as server:
            with TcpClient("127.0.0.1", server.port, PROG, VERS) as client:
                for value in range(20):
                    got = client.call(2, [value], xdr_iarr, xdr_iarr)
                    assert got == [value * 2]
            assert server.connections_accepted == 1

    def test_concurrent_connections(self, registry):
        errors = []

        def worker(port, base):
            try:
                with TcpClient("127.0.0.1", port, PROG, VERS) as client:
                    for value in range(10):
                        got = client.call(
                            1, [base + value, base], xdr_iarr, xdr_int
                        )
                        assert got == base
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with TcpServer(registry) as server:
            threads = [
                threading.Thread(target=worker, args=(server.port, k))
                for k in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert errors == []

    def test_big_payload_fragments(self):
        big_registry = SvcRegistry(bufsize=1 << 17)
        big_registry.register(
            PROG, VERS, 2, lambda a: [x * 2 for x in a], xdr_iarr, xdr_iarr
        )
        data = list(range(4096))
        with TcpServer(big_registry) as server:
            with TcpClient(
                "127.0.0.1", server.port, PROG, VERS, bufsize=1 << 17
            ) as client:
                got = client.call(2, data, xdr_iarr, xdr_iarr)
        assert got == [x * 2 for x in data]

    def test_oversized_reply_becomes_system_err(self, registry):
        data = list(range(4000))  # doubled reply exceeds the 8800 buffer
        with TcpServer(registry) as server:
            with TcpClient(
                "127.0.0.1", server.port, PROG, VERS, bufsize=1 << 17
            ) as client:
                with pytest.raises(RpcDeniedError, match="SYSTEM_ERR"):
                    client.call(2, data, xdr_iarr, xdr_iarr)


class TestPmap:
    def test_set_getport_unset(self):
        from repro.rpc.pmap import (
            IPPROTO_UDP,
            PortMapper,
            pmap_getport,
            pmap_set,
            pmap_unset,
        )

        reg = SvcRegistry()
        PortMapper().mount(reg)
        with UdpServer(reg) as pmap_server:
            assert pmap_set(PROG, VERS, IPPROTO_UDP, 2049,
                            pmap_port=pmap_server.port)
            assert pmap_getport(PROG, VERS, IPPROTO_UDP,
                                pmap_port=pmap_server.port) == 2049
            # Duplicate registration is refused, like the real pmap.
            assert not pmap_set(PROG, VERS, IPPROTO_UDP, 9999,
                                pmap_port=pmap_server.port)
            assert pmap_unset(PROG, VERS, pmap_port=pmap_server.port)
            from repro.errors import RpcError

            with pytest.raises(RpcError, match="not registered"):
                pmap_getport(PROG, VERS, IPPROTO_UDP,
                             pmap_port=pmap_server.port)
