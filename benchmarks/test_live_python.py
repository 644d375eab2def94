"""Live-Python benchmarks (this machine, wall clock).

The simulator reproduces the 1997 platforms; these benchmarks show the
same specialization winning on a live substrate: the generic XDR
micro-layer stack versus the Tempo-residual marshalers compiled to
Python, for marshaling, reply decoding, and complete loopback RPCs.
"""

import pytest

from repro.rpc import UdpClient, UdpServer
from repro.rpc.client import RpcClient
from repro.bench.workloads import PROG_NUMBER, VERS_NUMBER

SIZES = (20, 250, 2000)


def _args(pipeline, n):
    return pipeline.stubs.intarr(vals=list(range(n)))


@pytest.fixture(scope="module")
def client_specs(live_pipeline):
    return {
        n: live_pipeline.specialize_client(
            "SENDRECV", arg_lens={"vals": n}, res_lens={"vals": n}
        )
        for n in SIZES
    }


@pytest.mark.parametrize("n", SIZES)
def test_marshal_generic(benchmark, live_pipeline, n):
    stubs = live_pipeline.stubs
    client = RpcClient(PROG_NUMBER, VERS_NUMBER)
    args = _args(live_pipeline, n)
    benchmark(client.build_call, 1, 1, args, stubs.xdr_intarr)


@pytest.mark.parametrize("n", SIZES)
def test_marshal_specialized(benchmark, live_pipeline, client_specs, n):
    client = RpcClient(PROG_NUMBER, VERS_NUMBER)
    client_specs[n].install(client)
    args = _args(live_pipeline, n)
    generic = RpcClient(PROG_NUMBER, VERS_NUMBER)
    wire = generic.build_call(
        1, 1, args, live_pipeline.stubs.xdr_intarr
    )
    assert client.build_call(1, 1, args, None) == wire
    benchmark(client.build_call, 1, 1, args, None)


@pytest.mark.parametrize("n", SIZES)
def test_decode_generic(benchmark, live_pipeline, client_specs, n):
    request = client_specs[n].build_request(7, {"vals": list(range(n))})
    server = live_pipeline.specialize_server(
        "SENDRECV", arg_lens={"vals": n}, res_lens={"vals": n}
    )
    reply = server.dispatch_bytes(request)
    client = RpcClient(PROG_NUMBER, VERS_NUMBER)

    def decode():
        matched, value = client.parse_reply(
            reply, 7, 1, live_pipeline.stubs.xdr_intarr
        )
        assert matched
        return value

    assert decode().vals == [v + 1 for v in range(n)]
    benchmark(decode)


@pytest.mark.parametrize("n", SIZES)
def test_decode_specialized(benchmark, live_pipeline, client_specs, n):
    spec = client_specs[n]
    request = spec.build_request(7, {"vals": list(range(n))})
    server = live_pipeline.specialize_server(
        "SENDRECV", arg_lens={"vals": n}, res_lens={"vals": n}
    )
    reply = server.dispatch_bytes(request)

    def decode():
        matched, value = spec.parse_reply(reply, 7)
        assert matched
        return value

    assert decode().vals == [v + 1 for v in range(n)]
    benchmark(decode)


@pytest.mark.parametrize("n", (20, 250))
def test_loopback_roundtrip_generic(benchmark, live_pipeline, n):
    stubs = live_pipeline.stubs
    from repro.rpc import SvcRegistry

    registry = SvcRegistry()

    class Impl:
        def SENDRECV(self, args):
            return stubs.intarr(vals=[v + 1 for v in args.vals])

    stubs.register_XCHG_PROG_1(registry, Impl())
    with UdpServer(registry) as server:
        with UdpClient("127.0.0.1", server.port, PROG_NUMBER,
                       VERS_NUMBER) as transport:
            client = stubs.XCHG_PROG_1_client(transport)
            args = _args(live_pipeline, n)
            assert client.SENDRECV(args).vals == [
                v + 1 for v in range(n)
            ]
            benchmark(client.SENDRECV, args)


@pytest.mark.parametrize("n", (20, 250))
def test_loopback_roundtrip_specialized(benchmark, live_pipeline,
                                        client_specs, n):
    stubs = live_pipeline.stubs
    server_spec = live_pipeline.specialize_server(
        "SENDRECV", arg_lens={"vals": n}, res_lens={"vals": n}
    )
    with UdpServer(server_spec) as server:
        with UdpClient("127.0.0.1", server.port, PROG_NUMBER,
                       VERS_NUMBER) as transport:
            client_specs[n].install(transport)
            client = stubs.XCHG_PROG_1_client(transport)
            args = _args(live_pipeline, n)
            assert client.SENDRECV(args).vals == [
                v + 1 for v in range(n)
            ]
            benchmark(client.SENDRECV, args)
