#!/usr/bin/env python3
"""Async quickstart: the concurrent call engine in a dozen lines.

One `MuxUdpClient` keeps a window of xid-multiplexed calls in flight
over a single socket against the event-loop `MuxUdpServer`; concurrent
submissions coalesce into batched datagrams, and each `PendingCall`
resolves with its own value (or a typed error) however the replies
come back.

Run:  python examples/async_quickstart.py

This script appears verbatim in the README's "Concurrent calls"
section; keep the two in sync.
"""

from repro.rpc import MuxUdpClient, MuxUdpServer, SvcRegistry
from repro.xdr import xdr_u_long

PROG, VERS, PROC_SQUARE = 0x20005555, 1, 1

registry = SvcRegistry()
registry.enable_drc()
registry.register(PROG, VERS, PROC_SQUARE, lambda v: v * v,
                  xdr_args=xdr_u_long, xdr_res=xdr_u_long)

with MuxUdpServer(registry) as server:
    client = MuxUdpClient("127.0.0.1", server.port, PROG, VERS,
                          max_inflight=32)
    try:
        # Submit a burst of async calls: all 16 ride the window
        # together instead of paying 16 serial round trips.
        calls = [client.call_async(PROC_SQUARE, n, xdr_args=xdr_u_long,
                                   xdr_res=xdr_u_long)
                 for n in range(16)]
        print("squares:", [call.result(timeout=5.0) for call in calls])
        print(f"{client.messages_batched} messages left in"
              f" {client.batches_sent} transmits"
              f" ({client.unknown_xids} stray replies)")
    finally:
        client.close()
