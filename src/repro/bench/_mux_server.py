"""Subprocess entry point: the ``mux`` report's loopback server.

The report measures the *client call model* (serial vs. multiplexed),
so the server runs in its own process — its own interpreter, its own
GIL — exactly like a real deployment.  An in-process server would
serialize the client's submit/demux threads against the server's
event loop and understate the pipelining win.

Protocol: print the bound UDP port on stdout, serve until stdin
closes (the parent's handle on our lifetime), then stop.
"""

import sys

from repro.bench.mux import _registry
from repro.rpc import MuxUdpServer


def main():
    server = MuxUdpServer(_registry())
    server.start()
    print(server.port, flush=True)
    sys.stdin.read()  # parent closes the pipe to stop us
    server.stop()


if __name__ == "__main__":
    main()
