"""``python -m repro.obs`` — the operator's window into the stack.

Two subcommands:

``dump``
    Run a small seeded fault-injected loopback exchange (UDP, fast
    path + DRC on, 20% drop + 10% duplication by default) with every
    instrument live, then print the metrics snapshot — the quickest
    way to see the whole catalog populated.  ``--json`` emits the raw
    ``registry.collect()`` object; ``--trace FILE`` also writes the
    exchange's span trace as JSON-lines.

``summarize``
    Read a JSON-lines trace (``RPCTrace`` format) and print the
    per-span-name time breakdown; ``--xid N`` instead reconstructs
    the full nested timeline of the call(s) carrying that xid — the
    worked example in docs/OBSERVABILITY.md walks one retransmitted
    call through this view.
"""

import argparse
import json
import sys

from repro import obs
from repro.obs.trace import load_trace, summarize_spans

DEMO_CALLS = 12
DEMO_LOSS = 0.20
DEMO_SEED = 0x0B5


def run_demo(calls=DEMO_CALLS, loss=DEMO_LOSS, seed=DEMO_SEED,
             trace_file=None):
    """Drive a seeded lossy loopback exchange with instrumentation on.

    Returns the metrics snapshot dict.  Restores the previous obs
    state on exit so the demo composes with an already-configured
    process.
    """
    from repro.bench.workloads import (
        PROG_NUMBER, VERS_NUMBER, WORKLOAD_IDL,
    )
    from repro.rpc import FaultPlan, SvcRegistry, UdpClient, UdpServer
    from repro.rpcgen.codegen_py import load_python
    from repro.rpcgen.idl_parser import parse_idl

    was_enabled = obs.enabled
    sink = obs.enable(trace_file=trace_file) if trace_file else None
    if not was_enabled:
        obs.enable()
    stubs = load_python(parse_idl(WORKLOAD_IDL), "obs_demo_stubs")
    registry = SvcRegistry()

    class Impl:
        def SENDRECV(self, args):
            return stubs.intarr(vals=[v + 1 for v in args.vals])

    stubs.register_XCHG_PROG_1(registry, Impl())
    args = stubs.intarr(vals=list(range(16)))
    client_plan = FaultPlan(seed=seed, drop=loss, duplicate=0.10)
    server_plan = FaultPlan(seed=seed + 1, drop=loss, duplicate=0.10)
    try:
        with UdpServer(registry, drc=True,
                       fault_plan=server_plan) as server:
            with UdpClient("127.0.0.1", server.port, PROG_NUMBER,
                           VERS_NUMBER, timeout=30.0, wait=0.005,
                           max_wait=0.25, jitter=0.0,
                           fault_plan=client_plan) as transport:
                client = stubs.XCHG_PROG_1_client(transport)
                for _ in range(calls):
                    client.SENDRECV(args)
    finally:
        if sink is not None:
            obs.tracer.remove_sink(sink)
        if not was_enabled:
            obs.enabled = False
    return obs.collect()


def _print_snapshot(snapshot, stream=sys.stdout):
    width = max((len(name) for kind in ("counters", "gauges")
                 for name in snapshot[kind]), default=20)
    for kind in ("counters", "gauges"):
        if not snapshot[kind]:
            continue
        stream.write(f"# {kind}\n")
        for name in sorted(snapshot[kind]):
            stream.write(f"{name:<{width}}  {snapshot[kind][name]}\n")
    if snapshot["histograms"]:
        stream.write("# histograms\n")
        for name in sorted(snapshot["histograms"]):
            hist = snapshot["histograms"][name]
            stream.write(
                f"{name:<{width}}  count={hist['count']}"
                f" sum={hist['sum']:.6f}s\n"
            )


def _cmd_dump(args):
    snapshot = run_demo(calls=args.calls, loss=args.loss, seed=args.seed,
                        trace_file=args.trace)
    if args.json:
        json.dump(snapshot, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(f"# metrics after {args.calls} seeded loopback calls"
              f" at {int(args.loss * 100)}% loss (DRC on)")
        _print_snapshot(snapshot)
        if args.trace:
            print(f"# trace written to {args.trace}")
    return 0


def _print_timeline(records, xid, stream=sys.stdout):
    """Nested, time-ordered rendering of every trace touching ``xid``."""
    traces = {r["trace"] for r in records if r.get("xid") == xid}
    picked = [r for r in records if r["trace"] in traces]
    if not picked:
        stream.write(f"no spans with xid={xid}\n")
        return 1
    base = min(r["ts"] for r in picked)
    depth = {}
    for record in sorted(picked, key=lambda r: r["ts"]):
        depth[record["span"]] = (
            depth.get(record.get("parent"), -1) + 1
        )
        indent = "  " * depth[record["span"]]
        extras = " ".join(
            f"{k}={record[k]}" for k in sorted(record)
            if k not in ("name", "span", "parent", "trace", "ts",
                         "dur_us", "tid")
        )
        stream.write(
            f"+{(record['ts'] - base) * 1e3:9.3f}ms "
            f"{indent}{record['name']}"
            f" [{record['dur_us']:.1f}us] {extras}\n"
        )
    return 0


def _cmd_summarize(args):
    records = load_trace(args.trace_file)
    if args.xid is not None:
        return _print_timeline(records, args.xid)
    summary = summarize_spans(records)
    if args.json:
        json.dump(summary, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    print(f"# {len(records)} spans in {args.trace_file}")
    width = max((len(name) for name in summary), default=10)
    print(f"{'span':<{width}}  {'count':>6}  {'total_ms':>9}"
          f"  {'avg_us':>8}  {'max_us':>8}")
    for name, entry in summary.items():
        print(f"{name:<{width}}  {entry['count']:>6}"
              f"  {entry['total_us'] / 1e3:>9.3f}"
              f"  {entry['avg_us']:>8.1f}  {entry['max_us']:>8.1f}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Metrics and trace tooling for the repro RPC stack",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dump = sub.add_parser(
        "dump", help="run a seeded lossy loopback demo, dump the metrics"
    )
    dump.add_argument("--calls", type=int, default=DEMO_CALLS)
    dump.add_argument("--loss", type=float, default=DEMO_LOSS)
    dump.add_argument("--seed", type=int, default=DEMO_SEED)
    dump.add_argument("--json", action="store_true",
                      help="emit the raw registry.collect() JSON")
    dump.add_argument("--trace", metavar="FILE",
                      help="also write the demo's span trace (JSON-lines)")
    dump.set_defaults(func=_cmd_dump)

    summarize = sub.add_parser(
        "summarize", help="summarize a JSON-lines trace file"
    )
    summarize.add_argument("trace_file")
    summarize.add_argument("--xid", type=int, default=None,
                           help="print the nested timeline of this xid")
    summarize.add_argument("--json", action="store_true")
    summarize.set_defaults(func=_cmd_summarize)

    args = parser.parse_args(argv)
    return args.func(args)
