"""The benchmark's server process (one per set-up, its own GIL).

Builds the workload's deployment, prints one JSON line with its port
and set-up figures, then answers one-line commands on stdin:

``trace on`` / ``trace off``
    start / stop a traced window (counters and CPU are accumulated
    over traced windows only);
``stop <path>``
    stop serving (so every counter is final), write the recorded spans
    to ``path`` and print the counters;
``quit``
    exit.

Run by ``run.py``; not meant to be started by hand.
"""

import argparse
import json
import os
import resource
import sys

import spans as spanlib
import workloads as wl


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Deployment:
    """The program under test, as an operator would run it."""

    def __init__(self, workload, cache_dir, tracer):
        from repro.rpc import MuxUdpServer, SvcRegistry, UdpServer
        from repro.xdr import xdr_u_long

        self.pipeline = None
        self.spec = None
        if workload == "tiny_pipelined":
            handler = wl.increment
            if tracer is not None:
                handler = tracer.wrap("server.handler", handler)
            self.registry = SvcRegistry()
            self.registry.register(wl.TINY_PROG, wl.TINY_VERS, wl.TINY_INC,
                                   handler, xdr_args=xdr_u_long,
                                   xdr_res=xdr_u_long)
            self.fallback = self.registry
            # inline dispatch on the event loop; DRC on
            self.server = MuxUdpServer(self.registry, drc=True, workers=0,
                                       drc_dir=None)
        else:
            from repro.specialized import SpecializationPipeline

            self.pipeline = SpecializationPipeline(
                wl.IDL, impl_sources=[wl.IMPL], cache_dir=cache_dir,
                verify=True,
            )
            stubs = self.pipeline.stubs

            def sendrecv(args):
                return stubs.intarr(vals=wl.increment_all(args.vals))

            if tracer is not None:
                sendrecv = tracer.wrap("server.handler", sendrecv)

            self.fallback = SvcRegistry()
            self.fallback.enable_drc()
            self.fallback.register(wl.PROG, wl.VERS, wl.SENDRECV, sendrecv,
                                   xdr_args=stubs.xdr_intarr,
                                   xdr_res=stubs.xdr_intarr)
            self.spec = self.pipeline.specialize_server(
                "SENDRECV", arg_lens={"vals": wl.SPEC_N},
                res_lens={"vals": wl.SPEC_N}, fallback=self.fallback,
            )
            self.registry = self.spec
            # the residual dispatcher filters duplicates through the
            # fallback's DRC; inline dispatch like the stock svcudp
            self.server = UdpServer(self.spec, drc=True, workers=0,
                                    drc_dir=None)
        self.drc = self.fallback.drc
        self.deadline_requests = 0
        self.traced_requests = 0
        if tracer is not None:
            self._instrument(tracer)

    def _instrument(self, tracer):
        dispatch = tracer.wrap("server.dispatch",
                               self.registry.dispatch_bytes,
                               xid_of=spanlib.request_xid)

        def counted(data, *args, **kwargs):
            if tracer.enabled:
                self.traced_requests += 1
                if bytes(data[24:28]) == b"DEAD":  # deadline cred flavor
                    self.deadline_requests += 1
            return dispatch(data, *args, **kwargs)

        self.registry.dispatch_bytes = counted
        if self.spec is not None:
            self.fallback.dispatch_bytes = tracer.wrap(
                "server.fallback", self.fallback.dispatch_bytes)
        spanlib.wrap_methods(tracer, self.drc,
                             ("get", "claim", "begin", "put", "abandon"),
                             "server.drc")

    def counters(self):
        drc = self.drc.summary()
        requests = self.server.requests_handled
        hits = self.spec.fast_path_hits if self.spec is not None else 0
        return {
            "requests": requests,
            "residual_hits": hits,
            "drc_stores": drc["stores"],
            "drc_hits": drc["hits"],
            "drc_dropped": drc["in_progress_drops"],
            "drc_evictions": drc["evictions"],
            "shed": self.fallback.sheds + self.server.requests_shed,
            "doomed": self.fallback.doomed_dropped,
            "cache_hits": (self.pipeline.cache.hits
                           + self.pipeline.cache.disk_hits
                           if self.pipeline is not None else 0),
        }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--cpu", type=int, default=None)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    tracer = spanlib.Tracer() if args.trace else None
    if tracer is not None:
        spanlib.hook_setup(tracer)
        tracer.enabled = True
    deployment = Deployment(args.workload, args.cache_dir, tracer)
    setup = {}
    if tracer is not None:
        tracer.enabled = False
        setup = spanlib.setup_seconds(tracer.spans)
        tracer.spans.clear()
    deployment.server.start()
    print(json.dumps({"port": deployment.server.port, "setup": setup}),
          flush=True)
    window_cpu = 0.0
    mark = None
    serving = True
    try:
        for line in sys.stdin:
            command = line.split()
            if not command:
                continue
            if command[0] == "quit":
                break
            if command[0] == "trace" and tracer is not None:
                if command[1] == "on":
                    mark = _cpu_s()
                    tracer.enabled = True
                else:
                    tracer.enabled = False
                    window_cpu += _cpu_s() - mark
                print("ok", flush=True)
            elif command[0] == "stop":
                deployment.server.stop()
                serving = False
                if tracer is not None:
                    with open(command[1], "w") as handle:
                        json.dump(tracer.spans, handle)
                usage = resource.getrusage(resource.RUSAGE_SELF)
                print(json.dumps({
                    **deployment.counters(),
                    "traced_cpu_s": window_cpu,
                    "traced_requests": deployment.traced_requests,
                    "deadline_requests": deployment.deadline_requests,
                    "peak_rss_kb": usage.ru_maxrss,
                }), flush=True)
    finally:
        if serving:
            deployment.server.stop()


if __name__ == "__main__":
    main()
