"""The layer ledger: out-of-process Sun RPC benchmark over UDP loopback.

    python3 ledger/run.py --workload W --seed N --seconds S --trace 0|1

Runs one closed-loop workload (see ``workloads.WORKLOADS``) against a
server in its own process, checks every reply, and prints a report
whose last line is one JSON object.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
windows and reports the per-layer metrics instead (see ``README.md``).

Run from the root of a checkout; the program is imported from
``src/``.  Scratch files (fresh spec caches, span dumps, the full
report) go to ``ledger/.state/``.
"""

import argparse
import array
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(HERE, ".state")

import spans as spanlib  # noqa: E402
import workloads as wl  # noqa: E402

#: every REPRO_* knob is removed from both processes: each workload
#: passes the settings it needs as constructor arguments instead
CLEAN_ENV = {k: v for k, v in os.environ.items()
             if not k.startswith("REPRO_")}
CLEAN_ENV["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

#: one in this many ``xchg*`` replies is compared byte for byte with
#: an in-process generic SvcRegistry's reply to the same request
SAMPLE_EVERY = 32
#: at most this many sampled pairs are kept per window
MAX_SAMPLES = 256
WARMUP_S = 0.3
#: an untraced run sets up at least SETUP_RUNS times and, when set-ups
#: are cheap, until SETUP_MIN_S have passed (at most SETUP_MAX_RUNS
#: times), so the median it reports is steady
SETUP_RUNS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_RUNS = 20
READY_TIMEOUT_S = 120.0
_now_ns = time.perf_counter_ns


def _pin_cpus():
    """(client cpu, server cpu): separate CPUs when there are two."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[0], cpus[1]


def _move_to_cpu(pid, cpu):
    """Pin every thread of process ``pid`` to ``cpu``."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        os.sched_setaffinity(int(tid), {cpu})


def calibrate_us():
    """A fixed pure-Python loop, best of three, in microseconds."""
    best = None
    for _ in range(3):
        started = _now_ns()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        elapsed = (_now_ns() - started) / 1e3
        best = elapsed if best is None else min(best, elapsed)
    return best


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _percentile(sorted_values, q):
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


class Capture:
    """Keeps the request and reply bytes of armed calls (the bytes the
    client really sent and decoded), for the specialized == generic
    check.  Wraps the client's encode and decode entry points."""

    def __init__(self, client):
        self.armed = False
        self.request = self.reply = None
        for name in ("build_call", "build_call_deadline"):
            setattr(client, name, self._on_build(getattr(client, name)))
        client.parse_reply = self._on_parse(client.parse_reply)

    def _on_build(self, build):
        def captured(*args, **kwargs):
            request = build(*args, **kwargs)
            if self.armed:
                self.request = bytes(request)
            return request
        return captured

    def _on_parse(self, parse):
        def captured(data, *args, **kwargs):
            matched, value = parse(data, *args, **kwargs)
            if self.armed and matched:
                self.reply = bytes(data)
            return matched, value
        return captured


class Session:
    """One deployment: a server process plus this process's client."""

    def __init__(self, workload, trace, server_cpu, stubs):
        self.workload = workload
        self.stubs = stubs
        self.xdr = stubs.xdr_intarr
        self.tracer = spanlib.Tracer() if trace else None
        self.server_cpu = server_cpu
        self.proc = None
        self.client = None
        self.capture = None
        self.pipeline = None
        #: client-side set-up seconds per ``setup.*`` span (traced runs)
        self.client_setup = {}
        self.ready = None
        self.scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=STATE)

    # -- set-up ------------------------------------------------------------

    def start(self, check_call):
        """Launch, build both sides, make one verified call; returns
        the seconds from launch to that reply."""
        started = time.perf_counter()
        command = [sys.executable, os.path.join(HERE, "server.py"),
                   "--workload", self.workload,
                   "--cache-dir", os.path.join(self.scratch, "server-cache"),
                   "--trace", "1" if self.tracer is not None else "0"]
        if self.server_cpu is not None:
            command += ["--cpu", str(self.server_cpu)]
        self._stderr = open(os.path.join(self.scratch, "server.err"), "w+")
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True, env=CLEAN_ENV, cwd=ROOT,
        )
        spec = None
        if self.workload == "xchg250_spec":
            # built while the server builds its side, as a deployment
            # that starts both at once would
            spec = self._build_client_spec()
        self.ready = json.loads(self._read_line(READY_TIMEOUT_S))
        self.ready["server_start_s"] = time.perf_counter() - started
        self.client = self._make_client(self.ready["port"], spec)
        check_call(self)
        return time.perf_counter() - started

    def _build_client_spec(self):
        from repro.specialized import SpecializationPipeline

        if self.tracer is not None:
            self.tracer.enabled = True
        try:
            self.pipeline = SpecializationPipeline(
                wl.IDL, cache_dir=os.path.join(self.scratch, "client-cache"),
                verify=True,
            )
            spec = self.pipeline.specialize_client(
                "SENDRECV", arg_lens={"vals": wl.SPEC_N},
                res_lens={"vals": wl.SPEC_N},
            )
        finally:
            if self.tracer is not None:
                self.tracer.enabled = False
                self.client_setup = spanlib.setup_seconds(self.tracer.spans)
                self.tracer.spans.clear()
        return spec

    def _make_client(self, port, spec):
        from repro.rpc import MuxUdpClient, UdpClient

        if self.workload == "tiny_pipelined":
            client = MuxUdpClient("127.0.0.1", port, wl.TINY_PROG,
                                  wl.TINY_VERS, max_inflight=wl.WINDOW)
        else:
            client = UdpClient("127.0.0.1", port, wl.PROG, wl.VERS,
                               propagate_deadline=True)
        if spec is not None:
            if self.tracer is not None:
                spec.build_request = self.tracer.wrap(
                    "client.residual_encode", spec.build_request, xid_arg=0)
            spec.install(client)
        if self.tracer is not None:
            spanlib.wrap_methods(self.tracer, client,
                                 ("build_call", "build_call_deadline"),
                                 "client.encode", xid_arg=0)
            client.parse_reply = self.tracer.wrap(
                "client.decode", client.parse_reply, xid_arg=1)
        if self.workload != "tiny_pipelined":
            self.capture = Capture(client)
        return client

    # -- the control pipe --------------------------------------------------

    def _read_line(self, timeout):
        readable, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            self._stderr.seek(0)
            raise RuntimeError(f"server process failed:\n"
                               f"{self._stderr.read()[-4000:]}")
        return line

    def command(self, text, timeout=60.0):
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._read_line(timeout)

    def set_tracing(self, on):
        self.tracer.enabled = on
        self.command("trace on" if on else "trace off")

    def stop_server(self, spans_path=None):
        """Stop serving; the server's final counters (and, traced, its
        spans written to ``spans_path``)."""
        return json.loads(self.command(f"stop {spans_path or '-'}"))

    def close(self):
        if self.client is not None:
            self.client.close()
        if self.proc is not None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self._stderr.close()
        shutil.rmtree(self.scratch, ignore_errors=True)


# -- the closed loops --------------------------------------------------------

class Window:
    """What one measured window saw, summarised per second.

    Only one second's latencies are held at a time, so the benchmark's
    own memory does not grow with the program's throughput.
    """

    def __init__(self, begin_ns):
        self.begin_ns = begin_ns
        self.elapsed_ns = 0
        self.ok = self.failed = self.wrong = 0
        self.errors = {}
        self.sizes = {}
        self.samples = []
        #: per second: (seconds covered, calls ok, payload bytes,
        #: (p50, p90, p99) latency ns or None)
        self.seconds = []
        self._second = 0
        self._latencies = array.array("q")
        self._ok = self._payload = 0

    def add(self, now_ns, latency_ns, good, payload):
        """One finished call: ``good`` is True, False (wrong value) or
        None (typed error, already counted by :meth:`fail`)."""
        second = (now_ns - self.begin_ns) // 1_000_000_000
        while second != self._second:
            self._close_second(1.0)
            self._second += 1
        self._latencies.append(latency_ns)
        if good:
            self.ok += 1
            self._ok += 1
            self._payload += payload
        elif good is False:
            self.failed += 1
            self.wrong += 1
        self.elapsed_ns = now_ns - self.begin_ns

    def fail(self, exc):
        self.failed += 1
        name = type(exc).__name__
        self.errors[name] = self.errors.get(name, 0) + 1

    def _close_second(self, covered_s):
        latencies = sorted(self._latencies)
        summary = None
        if latencies:
            summary = tuple(_percentile(latencies, q)
                            for q in (0.50, 0.90, 0.99))
        self.seconds.append((covered_s, self._ok, self._payload, summary))
        self._latencies = array.array("q")
        self._ok = self._payload = 0

    def finish(self):
        """Close the last second; a partial one counts only when it
        covers at least half a second or is all there is."""
        covered = self.elapsed_ns / 1e9 - self._second
        if covered >= 0.5 or not self.seconds:
            self._close_second(max(covered, 1e-9))
        return self

    @property
    def attempted(self):
        return self.ok + self.failed


def serial_window(session, inputs, seconds, offset):
    """Serial ``SENDRECV`` calls for ``seconds``; ``offset`` continues
    the input cycle across windows."""
    from repro.errors import RpcError

    call = session.client.call
    xdr = session.xdr
    tracer = session.tracer if session.tracer and session.tracer.enabled \
        else None
    capture = session.capture
    begin = _now_ns()
    window = Window(begin)
    end = begin + int(seconds * 1e9)
    i = offset
    last = begin
    while i == offset or last < end:
        args, expected, n = inputs[i % len(inputs)]
        armed = capture.armed = (i % SAMPLE_EVERY == 0
                                 and len(window.samples) < MAX_SAMPLES)
        started = _now_ns()
        try:
            result = call(wl.SENDRECV, args, xdr_args=xdr, xdr_res=xdr,
                          deadline=wl.DEADLINE_S)
            good = result.vals == expected
        except RpcError as exc:
            good = None
            window.fail(exc)
        last = _now_ns()
        window.add(last, last - started, good, 8 * n)
        if tracer is not None:
            tracer.record("client.call", tracer.last_xid, started, last)
        window.sizes[n] = window.sizes.get(n, 0) + 1
        if armed and good is not None:
            window.samples.append((capture.request, capture.reply))
        i += 1
    return window.finish(), i


def pipelined_window(session, inputs, seconds, offset):
    """A sliding window of ``wl.WINDOW`` in-flight increments."""
    from collections import deque

    from repro.errors import RpcError
    from repro.xdr import xdr_u_long

    submit = session.client.call_async
    tracer = session.tracer if session.tracer and session.tracer.enabled \
        else None
    inflight = deque()
    begin = _now_ns()
    window = Window(begin)
    end = begin + int(seconds * 1e9)
    i = offset
    last = begin
    while True:
        while len(inflight) < wl.WINDOW and (i == offset or last < end):
            value, expected = inputs[i % len(inputs)]
            started = _now_ns()
            pending = submit(wl.TINY_INC, value, xdr_args=xdr_u_long,
                             xdr_res=xdr_u_long)
            inflight.append((started, expected, pending))
            i += 1
        if not inflight:
            break
        started, expected, pending = inflight.popleft()
        try:
            good = pending.result(10.0) == expected
        except RpcError as exc:
            good = None
            window.fail(exc)
        last = _now_ns()
        window.add(last, last - started, good, 8)
        if tracer is not None:
            tracer.record("client.call", pending.xid, started, last)
    return window.finish(), i


def per_second(windows):
    """(calls/s, payload bytes/s, p50 ns, p90 ns, p99 ns) over the
    windows: rates over their whole span, percentiles per second and
    averaged over the seconds."""
    seconds = [sec for w in windows for sec in w.seconds]
    covered = sum(sec[0] for sec in seconds)
    tails = [summary for _, _, _, summary in seconds if summary]
    return (sum(sec[1] for sec in seconds) / covered,
            sum(sec[2] for sec in seconds) / covered,
            *(statistics.fmean(t[k] for t in tails) for k in range(3)))


def make_inputs(session, seed):
    if session.workload == "tiny_pipelined":
        return wl.word_inputs(seed)
    stubs = session.stubs
    return [(stubs.intarr(vals=vals), expected, len(vals))
            for vals, expected in wl.array_inputs(seed, session.workload)]


def first_call(inputs):
    """The set-up's end: one call whose reply checks out."""
    def check(session):
        if session.workload == "tiny_pipelined":
            window, _ = pipelined_window(session, inputs[:1], 0, 0)
        else:
            window, _ = serial_window(session, inputs[:1], 0, 0)
        if window.ok != 1:
            raise RuntimeError(f"set-up call failed: {window.errors}")
    return check


def compare_samples(samples, stubs):
    """Replies that differ from an in-process generic SvcRegistry's
    reply to the same request bytes (specialized == generic)."""
    from repro.rpc import SvcRegistry

    registry = SvcRegistry()
    registry.register(
        wl.PROG, wl.VERS, wl.SENDRECV,
        lambda args: stubs.intarr(vals=wl.increment_all(args.vals)),
        xdr_args=stubs.xdr_intarr, xdr_res=stubs.xdr_intarr)
    return sum(1 for request, reply in samples
               if registry.dispatch_bytes(request) != reply)


# -- the run -----------------------------------------------------------------

def _stubs():
    from repro.rpcgen.codegen_py import load_python
    from repro.rpcgen.idl_parser import parse_idl

    return load_python(parse_idl(wl.IDL), "ledger_stubs")


def _source_digest():
    """sha256 over ``src/repro``'s Python files: names the code measured
    where no git commit is at hand."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _meta(args, sizes):
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    meta = {
        "workload": args.workload,
        "why": wl.WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": _source_digest(),
        "network": "UDP over 127.0.0.1 loopback; no real link was crossed",
        "pinned": args.pinned,
    }
    if args.workload == "xchg_mixed":
        meta["size_histogram"] = wl.size_histogram(sizes)
    return meta


def _merged_sizes(windows):
    sizes = {}
    for window in windows:
        for n, calls in window.sizes.items():
            sizes[n] = sizes.get(n, 0) + calls
    return sizes


def end_to_end(windows, setups, server, mismatches):
    cps, payload, p50, p90, _ = per_second(windows)
    ok = sum(w.ok for w in windows) - mismatches
    attempted = sum(w.attempted for w in windows)
    client_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_cps": (cps, "calls/s"),
        "latency_p50_us": (p50 / 1e3, "us"),
        "latency_p90_us": (p90 / 1e3, "us"),
        "payload_mbps": (payload / 1e6, "MB/s"),
        "success_rate": (ok / attempted, "ratio"),
        "peak_rss_mb": ((client_kb + server["peak_rss_kb"]) / 1024, "MB"),
    }


def per_layer(untraced, traced, session, server, table, joined, orphans,
              client_cpu_s, calib, mismatches):
    def per(total_ns, count):
        return total_ns / count / 1e3 if count else 0.0

    def total(name):
        return table.get(name, {}).get("total_ns", 0)

    def self_ns(name):
        return table.get(name, {}).get("self_ns", 0)

    def count(name):
        return table.get(name, {}).get("count", 0)

    calls = count("client.call")
    dispatches = count("server.dispatch")
    handlers = count("server.handler")
    requests = server["requests"]
    traced_requests = server["traced_requests"]
    cps_untraced, _, _, _, p99 = per_second(untraced)
    cps_traced = per_second(traced)[0]
    server_cpu_us = (server["traced_cpu_s"] / traced_requests * 1e6
                     if traced_requests else 0.0)
    client = session.client
    setup = dict(session.client_setup)
    client_cache_hits = 0
    if session.pipeline is not None:
        client_cache_hits = (session.pipeline.cache.hits
                             + session.pipeline.cache.disk_hits)
    for name, seconds in session.ready["setup"].items():
        setup[name] = setup.get(name, 0.0) + seconds
    batches = getattr(client, "batches_sent", 0)
    attempted = sum(w.attempted for w in untraced + traced)
    traced_calls = sum(w.attempted for w in traced)
    encode, decode = total("client.encode"), total("client.decode")
    metrics = {
        "client.encode_us": (per(encode, calls), "us"),
        "client.decode_us": (per(decode, calls), "us"),
        "client.wait_us": (per(total("client.call") - encode - decode,
                               calls), "us"),
        "client.residual_share": (count("client.residual_encode") / calls
                                  if calls else 0.0, "ratio"),
        "client.cpu_us_per_call": (client_cpu_s / traced_calls * 1e6,
                                   "us"),
        "client.retransmits": (client.retransmissions, "count"),
        "client.latency_p99_us": (p99 / 1e3, "us"),
        "mux.avg_batch": (client.messages_batched / batches
                          if batches else 1.0, "messages"),
        "server.requests": (requests, "count"),
        "server.dispatch_us": (per(total("server.dispatch"), dispatches),
                               "us"),
        "server.handler_us": (per(total("server.handler"), handlers), "us"),
        "server.residual_share": (server["residual_hits"] / requests,
                                  "ratio"),
        "server.deadline_share": (server["deadline_requests"]
                                  / traced_requests
                                  if traced_requests else 0.0, "ratio"),
        "server.cpu_us_per_call": (server_cpu_us, "us"),
        "server.loop_us": (server_cpu_us - per(total("server.dispatch"),
                                               dispatches), "us"),
        "server.shed": (server["shed"], "count"),
        "drc.stores": (server["drc_stores"], "count"),
        "drc.hits": (server["drc_hits"], "count"),
        "drc.dropped": (server["drc_dropped"], "count"),
        "drc.us": (per(total("server.drc"), dispatches), "us"),
        "overload.doomed": (server["doomed"], "count"),
        "setup.server_start_s": (session.ready["server_start_s"], "s"),
        "setup.tempo_s": (setup.get("setup.tempo", 0.0), "s"),
        "setup.verify_s": (setup.get("setup.verify", 0.0), "s"),
        "setup.compile_s": (setup.get("setup.compile", 0.0), "s"),
        "setup.cache_hits": (server["cache_hits"] + client_cache_hits,
                             "count"),
        "self.client.call_us": (per(self_ns("client.call"), calls), "us"),
        "self.server.dispatch_us": (per(self_ns("server.dispatch"),
                                        dispatches), "us"),
        "self.server.fallback_us": (per(self_ns("server.fallback"),
                                        dispatches), "us"),
        "trace.overhead_pct": ((cps_untraced - cps_traced)
                               / cps_untraced * 100, "%"),
        "trace.join_share": (joined / (joined + orphans)
                             if joined + orphans else 0.0, "ratio"),
        "host.calib_us": (calib, "us"),
        "error_rate": ((sum(w.failed for w in untraced + traced)
                        + mismatches) / attempted, "ratio"),
    }
    return metrics


def set_up(args, stubs, server_cpu):
    """Set up once when traced, else as ``SETUP_RUNS``/``SETUP_MIN_S``
    say, each time with a fresh server process and fresh caches; keep
    the last.  Returns (session, inputs, set-up seconds)."""
    trace = bool(args.trace)
    setups = []
    session = None
    try:
        while (not setups or not trace and (
                len(setups) < SETUP_RUNS
                or sum(setups) < SETUP_MIN_S
                and len(setups) < SETUP_MAX_RUNS)):
            if session is not None:
                session.close()
            session = Session(args.workload, trace, server_cpu, stubs)
            if trace:
                spanlib.hook_setup(session.tracer)
            inputs = make_inputs(session, args.seed)
            setups.append(session.start(first_call(inputs)))
    except BaseException:
        if session is not None:
            session.close()
        raise
    return session, inputs, setups


def measure(session, inputs, seconds, trace):
    """The timed windows: one untraced window, or untraced and traced
    quarters in turn.  Returns (untraced, traced, client CPU seconds
    over the traced windows)."""
    loop = (pipelined_window if session.workload == "tiny_pipelined"
            else serial_window)
    _, offset = loop(session, inputs, WARMUP_S, 0)
    if not trace:
        window, _ = loop(session, inputs, seconds, offset)
        return [window], [], 0.0
    untraced, traced = [], []
    client_cpu_s = 0.0
    for _ in range(2):
        window, offset = loop(session, inputs, seconds / 4, offset)
        untraced.append(window)
        session.set_tracing(True)
        cpu = _cpu_s()
        window, offset = loop(session, inputs, seconds / 4, offset)
        client_cpu_s += _cpu_s() - cpu
        session.set_tracing(False)
        traced.append(window)
    return untraced, traced, client_cpu_s


def joined_spans(session, server_spans_path, workload):
    """Client and server spans joined by xid, written once to
    ``.state``; returns (self-time table, joined, orphans)."""
    with open(server_spans_path) as handle:
        server_spans = [tuple(s) for s in json.load(handle)]
    os.remove(server_spans_path)
    merged, joined, orphans = spanlib.join(session.tracer.spans,
                                           server_spans)
    with open(os.path.join(STATE, f"spans-{workload}.json"), "w") as handle:
        json.dump(merged, handle)
    return spanlib.self_times(merged), joined, orphans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"no program to measure: {SRC}/repro is missing")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    # import every layer before any set-up is timed, so each timed
    # set-up pays the same (the server's imports are in its set-up)
    import repro.analysis.verify  # noqa: F401
    import repro.rpc  # noqa: F401
    import repro.specialized  # noqa: F401

    os.makedirs(STATE, exist_ok=True)
    client_cpu, server_cpu = _pin_cpus()
    args.pinned = client_cpu is not None
    calib_before = calibrate_us()
    stubs = _stubs()
    trace = bool(args.trace)
    session, inputs, setups = set_up(args, stubs, server_cpu)
    try:
        if client_cpu is not None:
            # builds ran side by side; the timed loop shares one CPU
            _move_to_cpu(session.proc.pid, client_cpu)
        untraced, traced, client_cpu_s = measure(session, inputs,
                                                 args.seconds, trace)
        spans_path = os.path.join(STATE, f"spans-{args.workload}-server.json")
        server = session.stop_server(spans_path if trace else None)
        windows = untraced + traced
        samples = [s for w in windows for s in w.samples]
        mismatches = compare_samples(samples, stubs) if samples else 0
        calib_after = calibrate_us()
        calib = (calib_before + calib_after) / 2
        if trace:
            table, joined, orphans = joined_spans(session, spans_path,
                                                  args.workload)
            metrics = per_layer(untraced, traced, session, server, table,
                                joined, orphans, client_cpu_s, calib,
                                mismatches)
        else:
            metrics = end_to_end(untraced, setups, server, mismatches)
    finally:
        session.close()
    errors = {}
    for window in windows:
        for name, count in window.errors.items():
            errors[name] = errors.get(name, 0) + count
    report = {
        "meta": _meta(args, _merged_sizes(windows)),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "setups_s": setups,
        "errors": errors,
        "sampled_replies": len(samples),
        "sample_mismatches": mismatches,
        "host_calib_us": {"before": calib_before, "after": calib_after},
        "server": server,
        "seconds": [w.seconds for w in windows],
    }
    if trace:
        report["self_times_us"] = {
            name: {"count": row["count"],
                   "self_us": row["self_ns"] / 1e3,
                   "total_us": row["total_ns"] / 1e3}
            for name, row in sorted(table.items())}
    name = f"report-{args.workload}-trace{args.trace}-{args.seed}.json"
    with open(os.path.join(STATE, name), "w") as handle:
        json.dump(report, handle, indent=2)
    _print_report(report)
    print(json.dumps({
        "correct": (sum(w.wrong for w in windows) == 0
                    and mismatches == 0),
        "attempted": sum(w.attempted for w in windows),
        "failed": sum(w.failed for w in windows) + mismatches,
        "metrics": report["metrics"],
    }))


def _print_report(report):
    meta = report["meta"]
    print(f"ledger {meta['workload']} seed={meta['seed']}"
          f" trace={meta['trace']} python={meta['python']}"
          f" nproc={meta['nproc']} commit={meta['git_commit']}"
          f" source={meta['source_sha256'][:12]}")
    print(f"  {meta['network']}")
    if "size_histogram" in meta:
        print(f"  sizes: {meta['size_histogram']}")
    print(f"  sampled replies {report['sampled_replies']},"
          f" mismatches {report['sample_mismatches']},"
          f" errors {report['errors'] or 'none'}")
    for name, metric in report["metrics"].items():
        print(f"  {name:<26} {metric['value']:>14.4f} {metric['unit']}")
    if "self_times_us" in report:
        print("  self time per layer (us, traced windows):")
        for name, row in report["self_times_us"].items():
            print(f"    {name:<20} n={row['count']:<8}"
                  f" self={row['self_us'] / max(row['count'], 1):9.2f}"
                  f" total={row['total_us'] / max(row['count'], 1):9.2f}")


if __name__ == "__main__":
    main()
