"""In-memory spans recorded around calls into the program's layers.

The benchmark never edits the program: it wraps the public methods a
layer exposes (``RpcClient.build_call``, ``SvcRegistry.dispatch_bytes``,
``DuplicateRequestCache.get``, ...) with :meth:`Tracer.wrap` on the
*instance* the run uses, and wraps the set-up functions
(:func:`hook_setup`) in the modules that call them.

A span is the tuple ``(sid, parent, name, xid, start_ns, end_ns)``;
one call in ``TRACE_EVERY`` is recorded.
Within one thread the parent is the enclosing wrapped call, whose xid
the span inherits.  Spans without an in-thread parent but with an xid
(client encode/decode, the server's dispatch) are joined to the
``client.call`` span of the same xid when the client's and server's
spans are reduced together.  Both
processes stamp with ``time.perf_counter_ns`` (CLOCK_MONOTONIC on
Linux), so their intervals share one time base.
"""

import itertools
import threading
import time

_now_ns = time.perf_counter_ns

#: one call in this many is recorded, chosen by a hash of its xid so
#: that both processes pick the same calls and the pick is unrelated to
#: the order of the inputs
TRACE_EVERY = 8
_SAMPLE_BELOW = (1 << 32) // TRACE_EVERY


def sampled(xid):
    """Whether spans carrying ``xid`` are recorded (spans without an xid,
    such as set-up builds, always are)."""
    return xid is None or (xid * 0x9E3779B1) & 0xFFFFFFFF < _SAMPLE_BELOW


class Tracer:
    """Collects spans while :attr:`enabled`; a disabled wrapper costs
    one attribute test."""

    def __init__(self):
        self.enabled = False
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: xid seen by the most recent wrapper that knows one (the
        #: serial client learns its call's xid from the encode span)
        self.last_xid = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, xid_arg=None, xid_of=None):
        """``fn`` recording a ``name`` span per call while enabled.

        ``xid_arg`` is the positional index of an xid argument;
        ``xid_of(args)`` derives one otherwise; without either the span
        carries its in-thread parent's xid.
        """
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent, parent_xid = stack[-1] if stack else (None, None)
            xid = None
            if xid_arg is not None:
                xid = args[xid_arg] & 0xFFFFFFFF
            elif xid_of is not None:
                xid = xid_of(args)
            if xid is None:
                xid = parent_xid
            else:
                self.last_xid = xid
            if not sampled(xid):
                stack.append((None, xid))
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
            sid = next(self._ids)
            stack.append((sid, xid))
            start = _now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now_ns()
                stack.pop()
                self.spans.append((sid, parent, name, xid, start, end))
        return traced

    def record(self, name, xid, start_ns, end_ns):
        """A span timed by the caller (the whole client call)."""
        if self.enabled and sampled(xid):
            self.spans.append((next(self._ids), None, name, xid, start_ns,
                               end_ns))


def request_xid(args):
    """The xid of a call message passed as ``dispatch_bytes``' first
    argument."""
    data = args[0]
    return int.from_bytes(data[0:4], "big") if len(data) >= 4 else None


def wrap_methods(tracer, obj, names, prefix, **kwargs):
    """Replace each of ``obj``'s bound ``names`` with a traced wrapper
    on the instance; the span is named ``prefix``."""
    for name in names:
        setattr(obj, name, tracer.wrap(prefix, getattr(obj, name), **kwargs))


# -- set-up hooks ------------------------------------------------------------

#: (span name, module, attribute): the functions a specialization build
#: spends its time in — Tempo, the equivalence verifier, compile_py
SETUP_FUNCTIONS = (
    ("setup.tempo", "repro.specialized.pipeline", "specialize"),
    ("setup.compile", "repro.specialized.pipeline", "compile_program"),
    ("setup.verify", "repro.analysis.verify", "verify_client_spec"),
    ("setup.verify", "repro.analysis.verify", "verify_server_residual"),
)


def hook_setup(tracer):
    """Wrap the build functions where the pipeline looks them up."""
    import importlib

    for span_name, module_name, attr in SETUP_FUNCTIONS:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(span_name, getattr(module, attr)))


def setup_seconds(spans):
    """Self seconds per ``setup.*`` span name."""
    totals = {}
    for name, row in self_times(spans).items():
        if name.startswith("setup."):
            totals[name] = row["self_ns"] / 1e9
    return totals


# -- reduction ---------------------------------------------------------------

def _covered_ns(start, end, intervals):
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def join(client_spans, server_spans):
    """One span list with globally unique ids and cross-process parents.

    Returns ``(spans, joined, orphans)``: ``joined`` counts server
    dispatch spans whose xid found a ``client.call``; ``orphans`` those
    that did not.
    """
    merged = []
    calls_by_xid = {}
    for side, spans in (("c", client_spans), ("s", server_spans)):
        for sid, parent, name, xid, start, end in spans:
            gid = (side, sid)
            gparent = (side, parent) if parent is not None else None
            merged.append([gid, gparent, name, xid, start, end])
            if name == "client.call" and xid is not None:
                calls_by_xid[xid] = gid
    joined = orphans = 0
    for span in merged:
        gid, gparent, name, xid = span[:4]
        if gparent is None and xid is not None and name != "client.call":
            span[1] = calls_by_xid.get(xid)
            if name == "server.dispatch":
                if span[1] is None:
                    orphans += 1
                else:
                    joined += 1
    return [tuple(span) for span in merged], joined, orphans


def self_times(spans):
    """Per span name: count, total ns, and self ns (total minus the
    part of each span its children cover)."""
    children = {}
    for gid, parent, _name, _xid, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    table = {}
    for gid, _parent, name, _xid, start, end in spans:
        row = table.setdefault(name, {"count": 0, "total_ns": 0,
                                      "self_ns": 0})
        row["count"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += (end - start) - _covered_ns(
            start, end, children.get(gid, ()))
    return table
