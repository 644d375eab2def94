"""Generic RPC client interface.

Transports (:class:`~repro.rpc.clnt_udp.UdpClient`,
:class:`~repro.rpc.clnt_tcp.TcpClient`) share message construction and
reply validation; marshaling is pluggable so the Tempo-specialized
marshalers drop in for the generic XDR micro-layers (the client-side
half of the paper's experiment).  The generic path re-encodes the call
header through the XDR micro-layers on every call — the unspecialized
baseline of the paper.
"""

import itertools
import os
import struct

from repro.errors import RpcProtocolError
from repro.rpc.auth import NULL_AUTH
from repro.rpc.message import (
    CallHeader,
    decode_reply_header,
    encode_call_header,
    raise_for_reply,
)
from repro.rpc.overload import make_deadline_cred, propagation_enabled
from repro.xdr import XdrMemStream, XdrOp

#: Sun's UDP transfer-unit default.
UDPMSGSIZE = 8800


class RpcClient:
    """Base class: message building, reply validation, call plumbing."""

    def __init__(self, prog, vers, cred=NULL_AUTH, verf=NULL_AUTH,
                 bufsize=UDPMSGSIZE, propagate_deadline=None):
        self.prog = prog
        self.vers = vers
        self.cred = cred
        self.verf = verf
        self.bufsize = bufsize
        #: opt-in deadline propagation (REPRO_DEADLINE_PROPAGATION):
        #: calls carrying a Deadline ride their remaining budget in an
        #: opaque cred so servers can drop doomed work.  Off → the cred
        #: stays NULL_AUTH and the wire is byte-identical.
        self.propagate_deadline = propagation_enabled(propagate_deadline)
        start = struct.unpack(">I", os.urandom(4))[0]
        self._xids = itertools.count(start)
        #: optional (encode_fn, decode_fn) overrides per proc number —
        #: body-only marshaling overrides.
        self._marshalers = {}
        #: optional whole-message codecs per proc number — installed by
        #: the specialization pipeline (the residual code marshals the
        #: call header too, as the paper's specialized clntudp_call does).
        self._codecs = {}

    # -- marshaling plug points ------------------------------------------

    def install_marshaler(self, proc, encode_fn=None, decode_fn=None):
        """Override marshaling for ``proc``.

        ``encode_fn(stream, args)`` writes the arguments; ``decode_fn
        (stream)`` reads the results.  Either may be None to keep the
        generic path.
        """
        self._marshalers[proc] = (encode_fn, decode_fn)

    def install_codec(self, proc, build_request, parse_reply):
        """Override the *whole message* for ``proc``.

        ``build_request(xid, args) -> bytes`` serializes the complete
        call message (header included); ``parse_reply(data, xid) ->
        (matched, value)`` validates and decodes a complete reply.
        """
        self._codecs[proc] = (build_request, parse_reply)

    def _encode_body(self, stream, proc, args, xdr_args):
        override = self._marshalers.get(proc)
        if override is not None and override[0] is not None:
            override[0](stream, args)
        elif xdr_args is not None:
            xdr_args(stream, args)
        return stream.pos

    def next_xid(self):
        return next(self._xids) & 0xFFFFFFFF

    def build_call(self, xid, proc, args, xdr_args):
        """Serialize a complete call message; returns the bytes."""
        codec = self._codecs.get(proc)
        if codec is not None:
            return codec[0](xid, args)
        buffer = bytearray(self.bufsize)
        stream = XdrMemStream(buffer, XdrOp.ENCODE)
        header = CallHeader(xid, self.prog, self.vers, proc, self.cred,
                            self.verf)
        encode_call_header(stream, header)
        self._encode_body(stream, proc, args, xdr_args)
        return stream.data()

    def build_call_deadline(self, xid, proc, args, xdr_args, deadline):
        """Serialize a call carrying ``deadline``'s remaining budget in
        the opaque deadline cred (:mod:`repro.rpc.overload`).

        Deliberately bypasses the whole-message codecs — those are
        specialized for the constant NULL-cred shape — and returns a mutable ``bytearray`` so the transports
        can re-stamp a shrunken budget into retransmissions with
        :func:`~repro.rpc.overload.stamp_deadline`.
        """
        buffer = bytearray(self.bufsize)
        stream = XdrMemStream(buffer, XdrOp.ENCODE)
        header = CallHeader(xid, self.prog, self.vers, proc,
                            make_deadline_cred(deadline), self.verf)
        encode_call_header(stream, header)
        length = self._encode_body(stream, proc, args, xdr_args)
        del buffer[length:]
        return buffer

    def parse_reply(self, data, xid, proc, xdr_res):
        """Validate a reply message and decode the results.

        ``data`` may be ``bytes``, ``bytearray``, or a ``memoryview``
        over the received datagram — decoding never copies it.
        Returns ``(matched, value)``: ``matched`` is False when the xid
        belongs to a different (stale) call and the datagram should be
        ignored rather than failing the call.
        """
        codec = self._codecs.get(proc)
        if codec is not None:
            return codec[1](data, xid)
        stream = XdrMemStream(data, XdrOp.DECODE)
        reply = decode_reply_header(stream)
        if reply.xid != xid:
            return False, None
        raise_for_reply(reply)
        override = self._marshalers.get(proc)
        if override is not None and override[1] is not None:
            return True, override[1](stream)
        if xdr_res is not None:
            return True, xdr_res(stream, None)
        return True, None

    # -- the public call surface ---------------------------------------------

    def call(self, proc, args=None, xdr_args=None, xdr_res=None):
        """Perform one remote procedure call; transport-specific."""
        raise NotImplementedError

    def null_call(self):
        """Procedure 0 — the RPC ping."""
        return self.call(0)

    def close(self):
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


def decode_reply_or_raise(data, xid, xdr_res):
    """One-shot reply decode used by tests and the portmapper client.

    Decodes ``data`` (bytes-like) in place, without copying.
    """
    stream = XdrMemStream(data, XdrOp.DECODE)
    reply = decode_reply_header(stream)
    if reply.xid != xid:
        raise RpcProtocolError(f"xid mismatch: {reply.xid} != {xid}")
    raise_for_reply(reply)
    return xdr_res(stream, None) if xdr_res is not None else None
