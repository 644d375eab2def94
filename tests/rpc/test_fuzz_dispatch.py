"""Structured fuzzing of the decode surfaces (hypothesis).

``tests/rpc/test_robustness.py`` throws random bytes at the server;
random bytes almost never get past the header decoder, so this file
fuzzes *structured* garbage — valid RPC v2 call headers carrying
mutated auth areas, argument bodies, and string payloads — plus the
TCP record layer and the client's reply-header decoder.  The contract
everywhere: any input either produces a well-formed reply/value or
raises inside the :class:`~repro.errors.RpcError` hierarchy (``None``
== dropped); nothing ever leaks ``struct.error``, ``UnicodeDecodeError``,
``ValueError``, ``MemoryError``, ...

Two regression cases pin leaks this fuzz originally found:

* a valid call whose string argument is invalid UTF-8 leaked
  ``UnicodeDecodeError`` out of ``dispatch_bytes`` (now GARBAGE_ARGS);
* a denied reply with an out-of-range ``auth_stat`` leaked
  ``ValueError`` from the enum constructor (now RpcProtocolError).
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RpcError, XdrError
from repro.rpc.client import RpcClient
from repro.rpc.message import (
    CallHeader,
    MsgType,
    ReplyStat,
    decode_reply_header,
    encode_call_header,
)
from repro.rpc.record import read_record, write_record
from repro.rpc.server import SvcRegistry
from repro.xdr import XdrMemStream, XdrOp, xdr_string, xdr_u_long

PROG, VERS = 0x20005555, 1


def make_registry(staged=False, drc=False):
    """The fuzz target; ``staged`` routes both procedures through
    residual routes built from their XDR filters."""
    registry = SvcRegistry(drc=drc)
    registry.register(PROG, VERS, 1, lambda v: (v or 0) + 1,
                      xdr_args=xdr_u_long, xdr_res=xdr_u_long)
    registry.register(PROG, VERS, 2, lambda s: s.upper(),
                      xdr_args=lambda st_, v: xdr_string(st_, v, 256),
                      xdr_res=lambda st_, v: xdr_string(st_, v, 256))
    if staged:
        registry.stage_route(PROG, VERS, 1)
        registry.stage_route(PROG, VERS, 2)
    return registry


def valid_header(xid=7, proc=1):
    stream = XdrMemStream(bytearray(512), XdrOp.ENCODE)
    encode_call_header(stream, CallHeader(xid, PROG, VERS, proc))
    return bytearray(stream.data())


def assert_dispatch_contained(registry, data, caller=None):
    try:
        reply = registry.dispatch_bytes(data, caller=caller)
    except RpcError:
        return None
    assert reply is None or isinstance(reply, bytes)
    return reply


class TestDispatchFuzz:
    @settings(max_examples=120, deadline=None)
    @given(body=st.binary(max_size=64), proc=st.integers(0, 3),
           staged=st.booleans())
    def test_valid_header_arbitrary_body(self, body, proc, staged):
        registry = make_registry(staged=staged)
        data = valid_header(proc=proc) + body
        assert_dispatch_contained(registry, data,
                                  caller=("fuzz", 1))

    @settings(max_examples=120, deadline=None)
    @given(
        mutation=st.lists(
            st.tuples(st.integers(0, 120), st.integers(0, 255)),
            min_size=1, max_size=8,
        ),
        proc=st.integers(0, 3),
    )
    def test_mutated_headers_never_crash(self, mutation, proc):
        registry = make_registry()
        stream = XdrMemStream(bytearray(512), XdrOp.ENCODE)
        encode_call_header(stream, CallHeader(9, PROG, VERS, proc))
        xdr_u_long(stream, 5)
        data = bytearray(stream.data())
        for offset, value in mutation:
            if offset < len(data):
                data[offset] = value
        assert_dispatch_contained(registry, bytes(data),
                                  caller=("fuzz", 2))

    @settings(max_examples=80, deadline=None)
    @given(payload=st.binary(max_size=64), cut=st.integers(0, 80))
    def test_truncated_string_calls(self, payload, cut):
        registry = make_registry(staged=True)
        data = valid_header(proc=2) + payload
        assert_dispatch_contained(registry, bytes(data[:cut]))

    def test_regression_invalid_utf8_string_is_garbage_args(self):
        # xdr_string decodes UTF-8; a length-prefixed burst of 0xFF
        # used to leak UnicodeDecodeError out of dispatch_bytes.
        registry = make_registry()
        bad = struct.pack(">I", 4) + b"\xff\xff\xff\xff"
        data = valid_header(proc=2) + bad
        reply = registry.dispatch_bytes(bytes(data))
        assert isinstance(reply, bytes)
        assert registry.decode_defended >= 1

    def test_drc_path_contained_under_fuzz(self):
        registry = make_registry(drc=True)
        caller = ("10.9.9.9", 4242)
        data = valid_header(proc=2) + struct.pack(">I", 4) + b"\xff" * 4
        first = registry.dispatch_bytes(bytes(data), caller=caller)
        again = registry.dispatch_bytes(bytes(data), caller=caller)
        # GARBAGE_ARGS replies are not handler products; both attempts
        # must answer identically without crashing.
        assert first == again or again is not None


class _ScriptedSocket:
    """A socket stand-in replaying a fixed byte stream to recv()."""

    def __init__(self, data, chunk=7):
        self._data = bytes(data)
        self._offset = 0
        self.chunk = chunk
        self.sent = bytearray()

    def recv(self, size):
        take = min(size, self.chunk, len(self._data) - self._offset)
        data = self._data[self._offset:self._offset + take]
        self._offset += take
        return data

    def sendall(self, data):
        self.sent.extend(data)


class TestRecordLayerFuzz:
    @settings(max_examples=120, deadline=None)
    @given(stream=st.binary(max_size=128),
           chunk=st.integers(1, 16))
    def test_arbitrary_streams_never_crash(self, stream, chunk):
        sock = _ScriptedSocket(stream, chunk=chunk)
        try:
            record = read_record(sock, max_size=1 << 16)
        except RpcError:
            return
        assert isinstance(record, bytes)

    @settings(max_examples=80, deadline=None)
    @given(payload=st.binary(max_size=200),
           fragment_size=st.integers(1, 64),
           chunk=st.integers(1, 16))
    def test_write_read_round_trip(self, payload, fragment_size, chunk):
        writer = _ScriptedSocket(b"")
        write_record(writer, payload, fragment_size=fragment_size)
        reader = _ScriptedSocket(bytes(writer.sent), chunk=chunk)
        assert read_record(reader) == payload

    @settings(max_examples=60, deadline=None)
    @given(header=st.integers(0, 2**32 - 1), tail=st.binary(max_size=32))
    def test_hostile_fragment_headers(self, header, tail):
        sock = _ScriptedSocket(struct.pack(">I", header) + tail)
        try:
            read_record(sock, max_size=1 << 12)
        except RpcError:
            pass


class TestReplyDecodeFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.binary(max_size=96))
    def test_arbitrary_reply_bytes(self, data):
        # XdrError (truncation) is part of the typed contract here: the
        # transports classify it as a garbage datagram and keep going.
        stream = XdrMemStream(bytearray(data), XdrOp.DECODE)
        try:
            decode_reply_header(stream)
        except (RpcError, XdrError):
            pass

    @settings(max_examples=80, deadline=None)
    @given(reject_stat=st.integers(0, 6),
           detail=st.integers(0, 2**31 - 1))
    def test_denied_replies_with_wild_details(self, reject_stat, detail):
        stream = XdrMemStream(bytearray(64), XdrOp.ENCODE)
        xdr_u_long(stream, 1234)            # xid
        xdr_u_long(stream, MsgType.REPLY)
        xdr_u_long(stream, ReplyStat.MSG_DENIED)
        xdr_u_long(stream, reject_stat)
        xdr_u_long(stream, detail)
        xdr_u_long(stream, detail)
        decode = XdrMemStream(bytearray(stream.data()), XdrOp.DECODE)
        try:
            decode_reply_header(decode)
        except RpcError:
            pass

    def test_regression_bad_auth_stat_is_protocol_error(self):
        # AUTH_ERROR with auth_stat=99 used to leak ValueError from the
        # AuthStat enum constructor.
        from repro.errors import RpcProtocolError
        from repro.rpc.message import RejectStat

        stream = XdrMemStream(bytearray(64), XdrOp.ENCODE)
        xdr_u_long(stream, 77)
        xdr_u_long(stream, MsgType.REPLY)
        xdr_u_long(stream, ReplyStat.MSG_DENIED)
        xdr_u_long(stream, RejectStat.AUTH_ERROR)
        xdr_u_long(stream, 99)
        decode = XdrMemStream(bytearray(stream.data()), XdrOp.DECODE)
        with pytest.raises(RpcProtocolError):
            decode_reply_header(decode)

    @settings(max_examples=80, deadline=None)
    @given(data=st.binary(max_size=96))
    def test_client_parse_reply_is_contained(self, data):
        client = RpcClient(PROG, VERS)
        try:
            matched, value = client.parse_reply(data, 1, 1, xdr_u_long)
        except (RpcError, XdrError):
            return
        assert matched in (True, False)
