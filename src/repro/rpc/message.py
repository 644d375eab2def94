"""RPC message headers (RFC 1057 §8).

The call header is the ten 4-byte units the paper's Figure 1 marshals
before the user arguments: xid, CALL, RPC version 2, program, version,
procedure, then the credential and verifier auth areas.
"""

import enum
import struct
from dataclasses import dataclass

from repro.errors import RpcDeniedError, RpcProtocolError
from repro.rpc.auth import NULL_AUTH, OpaqueAuth, xdr_opaque_auth
from repro.xdr import xdr_u_long

RPC_VERSION = 2


class MsgType(enum.IntEnum):
    CALL = 0
    REPLY = 1


class ReplyStat(enum.IntEnum):
    MSG_ACCEPTED = 0
    MSG_DENIED = 1


class AcceptStat(enum.IntEnum):
    SUCCESS = 0
    PROG_UNAVAIL = 1
    PROG_MISMATCH = 2
    PROC_UNAVAIL = 3
    GARBAGE_ARGS = 4
    SYSTEM_ERR = 5


class RejectStat(enum.IntEnum):
    RPC_MISMATCH = 0
    AUTH_ERROR = 1


class AuthStat(enum.IntEnum):
    AUTH_BADCRED = 1
    AUTH_REJECTEDCRED = 2
    AUTH_BADVERF = 3
    AUTH_REJECTEDVERF = 4
    AUTH_TOOWEAK = 5


@dataclass(frozen=True)
class CallHeader:
    """Everything before the procedure arguments in a call message."""

    xid: int
    prog: int
    vers: int
    proc: int
    cred: OpaqueAuth = NULL_AUTH
    verf: OpaqueAuth = NULL_AUTH


@dataclass(frozen=True)
class AcceptedReply:
    xid: int
    verf: OpaqueAuth
    stat: AcceptStat
    #: (low, high) for PROG_MISMATCH, else None
    mismatch: tuple = None


@dataclass(frozen=True)
class DeniedReply:
    xid: int
    stat: RejectStat
    #: (low, high) for RPC_MISMATCH; AuthStat for AUTH_ERROR
    detail: object = None


def encode_call_header(xdrs, header):
    """Marshal a call header into an ENCODE stream."""
    xdr_u_long(xdrs, header.xid)
    xdr_u_long(xdrs, MsgType.CALL)
    xdr_u_long(xdrs, RPC_VERSION)
    xdr_u_long(xdrs, header.prog)
    xdr_u_long(xdrs, header.vers)
    xdr_u_long(xdrs, header.proc)
    xdr_opaque_auth(xdrs, header.cred)
    xdr_opaque_auth(xdrs, header.verf)
    return header


def decode_call_header(xdrs):
    """Unmarshal a call header from a DECODE stream."""
    xid = xdr_u_long(xdrs, None)
    mtype = xdr_u_long(xdrs, None)
    if mtype != MsgType.CALL:
        raise RpcProtocolError(f"expected CALL message, got type {mtype}")
    rpcvers = xdr_u_long(xdrs, None)
    if rpcvers != RPC_VERSION:
        raise RpcProtocolError(f"bad RPC version {rpcvers}")
    prog = xdr_u_long(xdrs, None)
    vers = xdr_u_long(xdrs, None)
    proc = xdr_u_long(xdrs, None)
    cred = xdr_opaque_auth(xdrs, None)
    verf = xdr_opaque_auth(xdrs, None)
    return CallHeader(xid, prog, vers, proc, cred, verf)


def encode_accepted_reply(xdrs, xid, stat, verf=NULL_AUTH, mismatch=None):
    """Marshal an accepted-reply header (results follow for SUCCESS)."""
    xdr_u_long(xdrs, xid)
    xdr_u_long(xdrs, MsgType.REPLY)
    xdr_u_long(xdrs, ReplyStat.MSG_ACCEPTED)
    xdr_opaque_auth(xdrs, verf)
    xdr_u_long(xdrs, stat)
    if stat == AcceptStat.PROG_MISMATCH:
        low, high = mismatch
        xdr_u_long(xdrs, low)
        xdr_u_long(xdrs, high)


def accepted_reply_tail(stat=AcceptStat.SUCCESS):
    """The bytes of a null-verifier accepted-reply header after the
    xid — constant for a given ``stat``, so residual routes prepend the
    xid instead of encoding the header (and reply checks compare
    ``reply[4:24]`` against it)."""
    return struct.pack(">5I", MsgType.REPLY, ReplyStat.MSG_ACCEPTED,
                       NULL_AUTH.flavor, 0, stat)


def encode_denied_reply(xdrs, xid, stat, detail):
    xdr_u_long(xdrs, xid)
    xdr_u_long(xdrs, MsgType.REPLY)
    xdr_u_long(xdrs, ReplyStat.MSG_DENIED)
    xdr_u_long(xdrs, stat)
    if stat == RejectStat.RPC_MISMATCH:
        low, high = detail
        xdr_u_long(xdrs, low)
        xdr_u_long(xdrs, high)
    else:
        xdr_u_long(xdrs, int(detail))


def decode_reply_header(xdrs):
    """Unmarshal a reply header; returns AcceptedReply or DeniedReply.

    For ``AcceptedReply(stat=SUCCESS)`` the stream is positioned at the
    results.
    """
    xid = xdr_u_long(xdrs, None)
    mtype = xdr_u_long(xdrs, None)
    if mtype != MsgType.REPLY:
        raise RpcProtocolError(f"expected REPLY message, got type {mtype}")
    reply_stat = xdr_u_long(xdrs, None)
    if reply_stat == ReplyStat.MSG_ACCEPTED:
        verf = xdr_opaque_auth(xdrs, None)
        stat = xdr_u_long(xdrs, None)
        try:
            stat = AcceptStat(stat)
        except ValueError:
            raise RpcProtocolError(f"bad accept_stat {stat}") from None
        mismatch = None
        if stat == AcceptStat.PROG_MISMATCH:
            mismatch = (xdr_u_long(xdrs, None), xdr_u_long(xdrs, None))
        return AcceptedReply(xid, verf, stat, mismatch)
    if reply_stat == ReplyStat.MSG_DENIED:
        stat = xdr_u_long(xdrs, None)
        try:
            stat = RejectStat(stat)
        except ValueError:
            raise RpcProtocolError(f"bad reject_stat {stat}") from None
        if stat == RejectStat.RPC_MISMATCH:
            detail = (xdr_u_long(xdrs, None), xdr_u_long(xdrs, None))
        else:
            detail = xdr_u_long(xdrs, None)
            try:
                detail = AuthStat(detail)
            except ValueError:
                raise RpcProtocolError(
                    f"bad auth_stat {detail}"
                ) from None
        return DeniedReply(xid, stat, detail)
    raise RpcProtocolError(f"bad reply_stat {reply_stat}")


def raise_for_reply(reply):
    """Turn a non-SUCCESS reply into the right exception."""
    if isinstance(reply, DeniedReply):
        raise RpcDeniedError(
            f"call denied: {reply.stat.name}, detail={reply.detail!r}"
        )
    if reply.stat != AcceptStat.SUCCESS:
        raise RpcDeniedError(f"call failed: {reply.stat.name}")
    return reply
