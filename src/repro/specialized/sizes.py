"""Wire-size computation for the expected-length invariants.

The paper computes ``expected_inlen`` "with a dummy encoding-call to the
generic encoding/decoding function" (§6.2).  This module does the same
arithmetic directly from the IDL: the XDR encoding of the MiniC-subset
types is fully determined by the declared shapes plus the assumed
bounded-array lengths.
"""

from repro.errors import IdlError
from repro.rpcgen import idl_ast as idl

#: RPC call header: xid, mtype, rpcvers, prog, vers, proc + two null
#: auth areas (flavor+length each) = 10 XDR units.
CALL_HEADER_BYTES = 10 * 4

#: Accepted SUCCESS reply header: xid, mtype, reply_stat, verf flavor,
#: verf length, accept_stat = 6 XDR units.
REPLY_HEADER_BYTES = 6 * 4


def struct_encoded_size(interface, struct, lens):
    """Encoded byte size of ``struct`` given bounded-array lengths.

    ``lens`` maps bounded-array field name to its assumed element count.
    """
    total = 0
    for field in struct.fields:
        resolved = interface.resolve(field.type)
        if isinstance(resolved, idl.Prim):
            if resolved.name in ("int", "u_int", "bool"):
                total += 4
            elif resolved.name in ("hyper", "u_hyper", "double"):
                total += 8
            elif resolved.name == "float":
                total += 4
            else:
                raise IdlError(f"unsized primitive {resolved.name!r}")
        elif isinstance(resolved, idl.FixedArray):
            total += 4 * resolved.size
        elif isinstance(resolved, idl.VarArray):
            if field.name not in lens:
                raise IdlError(
                    f"no assumed length for bounded array"
                    f" {struct.name}.{field.name}"
                )
            total += 4 + 4 * lens[field.name]
        elif isinstance(resolved, idl.Named):
            nested = interface.struct(resolved.name)
            total += struct_encoded_size(interface, nested, {})
        else:
            raise IdlError(f"unsized type {resolved!r}")
    return total


def request_size(interface, arg_struct, lens):
    """Total call-message size for an argument struct."""
    return CALL_HEADER_BYTES + struct_encoded_size(interface, arg_struct,
                                                   lens)


def reply_size(interface, ret_struct, lens):
    """Total success-reply size for a result struct."""
    return REPLY_HEADER_BYTES + struct_encoded_size(interface, ret_struct,
                                                    lens)


def message_sizes(interface, arg_struct, ret_struct, arg_lens, res_lens):
    """``(request_size, reply_size)`` for one procedure's invariants.

    The request size keys the server route a specialization installs;
    the reply size is what the client codec's residual decoder expects.
    """
    return (
        request_size(interface, arg_struct, arg_lens),
        reply_size(interface, ret_struct, res_lens),
    )
