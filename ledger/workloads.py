"""What the layer-ledger benchmark sends, and what a correct reply is.

The interface is the paper's §5 test program: one procedure that takes
an ``int`` array and returns it with every element incremented, so each
reply is checkable value for value.  ``tiny_pipelined`` uses a separate
one-``u_long`` increment program to make per-message costs dominate.

Inputs are generated here from the run's seed only; the program under
test receives nothing but the generated arguments.
"""

import math
import random

#: the paper's exchange program (same numbers as the repo's workload)
PROG, VERS, SENDRECV = 0x20000321, 1, 1
MAXN = 2000

IDL = f"""
const MAXN = {MAXN};

struct intarr {{
    int vals<MAXN>;
}};

program XCHG_PROG {{
    version XCHG_VERS {{
        intarr SENDRECV(intarr) = 1;
    }} = {VERS};
}} = {PROG};
"""

#: the residual server's procedure body (MiniC); the generic fallback
#: runs the same contract in Python (:func:`increment_all`)
IMPL = """
void sendrecv_impl(struct intarr *args, struct intarr *res)
{
    int i;
    res->vals_len = args->vals_len;
    for (i = 0; i < args->vals_len; i++)
        res->vals[i] = args->vals[i] + 1;
}
"""

#: the array length the offline specializations are built for
SPEC_N = 250

#: the one-word increment program of ``tiny_pipelined``
TINY_PROG, TINY_VERS, TINY_INC = 0x20009999, 1, 1
#: in-flight calls kept by the ``tiny_pipelined`` sliding window
WINDOW = 16

#: per-call deadline on the ``xchg*`` workloads (propagated on the wire)
DEADLINE_S = 1.0

#: distinct pre-generated inputs per run; calls cycle through them
POOL = 256

WORKLOADS = {
    "xchg250_spec": "serial SENDRECV(int[250]), residual codecs on client"
                    " and server",
    "xchg_mixed": "serial SENDRECV(int[1..2000]) from a generic client"
                  " against the specialized server",
    "tiny_pipelined": "16 in-flight one-u_long increments over one"
                      " MuxUdpClient against an event-loop MuxUdpServer",
}

#: element values stay clear of int32 overflow so ``v + 1`` is exact
_VALUE_LIMIT = 1 << 30


def increment_all(vals):
    """The exchange procedure's contract."""
    return [v + 1 for v in vals]


def increment(value):
    """The ``tiny_pipelined`` procedure's contract."""
    return (value + 1) & 0xFFFFFFFF


def mixed_sizes(rng):
    """``POOL`` element counts, log-uniform over 1..MAXN, in seeded
    order.

    Stratified: one draw from each of ``POOL`` equal-probability
    strata, so every seed carries the same size mix and only the
    order and the exact values change.  Plain independent draws would
    let the mix, and with it every rate, vary from seed to seed.
    """
    top = math.log(MAXN + 1)
    sizes = [min(MAXN, int(math.exp((k + rng.random()) / POOL * top)))
             for k in range(POOL)]
    rng.shuffle(sizes)
    return sizes


def array_inputs(seed, workload):
    """``POOL`` (vals, expected) pairs for an ``xchg*`` workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "xchg250_spec":
        sizes = [SPEC_N] * POOL
    else:
        sizes = mixed_sizes(rng)
    inputs = []
    for n in sizes:
        vals = [rng.randrange(-_VALUE_LIMIT, _VALUE_LIMIT) for _ in range(n)]
        inputs.append((vals, increment_all(vals)))
    return inputs


def word_inputs(seed):
    """``POOL`` (value, expected) pairs for ``tiny_pipelined``."""
    rng = random.Random(f"tiny_pipelined:{seed}")
    inputs = []
    for _ in range(POOL):
        value = rng.getrandbits(32)
        inputs.append((value, increment(value)))
    return inputs


def size_histogram(sizes):
    """Calls per decade of element count (1-9, 10-99, ...), from a
    {element count: calls} map."""
    buckets = {}
    for n, calls in sizes.items():
        low = 10 ** int(math.log10(n))
        label = f"{low}-{min(low * 10 - 1, MAXN)}"
        buckets[label] = buckets.get(label, 0) + calls
    return dict(sorted(buckets.items(), key=lambda kv: int(kv[0].split("-")[0])))
