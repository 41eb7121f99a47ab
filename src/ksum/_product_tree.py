"""prod (x - r) over roots r in Z[zeta_p], as one product tree on packed
integers: the engine of `cyclo.product_linear`, loaded on its first call,
so that a run which expands no polynomial does not compile it.

A polynomial in x over Z[zeta]/(zeta^p - 1) is one int with a block of 2p signed w-bit
slots per power of x, the low p slots holding the coefficients of
zeta^0 .. zeta^(p-1).  Factors are multiplied in pairs, so the operands
stay balanced, and every product is folded mod zeta^p - 1: with
2^(w-1) added to each slot, the high p slots of each block are masked
out, shifted down and added to the low ones, and twice the offset of
the low slots is taken off.  The L1 norm is submultiplicative and the
coefficients of x^k in any partial product sum to at most
T = prod (1 + |r|_1) in L1 norm, so no slot, folded or not, passes T.
One `to_bytes` decodes the result, where the offsets cancel in each
coordinate, the slot of zeta^s minus that of zeta^(p-1).
"""

from __future__ import annotations

from typing import Sequence

from .cyclo import CycInt, IntPolynomial, NonRationalCoefficient, _reduce


def slot_bytes(bound: int) -> int:
    """Bytes per slot when every slot value lies in [-bound, bound]: two bits
    above bound, so that a value plus the offset 2^(w-1) fits in w bits."""
    return (bound.bit_length() + 9) // 8


def expand(roots: Sequence[CycInt]) -> IntPolynomial:
    """prod (x - r) with Z coefficients, or NonRationalCoefficient at the
    first coefficient outside Z."""
    if not roots:
        return IntPolynomial((1,))
    p = roots[0].p
    bound = 1
    for r in roots:
        if r.p != p:
            raise ValueError(f"mixed cyclotomic orders {r.p} and {p}")
        bound *= 1 + sum(map(abs, r.coords))
    size = slot_bytes(bound)
    span = size * p                            # bytes of p slots, half a block
    half = 1 << 8 * size - 1
    offset = half.to_bytes(size, "little")
    low = b"\xff" * span + bytes(span)
    lead = (1 << 16 * span) - int.from_bytes(offset * (p - 1), "little")
    level = [(1, int.from_bytes(b"".join((half - c).to_bytes(size, "little")
                                         for c in r.coords), "little") + lead)
             for r in roots]                  # x - r: -r in block 0, 1 in block 1
    while len(level) > 1:
        paired = []
        for (da, a), (db, b) in zip(level[::2], level[1::2]):
            bias = int.from_bytes(offset * (2 * p * (da + db + 1)), "little")
            keep = int.from_bytes(low * (da + db + 1), "little")
            v = a * b + bias
            paired.append((da + db, (v & keep) + (v >> 8 * span & keep) - (bias & keep) * 2))
        level = paired + level[len(paired) * 2:]
    degree, v = level[0]
    v += int.from_bytes(offset * (2 * p * (degree + 1)), "little")
    data = v.to_bytes(2 * span * (degree + 1), "little")
    out = []
    for idx in range(degree + 1):
        slots = data[2 * span * idx:2 * span * idx + span]
        top = slots[-size:]
        if slots[size:] != top * (p - 1):
            buckets = [int.from_bytes(slots[i:i + size], "little") for i in range(0, span, size)]
            raise NonRationalCoefficient(idx, CycInt(p, _reduce(p, buckets)))
        out.append(int.from_bytes(slots[:size], "little") - int.from_bytes(top, "little"))
    return IntPolynomial(tuple(out))
