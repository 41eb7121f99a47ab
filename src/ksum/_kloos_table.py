"""Every Kloosterman counting row of a field at once, on packed integers.

`count_table` is the whole-field engine behind `kloos._count_table`; it is
imported only when a sweep builds the table, so one-witness commands do not
compile it.  The transform holds one Python int per trace value s (a
"plane"), with a `W`-bit count field per element index, and its table is
certified by the second and fourth Kloosterman moments before it is used.
"""

from __future__ import annotations

import operator
import sys
from array import array
from collections import Counter, deque
from functools import reduce

from .ff import MAX_TABLE_Q, FieldCtx, InternalCheckError

W = 32                                 # bits of one packed count
assert MAX_TABLE_Q < 1 << W, "a count of the largest table must fit one packed field"
HELD = 8                               # bounds a pass of `planes` to 8p parts in memory
_TYPECODE = next(c for c in "IL" if array(c).itemsize == W // 8)


def planes(ctx: FieldCtx) -> list[int]:
    """Every counting row, packed: plane s holds in its `W`-bit field a the
    number of x with Tr(1/x + a*x) = s.

    With y(x) = (Tr(x * w^i))_i, w^i the basis monomials, the coordinates of
    x in the dual basis of the trace form, y runs once over F_p^n and
    Tr(a*x) = a . y.  So the row of a counts the y with h(y) + a . y = s,
    h(y) = Tr(1/x): a Fourier transform over F_p^n of the one-hot planes
    [h(y) = s].  Pass i transforms digit i of the field index in place: part
    x of a plane is its fields of digit i = x, masked at digit 0, and digit b
    of plane s sums the parts x of planes s - b*x.  A pass is p^2 shifts and
    masks and p^3 additions on (W*q)-bit integers; it holds the parts of at
    most `HELD` values of x at a time.
    """
    p, n, q = ctx.p, ctx.n, ctx.q
    t = ctx.tables
    try:                               # a negative trace, or a y outside the field
        traces = array(_TYPECODE, t.trace_by_log2)     # Tr(g^k) at k and k + q-1
        y = 0                          # field k: the index of y(g^k)
        for i in reversed(range(n)):   # w^i has element index p^i
            start = t.log[p ** i]
            y = y * p + _pack(traces[start:start + q - 1])
        h = array(_TYPECODE, [p]) * q  # h(y) = p: y not reached yet
        h[0] = 0                       # x = 0 has y = 0 and Tr(1/0) = 0
        deque(map(h.__setitem__, _unpack(y, q - 1), traces[q - 1:0:-1]), 0)  # Tr(g^-k)
    except (OverflowError, IndexError):
        raise InternalCheckError("dual coordinates do not cover the field") from None
    if p in h:
        raise InternalCheckError("dual coordinates do not cover the field")
    bits = W * q
    ones = _repeat(1, W, bits)         # 1 in every field
    h = _pack(h)
    digits = [(h >> j) & ones for j in range(p.bit_length())]
    out = [reduce(operator.and_, [d if s >> j & 1 else d ^ ones for j, d in enumerate(digits)])
           for s in range(p)]          # field y of plane s: [h(y) = s], bit by bit
    for i in range(n):
        span = W * p ** i              # the bits of one run of equal digit i
        mask = _repeat((1 << span) - 1, span * p, bits)
        for lo in range(0, p, HELD):   # the parts of HELD values of x at a time
            xs = range(lo, min(lo + HELD, p))
            parts = [[(c >> x * span) & mask for x in xs] for c in out]
            sums = [reduce(operator.or_, [
                reduce(operator.add, [parts[(s - b * x) % p][x - lo] for x in xs]) << b * span
                for b in range(p)]) for s in range(p)]
            new = sums if lo == 0 else list(map(operator.add, new, sums))
        out = new
    return out


def _repeat(block: int, period: int, bits: int) -> int:
    """block repeated every `period` bits below bit `bits`, by doubling."""
    while period < bits:
        block |= block << period
        period *= 2
    return block & ((1 << bits) - 1)


def _pack(column: array) -> int:
    """The int whose `W`-bit field j holds column[j]."""
    if sys.byteorder == "big":
        column = array(_TYPECODE, column)
        column.byteswap()
    return int.from_bytes(column, "little")


def _unpack(packed: int, size: int) -> array:
    """The first `size` fields of packed, as an array; the inverse of `_pack`."""
    if packed < 0 or packed.bit_length() > W * size:
        raise InternalCheckError("a packed count overflows the table")
    column = array(_TYPECODE)
    column.frombytes(packed.to_bytes(W // 8 * size, "little"))
    if sys.byteorder == "big":
        column.byteswap()
    return column


def count_table(ctx: FieldCtx) -> list[tuple[int, ...]]:
    """Every counting row of the field, in element-index order, from `planes`.

    Equal rows are one shared tuple; the distinct rows must each sum to q and,
    weighted by their multiplicities, pass `check_moments`.  Counting the
    shared tuples afterwards costs less than counting inside the interning
    loop, which would run in Python rather than in `Counter`.
    """
    q = ctx.q
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    rows = [shared.setdefault(r, r) for r in zip(*[_unpack(c, q) for c in planes(ctx)])]
    classes = Counter(rows)            # shared tuple -> multiplicity
    if any(sum(r) != q for r in classes):
        raise InternalCheckError("trace counts do not cover the field")
    check_moments(ctx.p, q, rows[0], classes.items())
    return rows


def check_moments(p: int, q: int, zero_row: tuple[int, ...], classes) -> None:
    """Raise InternalCheckError unless the (row, multiplicity) classes give
    sum Kl^2 = q^2 - q - 1 and sum Kl^4 = 2q^3 - 3q^2 - 3q - 1 over a != 0,
    Kl(a) = K(a) - 1 (Salie, Math. Z. 34, for prime q; they hold for odd q).

    A row packs into p fields of `wide` bits, and a product folded mod
    2^(wide*p) - 1 has the coordinates in powers of zeta as its fields.  The
    rows sum to q, so no field of the sums reaches (q-1)^5 < 2^wide.
    """
    wide = 5 * q.bit_length()
    bits = wide * p
    fold = (1 << bits) - 1
    shifts = range(0, bits, wide)
    sum2 = sum4 = 0
    for row, mult in classes:
        if row is zero_row:
            mult -= 1                  # a = 0 is not summed
        kl = sum(map(operator.lshift, row, shifts)) - 1
        kl2 = kl * kl
        kl2 = (kl2 & fold) + (kl2 >> bits)
        kl4 = kl2 * kl2
        sum2 += mult * kl2
        sum4 += mult * ((kl4 & fold) + (kl4 >> bits))
    field = (1 << wide) - 1
    for name, got, want in (("2", sum2, q * q - q - 1),
                            ("4", sum4, 2 * q ** 3 - 3 * q * q - 3 * q - 1)):
        coords = [(got >> wide * t) & field for t in range(p)]
        if coords[1:] != coords[1:2] * (p - 1) or coords[0] - coords[1] != want:
            raise InternalCheckError(f"Kloosterman moment {name} of the table is off")
