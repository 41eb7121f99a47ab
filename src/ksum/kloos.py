"""Kloosterman sums as exact cyclotomic integers, with congruence checks.

The sum over F_q of zeta^(Tr(1/x + a*x)) (with 1/0 read as 0) is computed
by counting how often each trace value occurs, so the result is exact and
the count vector doubles as a certificate.  A row of counts comes from one
of two engines: counting over the field at a single a, or, for a sweep of
the whole field, one Fourier transform over F_p^n that yields every row at
once (`_count_table`), on one big integer per trace value with a 32-bit
count field per element, certified by the second and fourth Kloosterman
moments (`ksum._kloos_table`, loaded only by whole-field sweeps).
`_counts_by_index` is the one accessor of both.  It caches one row: an
`--all` sweep reads a row more than once only at index 0, whose
conjugate family i^2 * 0 reads it (p-1)/2 times in a row.
Conjugates are obtained by re-summation at scaled arguments; the Galois
action on coordinates is kept as an independent cross-check rather than
the computation path.
"""

from __future__ import annotations

import operator
from collections import Counter
from functools import lru_cache, reduce
from typing import Optional

from ._value import Value
from .cyclo import CycInt, IntPolynomial, NonRationalCoefficient, product_linear
from .ff import FFElem, FieldCtx, InternalCheckError, build_subset, legendre, power_sum


class KloostermanValue(Value):
    """counts[t] = number of x with Tr(1/x + a*x) = t; value = sum of zeta^t."""

    __slots__ = ("counts", "value")

    def as_int(self) -> Optional[int]:
        return self.value.as_rational()


class MinPolyResult(Value):
    __slots__ = ("min_poly", "multiplicity", "char_poly")


class CongruenceReport(Value):
    """One verified relation; passed is True iff lhs equals rhs, except for
    the Weil bound, where it is True iff lhs <= rhs."""

    __slots__ = ("subject", "lhs", "rhs", "modulus", "passed", "witness")


@lru_cache(maxsize=1)
def _counts_by_index(ctx: FieldCtx, a_idx: int) -> tuple[int, ...]:
    """The counting row at element index a_idx: counts[t] = #{x : Tr(1/x + a*x) = t}.

    Read from the context's `count_rows` when a sweep has attached them,
    else counted over the field.  The cache keeps the last row only: the
    conjugate family of 0 reads row 0 once per conjugate, one read after
    another, and an `--all` sweep reads every other row at most once.  A
    `--sample` at p >= 5 that holds both a and c^2 a counts their rows again.
    """
    if ctx.count_rows is not None:
        return ctx.count_rows[a_idx]
    return _count_row(ctx, a_idx)


def _count_row(ctx: FieldCtx, a_idx: int) -> tuple[int, ...]:
    """One counting row, in one O(q) tally of the trace sums: the engine of
    one-witness scopes, and the oracle of `_count_table`.  A sum outside
    [0, 2p-2] is left out, so a corrupt trace table fails the cover check."""
    p, q = ctx.p, ctx.q
    t = ctx.tables
    tr = t.trace_by_log2
    counts = [0] * p
    counts[0] = 1                      # the x = 0 term contributes zeta^0
    if a_idx == 0:
        row = tr[:q - 1]               # Tr(1/x) takes the values of Tr(x)
    else:
        # x = g^-k: Tr(1/x) + Tr(a*x) = Tr(g^k) + Tr(g^(alpha-k))
        alpha = t.log[a_idx]
        row = list(map(operator.add, tr, tr[alpha + q - 1:alpha:-1]))
    for s, c in Counter(row).items():
        if 0 <= s < 2 * p - 1:
            counts[s % p] += c
    if sum(counts) != q:
        raise InternalCheckError("trace counts do not cover the field")
    return tuple(counts)


def _count_table(ctx: FieldCtx) -> list[tuple[int, ...]]:
    """Every counting row of the field, in element-index order, from one
    transform: see `ksum._kloos_table`, which only whole-field sweeps load."""
    from . import _kloos_table
    return _kloos_table.count_table(ctx)


def kloosterman(ctx: FieldCtx, a: FFElem) -> KloostermanValue:
    """The Kloosterman sum at a, exact in Z[zeta_p]."""
    counts = _counts_by_index(ctx, ctx.index(a))
    return KloostermanValue(counts, CycInt.from_power_counts(ctx.p, counts))


def conjugate_family(ctx: FieldCtx, a: FFElem) -> tuple[KloostermanValue, ...]:
    """Sums at i^2 * a for i = 1..(p-1)/2: the Galois orbit, by re-summation."""
    out = []
    for i in range(1, (ctx.p - 1) // 2 + 1):
        scaled = ctx.mul(a, ctx.from_int(i * i))
        out.append(kloosterman(ctx, scaled))
    return tuple(out)


def min_poly(ctx: FieldCtx, a: FFElem) -> MinPolyResult:
    """Minimal polynomial of K(a) over Q, with its multiplicity in the char poly.

    The conjugate family runs over the Galois orbit of K(a), each value
    repeated equally often; that repeat count is the multiplicity, and the
    char poly prod (x - K(i^2 a)) is the minimal polynomial to that power.

    The packed expansion is certified by an independent engine: the
    schoolbook product of the distinct conjugates, through `CycInt`
    multiplication, must equal (-1)^d * m(0) for d of them.
    """
    counts = Counter(kv.value for kv in conjugate_family(ctx, a))
    repeats = set(counts.values())
    if len(repeats) != 1:
        raise InternalCheckError(
            f"conjugates repeat unequally: {sorted(counts.values())}")
    mult = repeats.pop()
    try:
        m = product_linear(list(counts))
    except NonRationalCoefficient as e:
        raise InternalCheckError(str(e)) from e
    norm = reduce(operator.mul, counts)
    expect = (-1) ** m.degree * m.coeffs[0]
    if norm != CycInt.from_int(ctx.p, expect):
        raise InternalCheckError(
            f"the conjugate product {norm} is not (-1)^d * m(0) = {expect}")
    return MinPolyResult(m, mult, m ** mult)


def check_conjugate_product(ctx: FieldCtx, a: FFElem) -> CongruenceReport:
    """Product of the conjugate sums vs p * (Tr(a) | p), mod p^2.

    At p = 3 the product is K(a) alone and the law is the mod-9 law, which
    requires n > 1.
    """
    if ctx.p == 3 and ctx.n < 2:
        raise ValueError("conjugate-product check at p = 3 requires n > 1")
    family = conjugate_family(ctx, a)
    prod = reduce(operator.mul, [kv.value for kv in family])
    r = prod.as_rational()
    if r is None:
        raise InternalCheckError("conjugate product is not a rational integer")
    p2 = ctx.p ** 2
    lhs = r % p2
    rhs = (ctx.p * legendre(ctx.trace(a), ctx.p)) % p2
    return CongruenceReport("thm1", lhs, rhs, p2, lhs == rhs, a)


def _rational_value(ctx: FieldCtx, a: FFElem) -> int:
    v = kloosterman(ctx, a).as_int()
    if v is None:
        raise InternalCheckError("ternary Kloosterman sum is not rational")
    return v


def check_mod9(ctx: FieldCtx, a: FFElem) -> CongruenceReport:
    """K(a) vs 3 * Tr(a), mod 9; requires p = 3 and n > 1."""
    if ctx.p != 3:
        raise ValueError("mod-9 check requires p = 3")
    if ctx.n < 2:
        raise ValueError("mod-9 check requires n > 1")
    lhs = _rational_value(ctx, a) % 9
    rhs = (3 * ctx.trace(a)) % 9
    return CongruenceReport("mod9", lhs, rhs, 9, lhs == rhs, a)


# rows of the mod-27 classification: key is (trace, discriminating residue),
# where the discriminator is y + 2x for trace 0, y for trace 1, x + y for
# trace 2 (x, y the weight-2 and distinct-weight-3 power sums)
_TABLE27 = {
    (0, 0): 0, (1, 2): 3, (2, 2): 6,
    (0, 1): 9, (1, 0): 12, (2, 0): 15,
    (0, 2): 18, (1, 1): 21, (2, 1): 24,
}


def _table27(t: int, x: int, y: int) -> int:
    if t == 0:
        key = (y + 2 * x) % 3
    elif t == 1:
        key = y % 3
    else:
        key = (x + y) % 3
    return _TABLE27[(t, key)]


def check_mod27(ctx: FieldCtx, a: FFElem) -> CongruenceReport:
    """K(a) vs the closed form in trace and power sums, mod 27.

    Compares against both the polynomial form
    21*t^3 + 18*t + 18*x + 9*t*x + 9*y and the equivalent nine-row table;
    requires p = 3 and n >= 3.
    """
    if ctx.p != 3:
        raise ValueError("mod-27 check requires p = 3")
    if ctx.n < 3:
        raise ValueError("mod-27 check requires n >= 3")
    t = ctx.trace(a)
    x = power_sum(ctx, build_subset(ctx, "X"), a)
    y = power_sum(ctx, build_subset(ctx, "Y"), a)
    lhs = _rational_value(ctx, a) % 27
    rhs = (21 * t ** 3 + 18 * t + 18 * x + 9 * t * x + 9 * y) % 27
    passed = lhs == rhs and lhs == _table27(t, x, y)
    return CongruenceReport("mod27", lhs, rhs, 27, passed, a)


def check_min_poly_reduction(ctx: FieldCtx, a: FFElem) -> CongruenceReport:
    """Minimal polynomial reduces to a power of x mod p."""
    m = min_poly(ctx, a).min_poly
    lhs = m.mod_coeffs(ctx.p)
    rhs = IntPolynomial.x_power(m.degree).coeffs
    return CongruenceReport("moisio", lhs, rhs, ctx.p, lhs == rhs, a)


def check_min_poly_degree(ctx: FieldCtx, a: FFElem) -> CongruenceReport:
    """Nonzero trace forces a full orbit: degree (p-1)/2, multiplicity 1.

    Vacuously passing when Tr(a) = 0, where no claim is made.
    """
    res = min_poly(ctx, a)
    lhs = (res.min_poly.degree, res.multiplicity)
    if ctx.trace(a) == 0:
        rhs = lhs
    else:
        rhs = ((ctx.p - 1) // 2, 1)
    return CongruenceReport("wan", lhs, rhs, None, lhs == rhs, a)


def check_weil_bound(ctx: FieldCtx, a: FFElem) -> CongruenceReport:
    """Weil's bound |Kl(a)| <= 2*sqrt(q) for p = 3, in exact integer form.

    K(a) counts x = 0 as well, so Kl(a) = K(a) - 1 and the bound reads
    (K - 1)^2 <= 4q.
    """
    if ctx.p != 3:
        raise ValueError("the rational-integer bound check requires p = 3")
    k = _rational_value(ctx, a)
    bound = 4 * ctx.q
    lhs = (k - 1) ** 2
    return CongruenceReport("weil", lhs, bound, None, lhs <= bound, a)

