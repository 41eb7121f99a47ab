"""Kloosterman sums as exact cyclotomic integers, with congruence checks.

The sum over F_q of zeta^(Tr(1/x + a*x)) (with 1/0 read as 0) is computed
by counting how often each trace value occurs, so the result is exact and
the count vector doubles as a certificate.  Conjugates are obtained by
re-summation at scaled arguments; the Galois action on coordinates is kept
as an independent cross-check rather than the computation path.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Optional

from .cyclo import CycInt, IntPolynomial, product_linear
from .ff import FFElem, FieldCtx, build_subset, legendre, power_sum


class InternalCheckError(RuntimeError):
    """A structural guarantee failed; indicates a defect, not bad input."""


@dataclass(frozen=True)
class KloostermanValue:
    """counts[t] = number of x with Tr(1/x + a*x) = t; value = sum of zeta^t."""

    counts: tuple[int, ...]
    value: CycInt

    def as_int(self) -> Optional[int]:
        return self.value.as_rational()


@dataclass(frozen=True)
class MinPolyResult:
    min_poly: IntPolynomial
    multiplicity: int
    char_poly: IntPolynomial


@dataclass(frozen=True)
class CongruenceReport:
    """One verified relation; passed is True iff lhs equals rhs, except for
    the Weil bound, where it is True iff lhs <= rhs."""

    subject: str
    lhs: object
    rhs: object
    modulus: Optional[int]
    passed: bool
    witness: object


@lru_cache(maxsize=None)
def _counts_by_index(ctx: FieldCtx, a_idx: int) -> tuple[int, ...]:
    p, q = ctx.p, ctx.q
    t = ctx.tables
    counts = [0] * p
    counts[0] = 1                      # the x = 0 term contributes zeta^0
    if a_idx == 0:
        row = t.trace_inv_by_log
    else:
        alpha = t.log[a_idx]
        seg = t.trace_by_log2[alpha:alpha + q - 1]
        row = list(map(operator.add, t.trace_inv_by_log, seg))
    for s in range(2 * p - 1):
        c = row.count(s)
        if c:
            counts[s % p] += c
    if sum(counts) != q:
        raise InternalCheckError("trace counts do not cover the field")
    return tuple(counts)


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


def char_poly(ctx: FieldCtx, a: FFElem) -> IntPolynomial:
    """prod (x - K(i^2 a)) over i = 1..(p-1)/2, an integer polynomial."""
    family = conjugate_family(ctx, a)
    return product_linear([kv.value for kv in family])


def min_poly(ctx: FieldCtx, a: FFElem) -> MinPolyResult:
    """Minimal polynomial of K(a) over Q, with its multiplicity in char_poly."""
    family = conjugate_family(ctx, a)
    values = [kv.value for kv in family]
    distinct: list[CycInt] = []
    for v in values:
        if v not in distinct:
            distinct.append(v)
    half = (ctx.p - 1) // 2
    if half % len(distinct):
        raise InternalCheckError(
            f"orbit size {len(distinct)} does not divide {half}")
    mult = half // len(distinct)
    m = product_linear(distinct)
    c = product_linear(values)
    if m ** mult != c:
        raise InternalCheckError(
            "char poly is not the expected power of the minimal polynomial")
    return MinPolyResult(m, mult, c)


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
    """|K(a)| <= 2*sqrt(q) for p = 3, in exact integer form K^2 <= 4q."""
    if ctx.p != 3:
        raise ValueError("the rational-integer bound check requires p = 3")
    k = _rational_value(ctx, a)
    bound = 4 * ctx.q
    lhs = k * k
    return CongruenceReport("weil", lhs, bound, None, lhs <= bound, a)

