"""Truncated p-adic arithmetic: gamma function, Teichmueller lifts, and
Gauss sums via the Gross-Koblitz product.

Everything here works mod p^K for a fixed precision K.  The unramified
ring Z_q is represented with the same modulus digits as its residue field
and reuses the field layer's `_mulmod` / `_powmod`, reducing coefficients
mod p^K instead of mod p.  Ramified values live in multiplicative normal
form pi^e * unit with pi^(p-1) = -p.  This path shares only the field
layer with the exact cyclotomic computation, so agreement between the two
is evidence, not circularity.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Sequence, Union

from .ff import FFElem, FieldCtx, _mulmod, _powmod, build_subset, power_sum
from .kloos import CongruenceReport, InternalCheckError, kloosterman


@dataclass(frozen=True)
class PadicInt:
    """Element of Z_p known to `precision` base-p digits."""

    p: int
    precision: int
    residue: int

    def __post_init__(self) -> None:
        if self.precision < 1:
            raise ValueError("precision must be at least 1")
        object.__setattr__(self, "residue", self.residue % self.p ** self.precision)

    @cached_property
    def pk(self) -> int:
        return self.p ** self.precision

    def _check(self, other: PadicInt) -> None:
        if (self.p, self.precision) != (other.p, other.precision):
            raise ValueError("mixed p-adic precisions")

    def __add__(self, other: PadicInt) -> PadicInt:
        self._check(other)
        return PadicInt(self.p, self.precision, self.residue + other.residue)

    def __sub__(self, other: PadicInt) -> PadicInt:
        self._check(other)
        return PadicInt(self.p, self.precision, self.residue - other.residue)

    def __neg__(self) -> PadicInt:
        return PadicInt(self.p, self.precision, -self.residue)

    def __mul__(self, other):
        if isinstance(other, int):
            return PadicInt(self.p, self.precision, self.residue * other)
        if not isinstance(other, PadicInt):
            return NotImplemented
        self._check(other)
        return PadicInt(self.p, self.precision, self.residue * other.residue)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> PadicInt:
        return PadicInt(self.p, self.precision, pow(self.residue, e, self.pk))

    def reduce(self, precision: int) -> PadicInt:
        if precision > self.precision:
            raise ValueError("cannot raise precision")
        return PadicInt(self.p, precision, self.residue)


def padic_from_rational(num: int, den: int, p: int, precision: int) -> PadicInt:
    """num/den as a p-adic integer; den must be coprime to p."""
    if precision < 1:
        raise ValueError("precision must be at least 1")
    if den == 0:
        raise ValueError("zero denominator")
    if math.gcd(den, p) != 1:
        raise ValueError(f"denominator {den} is not coprime to {p}")
    pk = p ** precision
    return PadicInt(p, precision, num * pow(den, -1, pk))


def gamma_p(x: PadicInt) -> PadicInt:
    """Morita's p-adic gamma at x, via the finite product at the residue.

    Gamma(k) = (-1)^k * prod of t < k coprime to p.  Continuity mod p^K
    (for p^K != 4) makes the value at the residue class exact to the full
    working precision.
    """
    p, pk = x.p, x.pk
    k = x.residue
    acc = 1
    for t in range(1, k):
        if t % p:
            acc = acc * t % pk
    if k & 1:
        acc = -acc
    return PadicInt(x.p, x.precision, acc)


def p_weight(j: int, p: int) -> int:
    """Base-p digit sum of a nonnegative integer."""
    if j < 0:
        raise ValueError("negative argument")
    w = 0
    while j:
        j, r = divmod(j, p)
        w += r
    return w


@dataclass(frozen=True)
class GammaArgument:
    """A fractional gamma argument with its p-adic residue."""

    rational: Fraction
    residue: PadicInt

    @classmethod
    def from_fraction(cls, frac: Fraction, p: int, precision: int) -> GammaArgument:
        return cls(frac, padic_from_rational(frac.numerator, frac.denominator, p, precision))


class UnramCtx:
    """Z_q mod p^K: the unramified lift of a field context.

    Coordinates follow the field's basis; the modulus digits are lifted
    verbatim, so reduction mod p recovers field elements on the nose.
    """

    def __init__(self, field: FieldCtx, precision: int):
        if precision < 1:
            raise ValueError("precision must be at least 1")
        self.field = field
        self.p = field.p
        self.n = field.n
        self.precision = precision
        self.pk = field.p ** precision
        self.modulus = field.modulus

    def __repr__(self) -> str:
        return f"UnramCtx(p={self.p}, n={self.n}, precision={self.precision})"

    def _key(self) -> tuple:
        return (self.field, self.precision)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UnramCtx) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def zero(self) -> UnramElem:
        return UnramElem(self, (0,) * self.n)

    def one(self) -> UnramElem:
        return self.from_int(1)

    def from_int(self, c: int) -> UnramElem:
        return UnramElem(self, (c % self.pk,) + (0,) * (self.n - 1))

    def from_padic(self, x: PadicInt) -> UnramElem:
        if (x.p, x.precision) != (self.p, self.precision):
            raise ValueError("mismatched p-adic precision")
        return self.from_int(x.residue)

    def element(self, coords: Sequence[int]) -> UnramElem:
        if len(coords) != self.n:
            raise ValueError(f"need {self.n} coordinates")
        return UnramElem(self, tuple(int(c) % self.pk for c in coords))

    # per-lift tables: built on first use, kept as long as the lift

    @cached_property
    def teich_generator(self) -> UnramElem:
        return teichmuller(self, self.field.generator)

    @cached_property
    def teich_powers(self) -> tuple[tuple[int, ...], ...]:
        """Coordinates of teich(g)^k for k = 0..q-2, g the field generator.

        teich(a)^s for a = g^k is then entry (s * k) mod (q-1).  Every entry is
        checked to reduce to g^k, and teich(g)^(q-1) to be 1, so a wrong lift
        or a wrong log table stops here instead of skewing a congruence.
        """
        field = self.field
        exp = field.tables.exp
        w = self.teich_generator
        pw = self.one()
        out = []
        for k in range(field.q - 1):
            if pw.reduce_mod_p() != field.element_at(exp[k]):
                raise InternalCheckError(
                    f"teich(g)^{k} does not reduce to the generator power g^{k}")
            out.append(pw.coords)
            pw = pw * w
        if pw != self.one():
            raise InternalCheckError("teich(g)^(q-1) is not 1")
        return tuple(out)

    @cached_property
    def gauss_square_support(self) -> tuple[tuple[int, int], ...]:
        """(j, g(j)^2 mod 27) for every j in 1..q-2 whose computed value is nonzero.

        Zero terms are dropped on their computed value, never on the weight law,
        so the Fourier sum over this support is the full sum.
        """
        out = []
        for j in range(1, self.field.q - 1):
            c = gauss_square_mod27(self, j).residue
            if c:
                out.append((j, c))
        return tuple(out)


def lift_field(field: FieldCtx, precision: int) -> UnramCtx:
    return UnramCtx(field, precision)


@dataclass(frozen=True)
class UnramElem:
    """Element of Z_q mod p^K in the lifted polynomial basis."""

    ctx: UnramCtx
    coords: tuple[int, ...]

    def _check(self, other: UnramElem) -> None:
        if self.ctx != other.ctx:
            raise ValueError("mixed unramified contexts")

    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_constant(self) -> bool:
        return not any(self.coords[1:])

    def constant(self) -> PadicInt:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self.coords}")
        return PadicInt(self.ctx.p, self.ctx.precision, self.coords[0])

    def __add__(self, other: UnramElem) -> UnramElem:
        self._check(other)
        pk = self.ctx.pk
        return UnramElem(self.ctx, tuple((a + b) % pk for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: UnramElem) -> UnramElem:
        self._check(other)
        pk = self.ctx.pk
        return UnramElem(self.ctx, tuple((a - b) % pk for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> UnramElem:
        pk = self.ctx.pk
        return UnramElem(self.ctx, tuple(-a % pk for a in self.coords))

    def __mul__(self, other: Union[UnramElem, PadicInt, int]):
        pk = self.ctx.pk
        if isinstance(other, int):
            return UnramElem(self.ctx, tuple(a * other % pk for a in self.coords))
        if isinstance(other, PadicInt):
            return self * other.residue
        if not isinstance(other, UnramElem):
            return NotImplemented
        self._check(other)
        return UnramElem(self.ctx, _mulmod(self.coords, other.coords, self.ctx.modulus, pk))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> UnramElem:
        if e < 0:
            raise ValueError("negative unramified power")
        return UnramElem(self.ctx, _powmod(self.coords, e, self.ctx.modulus, self.ctx.pk))

    def reduce_mod_p(self) -> FFElem:
        return FFElem(tuple(c % self.ctx.p for c in self.coords))


@dataclass(frozen=True)
class PiMonomial:
    """pi^e * unit with pi^(p-1) = -p; exponent normalized into [0, p-2].

    Multiplicative only: sums of mixed pi-powers have no normal form here,
    so addition deliberately raises.
    """

    pi_exponent: int
    unit: UnramElem

    def __post_init__(self) -> None:
        if not 0 <= self.pi_exponent <= self.unit.ctx.p - 2:
            raise ValueError("pi exponent not normalized")

    @classmethod
    def of(cls, exponent: int, unit: UnramElem) -> PiMonomial:
        if exponent < 0:
            raise ValueError("negative pi exponent")
        p = unit.ctx.p
        folds, rem = divmod(exponent, p - 1)
        if folds:
            unit = unit * pow(-p, folds, unit.ctx.pk)
        return cls(rem, unit)

    def __mul__(self, other: PiMonomial) -> PiMonomial:
        if not isinstance(other, PiMonomial):
            return NotImplemented
        return PiMonomial.of(self.pi_exponent + other.pi_exponent, self.unit * other.unit)

    def __add__(self, other):
        raise TypeError("PiMonomial is multiplicative-only; cannot add pi-powers")

    __radd__ = __add__


def teichmuller(uctx: UnramCtx, a: FFElem) -> UnramElem:
    """The Teichmueller lift: the root of unity congruent to a mod p.

    Computed by Frobenius iteration y -> y^q from the naive lift; each step
    gains at least one digit, so `precision` iterations are exact.
    """
    if a.is_zero():
        return uctx.zero()
    y = uctx.element(a.coeffs)
    q = uctx.field.q
    for _ in range(uctx.precision):
        y = y ** q
    return y


def lifted_power_sum(uctx: UnramCtx, subset, a: FFElem) -> UnramElem:
    """Sum of teich(a)**s over the exponent set, in Z_q mod p^K."""
    w = teichmuller(uctx, a)
    acc = uctx.zero()
    for s in subset.exponents:
        acc = acc + w ** s
    return acc


def _gamma_arguments(uctx: UnramCtx, j: int) -> tuple[GammaArgument, ...]:
    q, p = uctx.field.q, uctx.p
    return tuple(
        GammaArgument.from_fraction(Fraction((p ** i * j) % (q - 1), q - 1), p, uctx.precision)
        for i in range(uctx.n))


def _gamma_product(uctx: UnramCtx, j: int) -> PadicInt:
    acc = PadicInt(uctx.p, uctx.precision, 1)
    for arg in _gamma_arguments(uctx, j):
        acc = acc * gamma_p(arg.residue)
    return acc


def gauss_sum(uctx: UnramCtx, j: int) -> PiMonomial:
    """The Gauss sum at character index j via the Gross-Koblitz product.

    Returns pi^(wt_p(j)) times the product of the gamma values, folded into
    normal form; the encoded pi-adic valuation always equals wt_p(j).
    """
    q = uctx.field.q
    if not 1 <= j <= q - 2:
        raise ValueError(f"character index {j} outside [1, {q - 2}]")
    wt = p_weight(j, uctx.p)
    return PiMonomial.of(wt, uctx.from_padic(_gamma_product(uctx, j)))


def gauss_square_mod27(uctx: UnramCtx, j: int) -> PadicInt:
    """g(j)^2 mod 27 for p = 3; the square clears every pi power."""
    if uctx.p != 3:
        raise ValueError("squared Gauss sums mod 27 require p = 3")
    if uctx.field.n < 3:
        raise ValueError("requires n >= 3")
    if uctx.precision < 3:
        raise ValueError("requires at least 3 digits of precision")
    g = gauss_sum(uctx, j)
    sq = g * g
    if sq.pi_exponent != 0:
        raise InternalCheckError("squared Gauss sum kept a pi power")
    return sq.unit.constant().reduce(3)


def check_stickelberger(uctx: UnramCtx, j: int) -> CongruenceReport:
    """Unit part of g(j) vs the inverse product of digit factorials, mod p."""
    p = uctx.p
    lhs = _gamma_product(uctx, j).residue % p
    fact = 1
    jj = j
    while jj:
        jj, d = divmod(jj, p)
        fact = fact * math.factorial(d) % p
    rhs = pow(fact, -1, p)
    return CongruenceReport("stickelberger", lhs, rhs, p, lhs == rhs, j)


def check_gauss_square_mod27(uctx: UnramCtx, j: int) -> CongruenceReport:
    """g(j)^2 mod 27 vs the value dictated by the digit weight of j."""
    wt = p_weight(j, 3)
    rhs = {1: 6, 2: 9}.get(wt, 0)
    lhs = gauss_square_mod27(uctx, j).residue
    return CongruenceReport("wt1", lhs, rhs, 27, lhs == rhs, j)


def _power_combination(table, terms, k: int) -> list[int]:
    """Coordinates of the sum of c * teich(g)^(s*k) over (s, c) in terms."""
    m = len(table)
    acc = [0] * len(table[0])
    for s, c in terms:
        for i, e in enumerate(table[s * k % m]):
            acc[i] += c * e
    return acc


def check_fourier_mod27(uctx: UnramCtx, a: FFElem) -> CongruenceReport:
    """Three-way mod-27 comparison at a.

    The inversion formula -sum g(j)^2 teich(a)^j over j = 1..q-2 must agree
    with the exact integer sum and with the closed form
    21 * lifted trace + 18 * lifted weight-2 power sum.  The first path uses
    only Gauss sums and Teichmueller powers, the second only trace counting,
    so a match is a genuine cross-check.

    Teichmueller powers are read from one table of teich(g)^k per lift, at
    index (j * log a) mod (q-1).  At a = 0 every power taken is 0, as no
    exponent in the sums is 0, and the table is not needed.
    """
    field = uctx.field
    if field.p != 3:
        raise ValueError("mod-27 Fourier check requires p = 3")
    if field.n < 3:
        raise ValueError("mod-27 Fourier check requires n >= 3")
    if uctx.precision < 3:
        raise ValueError("mod-27 Fourier check requires >= 3 digits")
    support = uctx.gauss_square_support
    if a.is_zero():
        acc = closed = [0] * field.n
    else:
        table = uctx.teich_powers
        k = field.tables.log[field.index(a)]
        acc = _power_combination(table, support, k)
        closed = _power_combination(
            table, [(s, 21) for s in build_subset(field, "W").exponents]
            + [(s, 18) for s in build_subset(field, "X").exponents], k)
    coords27 = tuple(-c % 27 for c in acc)
    if any(coords27[1:]):
        raise InternalCheckError("Fourier sum is not rational mod 27")
    lhs = coords27[0]
    rhs = kloosterman(field, a).as_int()
    if rhs is None:
        raise InternalCheckError("ternary Kloosterman sum is not rational")
    rhs %= 27
    closed27 = tuple(c % 27 for c in closed)
    passed = lhs == rhs and closed27 == coords27
    return CongruenceReport("fourier", lhs, rhs, 27, passed, a)


def _lifted_digit_sum(uctx: UnramCtx, by_digit, subset) -> UnramElem:
    """Sum of teich(a)^s over the exponents s of a p = 3 family.

    by_digit[d][i] is teich(a)^(d * 3^i), so teich(a)^s is the product of
    the entries at the nonzero base-3 digits d of s.
    """
    acc = uctx.zero()
    for s in subset.exponents:
        factors = []
        for i in range(uctx.n):
            s, d = divmod(s, 3)
            if d:
                factors.append(by_digit[d][i])
        acc = acc + reduce(operator.mul, factors)
    return acc


def identity_reports(uctx: UnramCtx, a: FFElem) -> tuple[CongruenceReport, ...]:
    """The bundled ring identities at a (p = 3, n >= 3).

    Covers: the cube of the lifted trace against lifted power sums, the
    in-field product identity trace * wt2-sum = trace + 2 * wt3-doubled-sum,
    reduction of each lifted power sum to its field counterpart, and
    multiplicativity of the Teichmueller lift against the generator.
    """
    field = uctx.field
    if field.p != 3:
        raise ValueError("identity bundle requires p = 3")
    if field.n < 3:
        raise ValueError("identity bundle requires n >= 3")
    n = field.n
    w = teichmuller(uctx, a)
    b = [w]
    for _ in range(n - 1):
        b.append(b[-1] ** 3)
    by_digit = (None, b, [e * e for e in b])
    lifted = {kind: _lifted_digit_sum(uctx, by_digit, build_subset(field, kind))
              for kind in "WXYZ"}
    trh, yh, zh = lifted["W"], lifted["Y"], lifted["Z"]

    reports = []
    lhs = (trh ** 3).coords
    rhs = (trh + zh * 3 + yh * 6).coords
    reports.append(CongruenceReport(
        "identities/trace-cube", lhs, rhs, uctx.pk, lhs == rhs, a))

    t = field.trace(a)
    xs = power_sum(field, build_subset(field, "X"), a)
    zs = power_sum(field, build_subset(field, "Z"), a)
    lhs2 = (t * xs) % 3
    rhs2 = (t + 2 * zs) % 3
    reports.append(CongruenceReport(
        "identities/trace-times-wt2", lhs2, rhs2, 3, lhs2 == rhs2, a))

    for kind in "WXYZ":
        down = lifted[kind].reduce_mod_p().coeffs
        ts = power_sum(field, build_subset(field, kind), a)
        expect = (ts,) + (0,) * (n - 1)
        reports.append(CongruenceReport(
            f"identities/lift-reduces-{kind}", down, expect, 3, down == expect, a))

    lhs3 = teichmuller(uctx, field.mul(a, field.generator)).coords
    rhs3 = (w * uctx.teich_generator).coords
    reports.append(CongruenceReport(
        "identities/teich-mult", lhs3, rhs3, uctx.pk, lhs3 == rhs3, a))
    return tuple(reports)
