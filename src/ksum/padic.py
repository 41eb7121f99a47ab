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
from array import array
from functools import cached_property, lru_cache, reduce
from typing import TYPE_CHECKING, Sequence, Union

from ._value import Value
from .ff import FFElem, FieldCtx, _mulmod, _powmod, build_subset, power_sum
from .kloos import CongruenceReport, InternalCheckError, kloosterman

if TYPE_CHECKING:
    from fractions import Fraction


class PadicInt(Value):
    """Element of Z_p known to `precision` base-p digits."""

    __slots__ = ("p", "precision", "residue")

    def __init__(self, p: int, precision: int, residue: int):
        if precision < 1:
            raise ValueError("precision must be at least 1")
        super().__init__(p, precision, residue % p ** precision)

    @property
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


# a (p, K >= 2) keeps tables of p^ceil(K/2) + 1 and p^floor(K/2) entries,
# 259 591 at most (p = 509, K = 3); at K = 1 a gamma_p call walks fewer than
# p factors; 2^27 keeps 101^4
GAMMA_MAX_MODULUS = 2 ** 27


def _check_gamma_modulus(p: int, precision: int) -> None:
    """Refuse p^K above GAMMA_MAX_MODULUS, deciding from p and K alone.

    Any K past the cap's bit length is over it for every p >= 2, so a huge
    precision never forms p^K.  A K below 1 is refused later, by PadicInt;
    here it is sized as K = 1.  A p above the cap is refused whatever K is,
    with a message that does not ask for a lower precision.
    """
    if p > GAMMA_MAX_MODULUS:
        raise ValueError(
            f"gamma_p needs p^K <= 2^27, got p = {p}, above the cap at every precision")
    if (precision >= GAMMA_MAX_MODULUS.bit_length()
            or p ** max(precision, 1) > GAMMA_MAX_MODULUS):
        raise ValueError(
            f"gamma_p needs p^K <= 2^27, got p^K = {p}^{precision}; lower the precision")


@lru_cache(maxsize=8)
def _gamma_tables(p: int, precision: int) -> tuple[array, array]:
    """P and H of (p, K), with B = p^ceil(K/2) and M = p^floor(K/2).

    P[r], r = 0..B, is the product of the units below r, mod p^K.  H[r],
    r < M, is the sum of their inverses mod M, from one inversion: 1/s is
    P[s] times the product of the units in (s, M) over P[M].  For the units
    s < r <= B, prod(mB + s) = P[r] * (1 + mB * sum(1/s)) mod B^2, and B^2
    and B * M are 0 mod p^K, so the sum counts only mod M.  The inverses
    mod M permute the units below M, whose sum M * phi(M) / 2 is 0 mod M,
    so that sum is H[r mod M], and every block [mB, mB + B) has the unit
    product c = P[B].
    """
    pk = p ** precision
    block = p ** -(-precision // 2)
    prefix = array("l", [1])
    acc = 1
    for t in range(block):
        if t % p:
            acc = acc * t % pk
        prefix.append(acc)
    mod = pk // block
    harmonic = array("l", [0]) * mod
    suffix = pow(prefix[mod], -1, mod)         # 1 / P[s + 1] at step s
    for s in range(mod - 1, 0, -1):
        if s % p:
            harmonic[s] = prefix[s] * suffix % mod
            suffix = suffix * s % mod
    acc = 0
    for s in range(mod):                       # each 1/s becomes its prefix sum
        harmonic[s], acc = acc, (acc + harmonic[s]) % mod
    return prefix, harmonic


def gamma_p(x: PadicInt) -> PadicInt:
    """Morita's p-adic gamma at x, via the finite product at the residue.

    Gamma(k) = (-1)^k * prod of t < k coprime to p.  Continuity mod p^K
    (for p^K != 4) makes the value at the residue class exact to the full
    working precision.  At K >= 2 and k = mB + r with B = p^ceil(K/2), the
    product is c^m * P[r] * (1 + mB * H[r mod M]) from the tables of (p, K).
    At K = 1, where B = p can reach the cap, it walks the k - 1 factors.
    """
    p, precision = x.p, x.precision
    _check_gamma_modulus(p, precision)
    pk, k = x.pk, x.residue
    if precision == 1:
        acc = 1
        for t in range(2, k):
            acc = acc * t % pk
    else:
        prefix, harmonic = _gamma_tables(p, precision)
        block = len(prefix) - 1
        m, r = divmod(k, block)
        acc = prefix[r] * (1 + m * block * harmonic[r % len(harmonic)])
        if m:
            acc *= pow(prefix[block], m, pk)
        acc %= pk
    if k & 1:
        acc = -acc
    return PadicInt(p, precision, acc)


def p_weight(j: int, p: int) -> int:
    """Base-p digit sum of a nonnegative integer."""
    if j < 0:
        raise ValueError("negative argument")
    w = 0
    while j:
        j, r = divmod(j, p)
        w += r
    return w


class UnramCtx(Value):
    """Z_q mod p^K: the unramified lift of a field context.

    Coordinates follow the field's basis; the modulus digits are lifted
    verbatim, so reduction mod p recovers field elements on the nose.  A
    lift is a value of its field and precision; its tables are caches in
    the `__dict__` slot, which a pickle does not carry.
    """

    __slots__ = ("field", "precision", "__dict__")

    def __init__(self, field: FieldCtx, precision: int):
        if precision < 1:
            raise ValueError("precision must be at least 1")
        super().__init__(field, precision)

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def n(self) -> int:
        return self.field.n

    @cached_property
    def pk(self) -> int:
        # formed on first use, so a Gauss-sum check refuses an over-cap
        # precision before it pays for p^K
        return self.p ** self.precision

    @cached_property
    def inverse_q1(self) -> int:
        """1/(q-1) mod p^K, the denominator of every Gross-Koblitz argument."""
        return pow(self.field.q - 1, -1, self.pk)

    def zero(self) -> UnramElem:
        return UnramElem(self, (0,) * self.n)

    def one(self) -> UnramElem:
        return self.from_int(1)

    def from_int(self, c: int) -> UnramElem:
        return UnramElem(self, (c % self.pk,) + (0,) * (self.n - 1))

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

        For every unit, gauss_sum's normal form puts pi^(wt_3(j)) into g(j),
        so the square carries pi^(2 wt) = (-3)^wt and is 0 mod 27 once
        wt >= 3.  The value is computed at every j of weight 1 or 2 and
        dropped on that computed value, never on the weight law, so the
        Fourier sum over this support is the full sum.
        """
        # weight 1 (W): 3^i; weight 2 (X): 3^i + 3^k with i <= k
        js = sorted(build_subset(self.field, "W").exponents
                    + build_subset(self.field, "X").exponents)
        squares = ((j, gauss_square_mod27(self, j).residue) for j in js)
        return tuple((j, c) for j, c in squares if c)


def lift_field(field: FieldCtx, precision: int) -> UnramCtx:
    return UnramCtx(field, precision)


class UnramElem(Value):
    """Element of Z_q mod p^K in the lifted polynomial basis."""

    __slots__ = ("ctx", "coords")

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
        return UnramElem(self.ctx, _mulmod(self.coords, other.coords, self.ctx.field.modulus, pk))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> UnramElem:
        if e < 0:
            raise ValueError("negative unramified power")
        return UnramElem(self.ctx, _powmod(self.coords, e, self.ctx.field.modulus, self.ctx.pk))

    def reduce_mod_p(self) -> FFElem:
        return FFElem(tuple(c % self.ctx.p for c in self.coords))


class PiMonomial(Value):
    """pi^e * unit with pi^(p-1) = -p; exponent normalized into [0, p-2].

    Multiplicative only: sums of mixed pi-powers have no normal form here,
    so it defines no addition.
    """

    __slots__ = ("pi_exponent", "unit")

    def __init__(self, pi_exponent: int, unit: UnramElem):
        if not 0 <= pi_exponent <= unit.ctx.p - 2:
            raise ValueError("pi exponent not normalized")
        super().__init__(pi_exponent, unit)

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


def teichmuller(uctx: UnramCtx, a: FFElem) -> UnramElem:
    """The Teichmueller lift: the root of unity congruent to a mod p.

    The naive lift is teich(a) * u with u = 1 mod p, and u^q = 1 mod p^(m+n)
    when u = 1 mod p^m, so its q^k-th power is teich(a) mod p^(1+nk): exact
    at k = ceil((K-1)/n), one power of q for every K <= n + 1.
    """
    if a.is_zero():
        return uctx.zero()
    return uctx.element(a.coeffs) ** uctx.field.q ** -(-(uctx.precision - 1) // uctx.n)


def lifted_power_sum(uctx: UnramCtx, subset, a: FFElem) -> UnramElem:
    """Sum of teich(a)**s over the exponent set, in Z_q mod p^K."""
    w = teichmuller(uctx, a)
    acc = uctx.zero()
    for s in subset.exponents:
        acc = acc + w ** s
    return acc


def _gamma_arguments(uctx: UnramCtx, j: int) -> tuple[Fraction, ...]:
    """The Gross-Koblitz arguments (p^i * j mod (q-1)) / (q-1), i = 0..n-1."""
    from fractions import Fraction
    q, p = uctx.field.q, uctx.p
    return tuple(Fraction((p ** i * j) % (q - 1), q - 1) for i in range(uctx.n))


def _gamma_values(uctx: UnramCtx, j: int) -> tuple[PadicInt, ...]:
    """Gamma_p at each Gross-Koblitz argument of j, mod p^K.

    The residue of (p^i * j mod (q-1)) / (q-1) does not depend on reducing
    the fraction, since q - 1 is prime to p.
    """
    p, precision, q = uctx.p, uctx.precision, uctx.field.q
    _check_gamma_modulus(p, precision)
    unit = uctx.inverse_q1
    return tuple(gamma_p(PadicInt(p, precision, unit * (p ** i * j % (q - 1))))
                 for i in range(uctx.n))


def _gauss_sum_factors(uctx: UnramCtx, j: int) -> tuple[tuple[PadicInt, ...], PiMonomial]:
    """The Gamma_p values at the Gross-Koblitz arguments of j, and g(j).

    g(j) is pi^(wt_p(j)) times the product of the gamma values, folded into
    normal form; the encoded pi-adic valuation always equals wt_p(j).
    """
    q = uctx.field.q
    if not 1 <= j <= q - 2:
        raise ValueError(f"character index {j} outside [1, {q - 2}]")
    gammas = _gamma_values(uctx, j)
    unit = uctx.from_int(reduce(operator.mul, gammas).residue)
    return gammas, PiMonomial.of(p_weight(j, uctx.p), unit)


def gauss_sum(uctx: UnramCtx, j: int) -> PiMonomial:
    """The Gauss sum at character index j via the Gross-Koblitz product."""
    return _gauss_sum_factors(uctx, j)[1]


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
    lhs = math.prod(g.residue for g in _gamma_values(uctx, j)) % p
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


def _power_combination(uctx: UnramCtx, terms, a: FFElem) -> UnramElem:
    """The sum of c * teich(a)^s over (s, c) in terms, every s nonzero.

    teich(a)^s is read from the lift's table teich_powers, at index
    (s * log a) mod (q-1).  At a = 0 every power is 0, so the sum is 0 and
    the table is not built.
    """
    if a.is_zero():
        return uctx.zero()
    field = uctx.field
    table = uctx.teich_powers
    k = field.tables.log[field.index(a)]
    m = len(table)
    acc = [0] * uctx.n
    for s, c in terms:
        for i, e in enumerate(table[s * k % m]):
            acc[i] += c * e
    return uctx.element(acc)


def check_fourier_mod27(uctx: UnramCtx, a: FFElem) -> CongruenceReport:
    """Three-way mod-27 comparison at a.

    The inversion formula -sum g(j)^2 teich(a)^j over j = 1..q-2 must agree
    with the exact integer sum and with the closed form
    21 * lifted trace + 18 * lifted weight-2 power sum.  The first path uses
    only Gauss sums and Teichmueller powers, the second only trace counting,
    so a match is a genuine cross-check.
    """
    field = uctx.field
    if field.p != 3:
        raise ValueError("mod-27 Fourier check requires p = 3")
    if field.n < 3:
        raise ValueError("mod-27 Fourier check requires n >= 3")
    if uctx.precision < 3:
        raise ValueError("mod-27 Fourier check requires >= 3 digits")
    # the counting side reads the field tables first, so a field above the
    # table cap is refused before any Gauss square or lift is computed
    rhs = kloosterman(field, a).as_int()
    if rhs is None:
        raise InternalCheckError("ternary Kloosterman sum is not rational")
    acc = _power_combination(uctx, uctx.gauss_square_support, a)
    closed = _power_combination(
        uctx, [(s, 21) for s in build_subset(field, "W").exponents]
        + [(s, 18) for s in build_subset(field, "X").exponents], a)
    coords27 = tuple(-c % 27 for c in acc.coords)
    if any(coords27[1:]):
        raise InternalCheckError("Fourier sum is not rational mod 27")
    lhs = coords27[0]
    rhs %= 27
    closed27 = tuple(c % 27 for c in closed.coords)
    passed = lhs == rhs and closed27 == coords27
    return CongruenceReport("fourier", lhs, rhs, 27, passed, a)


def identity_reports(uctx: UnramCtx, a: FFElem) -> tuple[CongruenceReport, ...]:
    """The bundled ring identities at a (p = 3, n >= 3).

    Covers: the cube of the lifted trace against lifted power sums, the
    in-field product identity trace * wt2-sum = trace + 2 * wt3-doubled-sum,
    reduction of each lifted power sum to its field counterpart, and
    multiplicativity of the Teichmueller lift against the generator.

    Lifted powers come from the lift's table teich_powers; teich-mult
    compares that table's teich(a) * teich(g) with the one-power lift
    (`teichmuller`) of a * g.
    """
    field = uctx.field
    if field.p != 3:
        raise ValueError("identity bundle requires p = 3")
    if field.n < 3:
        raise ValueError("identity bundle requires n >= 3")
    # the lifts' cost grows faster than K (n = 3: an --all sweep at K = 300
    # takes about 0.3 s, K = 1000 about 4 s); refuse before any lift forms p^K
    if uctx.precision > 300:
        raise ValueError(
            f"identity bundle requires precision <= 300, got {uctx.precision}")
    n = field.n
    subsets = {kind: build_subset(field, kind) for kind in "WXYZ"}
    lifted = {kind: _power_combination(uctx, [(s, 1) for s in sub.exponents], a)
              for kind, sub in subsets.items()}
    sums = {kind: power_sum(field, s, a) for kind, s in subsets.items()}
    trh, yh, zh = lifted["W"], lifted["Y"], lifted["Z"]

    reports = []
    lhs = (trh ** 3).coords
    rhs = (trh + zh * 3 + yh * 6).coords
    reports.append(CongruenceReport(
        "identities/trace-cube", lhs, rhs, uctx.pk, lhs == rhs, a))

    t = field.trace(a)
    lhs2 = (t * sums["X"]) % 3
    rhs2 = (t + 2 * sums["Z"]) % 3
    reports.append(CongruenceReport(
        "identities/trace-times-wt2", lhs2, rhs2, 3, lhs2 == rhs2, a))

    for kind in "WXYZ":
        down = lifted[kind].reduce_mod_p().coeffs
        expect = (sums[kind],) + (0,) * (n - 1)
        reports.append(CongruenceReport(
            f"identities/lift-reduces-{kind}", down, expect, 3, down == expect, a))

    lhs3 = teichmuller(uctx, field.mul(a, field.generator)).coords
    rhs3 = (_power_combination(uctx, [(1, 1)], a) * uctx.teich_generator).coords
    reports.append(CongruenceReport(
        "identities/teich-mult", lhs3, rhs3, uctx.pk, lhs3 == rhs3, a))
    return tuple(reports)
