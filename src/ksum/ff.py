"""Finite fields F_{p^n} with a fixed modulus and generator.

Elements are length-n tuples of residues mod p, constant coefficient first,
in the polynomial basis of the modulus.  A context fixes both the modulus
and a generator of the multiplicative group; discrete-log and trace tables
are built lazily so the exhaustive sweeps stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations, islice, product
from typing import Iterator, NamedTuple, Optional, Sequence


class FieldError(ValueError):
    """Invalid field parameters, malformed elements, or bad exponent sets."""


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def distinct_prime_factors(m: int) -> tuple[int, ...]:
    """Sorted distinct prime divisors of m, by trial division."""
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        out.append(m)
    return tuple(out)


def legendre(t: int, p: int) -> int:
    """Legendre symbol (t|p) in {-1, 0, 1} for an odd prime p."""
    u = t % p
    if u == 0:
        return 0
    return 1 if pow(u, (p - 1) // 2, p) == 1 else -1


# Raw polynomial arithmetic on coefficient tuples (constant term first),
# used before a context exists and inside table construction.  The last
# argument only reduces coefficients, so the lifted ring in padic multiplies
# mod p^K with the same code.

def _mulmod(a: Sequence[int], b: Sequence[int], modulus: Sequence[int], p: int) -> tuple[int, ...]:
    acc = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    acc[i + j] += ai * bj
    return _rem(acc, modulus, p)


def _powmod(a: tuple[int, ...], e: int, modulus: Sequence[int], p: int) -> tuple[int, ...]:
    n = len(modulus) - 1
    result = (1,) + (0,) * (n - 1)
    base = a
    while e:
        if e & 1:
            result = _mulmod(result, base, modulus, p)
        base = _mulmod(base, base, modulus, p)
        e >>= 1
    return result


def _rem(dividend: Sequence[int], divisor: Sequence[int], p: int) -> tuple[int, ...]:
    """Remainder of dividend by a monic divisor, both constant-first.

    Only each top coefficient and the result are reduced mod p.
    """
    rem = list(dividend)
    d = len(divisor) - 1
    for top in range(len(rem) - 1, d - 1, -1):
        c = rem[top] % p
        if c:
            off = top - d
            for j in range(d):
                rem[off + j] -= c * divisor[j]
    return tuple(v % p for v in rem[:d])


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree up to deg/2."""
    n = len(modulus) - 1
    for d in range(1, n // 2 + 1):
        for tail in product(range(p), repeat=d):
            divisor = tail + (1,)
            if not any(_rem(modulus, divisor, p)):
                return False
    return True


def _has_full_order(x: tuple[int, ...], modulus: tuple[int, ...], p: int, q: int,
                    radical: tuple[int, ...]) -> bool:
    # ord(x) = q-1 in F_p[t]/(modulus) forces the quotient to be a field,
    # so this single test covers irreducibility and primitivity at once.
    n = len(modulus) - 1
    one = (1,) + (0,) * (n - 1)
    if _powmod(x, q - 1, modulus, p) != one:
        return False
    return all(_powmod(x, (q - 1) // r, modulus, p) != one for r in radical)


@dataclass(frozen=True)
class FFElem:
    """Field element: residues mod p, constant coefficient first."""

    coeffs: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coeffs)


@dataclass(frozen=True)
class ExponentSet:
    """Subset of Z/(q-1)Z closed under multiplication by p.

    Closure under s -> p*s guarantees the associated power sum lands in the
    prime field.  The named kinds index exponents by base-p digit pattern;
    for p = 3 they drive the mod-27 classification.
    """

    exponents: tuple[int, ...]
    kind: str

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.exponents)


class FieldTables(NamedTuple):
    """Lookup tables backing the sweep hot loops; index = sum c_i * p^i."""

    exp: list[int]                 # k -> index of generator**k
    log: list[Optional[int]]       # index -> k, None at zero
    trace_by_log2: list[int]       # trace(g**k), doubled to avoid wrap mod q-1
    trace_inv_by_log: list[int]    # trace(g**-k)


class FieldCtx:
    """Immutable arithmetic context for F_{p^n}.

    Every operation is a pure function of its inputs; the lazily built
    lookup tables are an invisible cache, so contexts can be shared or
    rebuilt freely across worker processes.
    """

    def __init__(self, p: int, n: int, modulus: Sequence[int], generator: FFElem):
        self.p = int(p)
        self.n = int(n)
        self.q = self.p ** self.n
        self.modulus = tuple(int(c) % self.p for c in modulus)
        self.generator = generator

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p}, n={self.n}, modulus={self.modulus})"

    def _key(self) -> tuple:
        return (self.p, self.n, self.modulus, self.generator.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FieldCtx) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    # element construction and enumeration

    def zero(self) -> FFElem:
        return FFElem((0,) * self.n)

    def one(self) -> FFElem:
        return self.from_int(1)

    def from_int(self, c: int) -> FFElem:
        return FFElem((c % self.p,) + (0,) * (self.n - 1))

    def element(self, coeffs: Sequence[int]) -> FFElem:
        if len(coeffs) != self.n:
            raise FieldError(
                f"element needs {self.n} coefficients, got {len(coeffs)}")
        return FFElem(tuple(int(c) % self.p for c in coeffs))

    def element_at(self, k: int) -> FFElem:
        if not 0 <= k < self.q:
            raise FieldError(f"element index {k} out of range [0, {self.q})")
        digits = []
        for _ in range(self.n):
            k, r = divmod(k, self.p)
            digits.append(r)
        return FFElem(tuple(digits))

    def index(self, x: FFElem) -> int:
        k = 0
        for c in reversed(x.coeffs):
            k = k * self.p + c
        return k

    def elements(self) -> Iterator[FFElem]:
        for k in range(self.q):
            yield self.element_at(k)

    # arithmetic

    def add(self, x: FFElem, y: FFElem) -> FFElem:
        p = self.p
        return FFElem(tuple((a + b) % p for a, b in zip(x.coeffs, y.coeffs)))

    def sub(self, x: FFElem, y: FFElem) -> FFElem:
        p = self.p
        return FFElem(tuple((a - b) % p for a, b in zip(x.coeffs, y.coeffs)))

    def mul(self, x: FFElem, y: FFElem) -> FFElem:
        return FFElem(_mulmod(x.coeffs, y.coeffs, self.modulus, self.p))

    def pow(self, x: FFElem, e: int) -> FFElem:
        if x.is_zero():
            if e == 0:
                return self.one()
            if e < 0:
                raise FieldError("negative power of zero")
            return self.zero()
        t = self.tables
        k = t.log[self.index(x)]
        return self.element_at(t.exp[(k * e) % (self.q - 1)])

    def inv(self, x: FFElem) -> FFElem:
        """Multiplicative inverse, with the sweep convention inv(0) = 0."""
        if x.is_zero():
            return self.zero()
        t = self.tables
        k = t.log[self.index(x)]
        return self.element_at(t.exp[(self.q - 1 - k) % (self.q - 1)])

    def frobenius(self, x: FFElem) -> FFElem:
        return FFElem(_powmod(x.coeffs, self.p, self.modulus, self.p))

    def trace(self, x: FFElem) -> int:
        basis = self._trace_basis
        return sum(c * t for c, t in zip(x.coeffs, basis)) % self.p

    @cached_property
    def _trace_basis(self) -> tuple[int, ...]:
        # trace of each basis monomial, via explicit Frobenius power sums
        out = []
        for i in range(self.n):
            mono = tuple(1 if j == i else 0 for j in range(self.n))
            acc = [0] * self.n
            t = mono
            for _ in range(self.n):
                acc = [(u + v) % self.p for u, v in zip(acc, t)]
                t = _powmod(t, self.p, self.modulus, self.p)
            if any(acc[1:]):
                raise FieldError("trace of a basis monomial left the prime field")
            out.append(acc[0])
        return tuple(out)

    @cached_property
    def tables(self) -> FieldTables:
        q, p = self.q, self.p
        exp = [0] * (q - 1)
        log: list[Optional[int]] = [None] * q
        cur = self.one().coeffs
        gen = self.generator.coeffs
        mod = self.modulus
        for k in range(q - 1):
            idx = 0
            for c in reversed(cur):
                idx = idx * p + c
            exp[k] = idx
            log[idx] = k
            cur = _mulmod(cur, gen, mod, p)
        if cur != self.one().coeffs:
            raise FieldError("generator does not have order q-1")
        by_log = [self.trace(self.element_at(i)) for i in exp]
        trace_by_log2 = by_log + by_log
        trace_inv_by_log = [by_log[0]] + by_log[:0:-1]
        return FieldTables(exp, log, trace_by_log2, trace_inv_by_log)


def make_field(p: int, n: int, modulus: Optional[Sequence[int]] = None) -> FieldCtx:
    """Build F_{p^n}.

    Without an explicit modulus the lexicographically first monic polynomial
    (constant term compared first) that is both irreducible and primitive is
    selected, so the residue class of the indeterminate generates the
    multiplicative group.  For n = 1 the generator is the smallest positive
    primitive root and the modulus is the monic linear polynomial vanishing
    on it.  A user-supplied modulus must be monic and irreducible; the
    generator is the residue class of the indeterminate (for n = 1, the root
    of the modulus) if that has full multiplicative order, else the first
    element of full order in enumeration order from index 2.
    """
    if not is_prime(p) or p == 2:
        raise FieldError(f"p must be an odd prime, got {p}")
    if n < 1:
        raise FieldError(f"n must be a positive integer, got {n}")
    q = p ** n
    radical = distinct_prime_factors(q - 1)

    if modulus is None:
        radical_p = distinct_prime_factors(p - 1)
        roots = (g for g in range(2, p)
                 if all(pow(g, (p - 1) // r, p) != 1 for r in radical_p))
        if n == 1:
            g = next(roots)
            return FieldCtx(p, 1, ((-g) % p, 1), FFElem((g,)))
        # the norm (-1)^n * c0 of a generator generates F_p^*, so no other
        # constant term c0 can give a primitive modulus
        constants = {(-1) ** n * g % p for g in roots}
        x = (0, 1) + (0,) * (n - 2)
        for tail in product(range(p), repeat=n):
            if tail[0] not in constants:
                continue
            cand = tail + (1,)
            if _has_full_order(x, cand, p, q, radical):
                return FieldCtx(p, n, cand, FFElem(x))
        raise FieldError("no primitive modulus found")  # unreachable

    mod = tuple(int(c) % p for c in modulus)
    if len(mod) != n + 1:
        raise FieldError(
            f"modulus needs {n + 1} coefficients for degree {n}, got {len(mod)}")
    if mod[-1] != 1:
        raise FieldError("modulus must be monic")
    if not _is_irreducible(mod, p):
        raise FieldError(f"modulus {mod} is reducible over F_{p}")
    x = ((-mod[0]) % p,) if n == 1 else (0, 1) + (0,) * (n - 2)
    # element k has the base-p digits of k as coefficients, constant first
    elements = (tail[::-1] for tail in product(range(p), repeat=n))
    for gen in chain([x], islice(elements, 2, None)):
        if _has_full_order(gen, mod, p, q, radical):
            return FieldCtx(p, n, mod, FFElem(gen))
    raise FieldError("no generator found")  # unreachable for a field


def _require_closed(ctx: FieldCtx, subset: ExponentSet) -> None:
    m = ctx.q - 1
    members = subset.member_set
    for s in subset.exponents:
        if not 0 <= s < m:
            raise FieldError(f"exponent {s} outside [0, {m})")
        if (s * ctx.p) % m not in members:
            raise FieldError(
                f"exponent set {subset.kind!r} is not closed under s -> p*s mod q-1")


@lru_cache(maxsize=None)
def build_subset(ctx: FieldCtx, kind: str) -> ExponentSet:
    """Named exponent families, by base-p digit pattern of the exponent.

    W: digit sum 1 (the powers of p; power sum = trace).
    X: digit sum 2 (p = 3 only).
    Y: digit sum 3 with three distinct positions (p = 3, n >= 3).
    Z: digit sum 3 as a doubled power plus a distinct power (p = 3).
    """
    p, n, q = ctx.p, ctx.n, ctx.q
    if kind == "W":
        exps = sorted({p ** i for i in range(n)})
    elif kind == "X":
        if p != 3:
            raise FieldError("kind 'X' requires p = 3")
        exps = sorted({3 ** i + 3 ** j for i in range(n) for j in range(i, n)
                       if 3 ** i + 3 ** j <= q - 2})
    elif kind == "Y":
        if p != 3:
            raise FieldError("kind 'Y' requires p = 3")
        if n < 3:
            raise FieldError("kind 'Y' requires n >= 3")
        exps = sorted({3 ** i + 3 ** j + 3 ** k
                       for i, j, k in combinations(range(n), 3)})
    elif kind == "Z":
        if p != 3:
            raise FieldError("kind 'Z' requires p = 3")
        exps = sorted({2 * 3 ** i + 3 ** j for i in range(n) for j in range(n)
                       if i != j})
    else:
        raise FieldError(f"unknown exponent set kind {kind!r}")
    subset = ExponentSet(tuple(exps), kind)
    _require_closed(ctx, subset)
    return subset


def custom_subset(ctx: FieldCtx, exponents: Sequence[int]) -> ExponentSet:
    """A user-defined exponent set; validated for Frobenius closure."""
    subset = ExponentSet(tuple(sorted(set(int(e) for e in exponents))), "custom")
    _require_closed(ctx, subset)
    return subset


def power_sum(ctx: FieldCtx, subset: ExponentSet, a: FFElem) -> int:
    """Sum of a**s over the exponent set, as an element of F_p.

    Frobenius closure of the set makes the sum fixed by x -> x^p, hence a
    prime-field value.  Exponent 0 contributes 1 for every a, including 0.
    """
    _require_closed(ctx, subset)
    p = ctx.p
    total = [0] * ctx.n
    for s in subset.exponents:
        e = ctx.pow(a, s)
        total = [(u + v) % p for u, v in zip(total, e.coeffs)]
    if any(total[1:]):
        raise FieldError("power sum left the prime field")
    return total[0]
