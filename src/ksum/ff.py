"""Finite fields F_{p^n} with a fixed modulus and generator.

Elements are length-n tuples of residues mod p, constant coefficient first,
in the polynomial basis of the modulus.  A context fixes both the modulus
and a generator of the multiplicative group; its discrete-log and trace
tables are built lazily, in one walk over the generator's powers, so the
exhaustive sweeps stay cheap.  The walk holds g^k as one integer, the
base-(2p-1) code of its coefficients, and splits it into two half-words:
small tables over each half give g times that half, its index and its
trace, and the two products add digit by digit with no carry, since each
digit of each is below p.  `element_at` likewise joins two tables of
half-length digit tuples.  A context's arithmetic never changes, but it
is not frozen: a whole-field sweep attaches `count_rows` to it.
"""

from __future__ import annotations

import operator
from collections import Counter
from functools import cached_property, lru_cache
from itertools import chain, combinations, islice, product
from typing import Iterator, NamedTuple, Optional, Sequence

from ._value import Value


class FieldError(ValueError):
    """Invalid field parameters, malformed elements, or bad exponent sets."""


class InternalCheckError(RuntimeError):
    """A structural guarantee failed; indicates a defect, not bad input."""


# The most entries of per-element state a run may build: the field tables
# and the indices of an --all or --sample scope.
# `verify --check mod27 --all` peaks near 0.75 KB per element at p = 3,
# n = 11..12, so a sweep at the cap stays under 2 GB; 3^13 is admitted.
MAX_TABLE_Q = 2 ** 21


def check_table_cap(size: int, what: str, error: type = FieldError) -> None:
    """Refuse `size` entries for `what` above MAX_TABLE_Q, before any is allocated."""
    if size > MAX_TABLE_Q:
        raise error(f"{what} would hold {size} entries, above the cap of 2^21")


# Trial division stops here, after about 2 s on a number of up to 128 bits;
# make_field refuses q - 1 >= 2^128 so that no division costs more.
MAX_TRIAL_DIVISOR = 2 ** 24


def is_prime(m: int) -> bool:
    return m > 1 and distinct_prime_factors(m) == (m,)


def distinct_prime_factors(m: int, name: Optional[str] = None) -> tuple[int, ...]:
    """Sorted distinct prime divisors of m, by trial division up to MAX_TRIAL_DIVISOR."""
    out, rest, f = [], m, 2
    while f * f <= rest:
        if f > MAX_TRIAL_DIVISOR:
            raise FieldError(f"cannot factor {name or m}: trial division stops at 2^24")
        if rest % f == 0:
            out.append(f)
            while rest % f == 0:
                rest //= f
        f += 1 if f == 2 else 2
    if rest > 1:
        out.append(rest)
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


def _monic_gcd(f: tuple[int, ...], h: Sequence[int], p: int) -> tuple[int, ...]:
    """gcd(f, h) over F_p, made monic, for a monic f; h may carry top zeros."""
    g, h = f, list(h)
    while any(h):
        while not h[-1]:
            h.pop()
        inv = pow(h[-1], -1, p)
        g, h = tuple(c * inv % p for c in h), g
        h = list(_rem(h, g, p))
    return g


def _frobenius_minus_x(f: tuple[int, ...], d: int, p: int) -> list[int]:
    """x^(p^d) - x mod the monic f of degree n >= 2, as n coefficients."""
    h = list(_powmod((0, 1) + (0,) * (len(f) - 3), p ** d, f, p))
    h[1] = (h[1] - 1) % p
    return h


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Rabin's test (SIAM J. Comput. 9, 1980) for the monic modulus of degree n.

    f is irreducible iff it divides x^(p^n) - x, so that each irreducible
    factor has a degree dividing n, and shares no factor with
    x^(p^(n/r)) - x for any prime r | n, so that none has a smaller degree.
    Each condition is one power x^(p^d) mod f, about d * log2(p) squarings.
    """
    n = len(modulus) - 1
    if n == 1:
        return True
    if any(_frobenius_minus_x(modulus, n, p)):
        return False
    return all(_monic_gcd(modulus, _frobenius_minus_x(modulus, n // r, p), p) == (1,)
               for r in distinct_prime_factors(n))


def _has_root(f: tuple[int, ...], p: int) -> bool:
    """Whether the monic f of degree n >= 2 has a root in F_p.

    The roots of f in F_p are those of gcd(f, x^p - x), found from x^p mod f
    at the cost of about log2(p) products, not p evaluations.
    """
    return _monic_gcd(f, _frobenius_minus_x(f, 1, p), p) != (1,)


def _has_full_order(x: tuple[int, ...], modulus: tuple[int, ...], p: int, q: int,
                    radical: tuple[int, ...]) -> bool:
    # ord(x) = q-1 in F_p[t]/(modulus) forces the quotient to be a field,
    # so this single test covers irreducibility and primitivity at once.
    n = len(modulus) - 1
    one = (1,) + (0,) * (n - 1)
    if _powmod(x, q - 1, modulus, p) != one:
        return False
    return all(_powmod(x, (q - 1) // r, modulus, p) != one for r in radical)


class FFElem(Value):
    """Field element: residues mod p, constant coefficient first."""

    __slots__ = ("coeffs",)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coeffs)


class ExponentSet(Value):
    """Subset of Z/(q-1)Z closed under multiplication by p.

    Closure under s -> p*s guarantees the associated power sum lands in the
    prime field; it is checked once, when the set is made.  The named kinds
    index exponents by base-p digit pattern; for p = 3 they drive the mod-27
    classification.
    """

    __slots__ = ("p", "q", "exponents", "kind", "__dict__")

    def __init__(self, p: int, q: int, exponents: tuple[int, ...], kind: str):
        m = q - 1
        members = set(exponents)
        for s in exponents:
            if not 0 <= s < m:
                raise FieldError(f"exponent {s} outside [0, {m})")
            if (s * p) % m not in members:
                raise FieldError(
                    f"exponent set {kind!r} is not closed under s -> p*s mod q-1")
        super().__init__(p, q, exponents, kind)

    @cached_property
    def orbits(self) -> tuple[tuple[int, int], ...]:
        """(least member r, length d) of each orbit of s -> p*s mod q-1, by r."""
        return tuple(Counter(_orbit_leaders(self, self.exponents, exponents=True)).items())


class FieldTables(NamedTuple):
    """Lookup tables backing the sweep hot loops; index = sum c_i * p^i."""

    exp: list[int]                 # k -> index of g**k, for k in [0, q-1)
    log: list[Optional[int]]       # index -> k, None at zero
    trace_by_log2: list[int]       # Tr(g**k) at k and k + q-1, so windows need
                                   # no wrap; Tr(g**-k) sits at q-1-k


class FieldCtx:
    """Arithmetic context for F_{p^n}.

    Every operation is a pure function of its inputs; the lazily built
    lookup tables are an invisible cache, so contexts can be shared or
    rebuilt freely across worker processes.  The one attribute set after
    construction is `count_rows`, None until a whole-field sweep attaches
    every Kloosterman counting row by element index (see kloos); it is
    pickled with the context to the sweep's workers and takes no part in
    equality or hashing.
    """

    def __init__(self, p: int, n: int, modulus: Sequence[int], generator: FFElem):
        self.p = int(p)
        self.n = int(n)
        self.q = self.p ** self.n
        self.modulus = tuple(int(c) % self.p for c in modulus)
        self.generator = generator
        self.count_rows: Optional[list[tuple[int, ...]]] = None

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
        P, lo, hi = self._digit_tables
        return FFElem(lo[k % P] + hi[k // P])

    @cached_property
    def _digit_tables(self) -> tuple[int, tuple, tuple]:
        """(P, lo, hi), P = p^(n//2): the digits of element k are lo[k % P] + hi[k // P].

        The tables hold about 2 * sqrt(q) tuples, but are refused above the
        cap of the field tables, which every caller of element_at reads too.
        """
        p, n = self.p, self.n
        check_table_cap(self.q, f"the field tables of F_{p}^{n}")
        lo, hi = (tuple(t[::-1] for t in product(range(p), repeat=r)) for r in (n // 2, n - n // 2))
        return p ** (n // 2), lo, hi

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
        return sum(map(operator.mul, x.coeffs, self._trace_basis)) % self.p

    @cached_property
    def _trace_basis(self) -> tuple[int, ...]:
        # Tr(x^k) is the k-th power sum s_k of the modulus's roots; Newton's
        # identities give it with no division, so they hold at every p
        p, n, c = self.p, self.n, self.modulus
        s = [n % p]
        for k in range(1, n):
            s.append((-k * c[n - k] - sum(c[n - i] * s[k - i] for i in range(1, k))) % p)
        return tuple(s)

    @cached_property
    def tables(self) -> FieldTables:
        """exp, log and the trace row from one walk over the powers g^k.

        g^k is held as V = sum c_i * m^i with m = 2p-1, split at h = n//2
        digits into a low and a high half-word.  Each half-word table maps
        a half's code to g times that half (a code with digits below p),
        to the half's share of the element index, and to its trace; a
        digit-reduction map spreads the p^h and p^(n-h) reduced words over
        every base-m half-word.  A step adds the two halves' entries: the
        digits of g^(k+1)'s code are then at most 2p-2 < m, so no digit
        carries into the next, whatever the generator.  At n = 1 the low
        half is empty and g^k's code stays reduced, so the tables stay at
        p entries.  A step that lands on zero or on an index already logged
        means the generator's order is below q-1, and the walk stops there.
        """
        q, p, n = self.q, self.p, self.n
        check_table_cap(q, f"the field tables of F_{p}^{n}")
        gen, mod, basis = self.generator.coeffs, self.modulus, self._trace_basis
        m, h = 2 * p - 1, n // 2
        P, lo, hi = self._digit_tables
        halves = []
        for scale, size, words in ((1, h, [w + hi[0] for w in lo]),
                                   (P, n - h, [lo[0] + w for w in hi])):
            g_row, idx_row, tr_row = [], [], []
            for w, coeffs in enumerate(words):
                code = 0
                for c in reversed(_mulmod(gen, coeffs, mod, p)):
                    code = code * m + c
                g_row.append(code)
                idx_row.append(w * scale)
                tr_row.append(sum(map(operator.mul, coeffs, basis)) % p)
            if h:
                # the reduced word of each base-m code, enumerated by code
                red = [0]
                for i in range(size):
                    red = [r + d % p * p ** i for d in range(m) for r in red]
                g_row, idx_row, tr_row = ([row[r] for r in red]
                                          for row in (g_row, idx_row, tr_row))
            halves.append((g_row, idx_row, tr_row))
        (GL, IL, TL), (GH, IH, TH) = halves
        M = m ** h
        exp = [0] * (q - 1)
        log: list[Optional[int]] = [None] * q
        by_log = [0] * (q - 1)
        V = 1
        for k in range(q - 1):
            hi, lo = divmod(V, M)
            idx = IL[lo] + IH[hi]
            if idx == 0 or log[idx] is not None:
                raise FieldError("generator does not have order q-1")
            exp[k] = idx
            log[idx] = k
            by_log[k] = (TL[lo] + TH[hi]) % p
            V = GL[lo] + GH[hi]
        return FieldTables(exp, log, by_log + by_log)


def make_field(p: int, n: int, modulus: Optional[Sequence[int]] = None) -> FieldCtx:
    """Build F_{p^n}.

    Without an explicit modulus the lexicographically first monic polynomial
    (constant term compared first) that is both irreducible and primitive is
    selected, so the residue class of the indeterminate generates the
    multiplicative group.  For n = 1 the generator is the smallest positive
    primitive root and the modulus is the monic linear polynomial vanishing
    on it.  A user-supplied modulus must be monic; the generator is the
    residue class of the indeterminate (for n = 1, the root of the modulus)
    if that has full multiplicative order, which proves the modulus
    irreducible, else, once Rabin's test has, the first element of full
    order in enumeration order from index 2.  x is tested first because
    that one power usually settles both; Rabin's test alone costs a
    quarter to a half of a whole build from a modulus that x generates.
    """
    # q - 1 >= 2^128, decided without forming a long p^n; n < 1 is sized as 1
    if n * (p.bit_length() - 1) > 128 or p ** max(n, 1) > 2 ** 128:
        raise FieldError(f"fields need q = p^n <= 2^128, got p = {p}, n = {n}")
    if not is_prime(p) or p == 2:
        raise FieldError(f"p must be an odd prime, got {p}")
    if n < 1:
        raise FieldError(f"n must be a positive integer, got {n}")
    q = p ** n
    radical = distinct_prime_factors(q - 1, f"q - 1 = {p}^{n} - 1")

    if modulus is None and n == 1:
        candidates = (((g,), ((-g) % p, 1)) for g in range(2, p))
    elif modulus is None:
        # only c0 with a norm (-1)^n * c0 that generates F_p^* can give a
        # primitive modulus; in order, they keep the candidates lexicographic.
        # A candidate with a root in F_p is reducible and is never powered.
        x = (0, 1) + (0,) * (n - 2)
        monic = ((c0,) + mid + (1,) for c0 in range(1, p)
                 if all(pow((-1) ** n * c0, (p - 1) // r, p) != 1
                        for r in radical if (p - 1) % r == 0)
                 for mid in product(range(p), repeat=n - 1))
        candidates = ((x, cand) for cand in monic if not _has_root(cand, p))
    else:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != n + 1:
            raise FieldError(
                f"modulus needs {n + 1} coefficients for degree {n}, got {len(mod)}")
        if mod[-1] != 1:
            raise FieldError("modulus must be monic")
        x = ((-mod[0]) % p,) if n == 1 else (0, 1) + (0,) * (n - 2)

        def after_x() -> Iterator[tuple[int, ...]]:
            if not _is_irreducible(mod, p):
                raise FieldError(f"modulus {mod} is reducible over F_{p}")
            # element k has the base-p digits of k as coefficients, constant first
            elements = (tail[::-1] for tail in product(range(p), repeat=n))
            yield from islice(elements, 2, None)
        candidates = ((gen, mod) for gen in chain([x], after_x()))
    for gen, cand in candidates:
        if _has_full_order(gen, cand, p, q, radical):
            return FieldCtx(p, n, cand, FFElem(gen))
    raise FieldError("no generator of full order found")  # unreachable


def _orbit_leaders(ctx: FieldCtx | ExponentSet, indices: Sequence[int],
                   exponents: bool = False) -> list[int]:
    """The least index of each index's orbit, in index order.

    Every orbit is one cycle of k -> p*k mod d on an integer key: a Gauss
    index j (`exponents`) is its own key, with d = q-1; an element a != 0
    has key log a mod d, with d = 2(q-1)/(p-1), as a -> c^2 a adds
    multiples of d to log a (at p = 3, d = q-1); zero is its own orbit.
    `indices` is a whole domain in increasing order, so the first index
    met in an orbit is its least, and it labels its key's cycle.
    An exponent walk reads only p and q, so an ExponentSet may stand for its
    field; a domain under half the field is labelled in a dict, so the walk
    over a small exponent set allocates nothing of the field's size.
    """
    p, m = ctx.p, ctx.q - 1
    if exponents:
        d = m
        least = dict.fromkeys(indices) if 2 * len(indices) < ctx.q else [None] * d
    else:
        log, d = ctx.tables.log, 2 * m // (p - 1)
        least = [None] * d
    leaders = []
    for i in indices:
        if not (exponents or i):
            leaders.append(0)
            continue
        k = key = i if exponents else log[i] % d
        while least[k] is None:
            least[k] = i
            k = p * k % d
        leaders.append(least[key])
    return leaders


def build_subset(ctx: FieldCtx, kind: str) -> ExponentSet:
    """Named exponent families, by base-p digit pattern of the exponent.

    W: digit sum 1 (the powers of p; power sum = trace).
    X: digit sum 2 (p = 3 only).
    Y: digit sum 3 with three distinct positions (p = 3, n >= 3).
    Z: digit sum 3 as a doubled power plus a distinct power (p = 3).

    A set reads only p and n, so the cache is keyed by them and holds no
    context, nor the tables and rows a context carries.
    """
    return _named_subset(ctx.p, ctx.n, kind)


@lru_cache(maxsize=None)
def _named_subset(p: int, n: int, kind: str) -> ExponentSet:
    q = p ** n
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
    return ExponentSet(p, q, tuple(exps), kind)


def custom_subset(ctx: FieldCtx, exponents: Sequence[int]) -> ExponentSet:
    """A user-defined exponent set; validated for Frobenius closure."""
    return ExponentSet(ctx.p, ctx.q, tuple(sorted(set(int(e) for e in exponents))), "custom")


def power_sum(ctx: FieldCtx, subset: ExponentSet, a: FFElem) -> int:
    """Sum of a**s over the exponent set, as an element of F_p.

    Frobenius closure of the set makes the sum fixed by x -> x^p, hence a
    prime-field value.  Exponent 0 contributes 1 for every a, including 0.
    The set must have been made for a field of the same p and q; its
    modulus may differ, as closure does not depend on it.

    The sum runs once per orbit of s -> p*s mod q-1 (`subset.orbits`), not
    once per exponent.  For an orbit of length d with least member r, a^r
    lies in F_{p^d}, and the orbit sums its conjugates: Tr_{p^d/p}(a^r).
    The absolute trace is n/d times that, so when p does not divide n/d the
    orbit adds (n/d)^-1 * Tr(a^r), one power and one trace.  An orbit with
    p | n/d (at p = 3, a Y orbit of length n/3, or {0} when 3 | n) has zero
    absolute trace; it sums its d powers directly, and that direct part
    must land in F_p.
    """
    if (subset.p, subset.q) != (ctx.p, ctx.q):
        raise FieldError(
            f"exponent set {subset.kind!r} was made for p={subset.p}, q={subset.q}, "
            f"not p={ctx.p}, q={ctx.q}")
    p, n, m = ctx.p, ctx.n, ctx.q - 1
    value, direct = 0, [0] * n
    for r, d in subset.orbits:
        if n // d % p:
            value += pow(n // d, -1, p) * ctx.trace(ctx.pow(a, r))
        else:
            for i in range(d):
                e = ctx.pow(a, r * p ** i % m)
                direct = [(u + v) % p for u, v in zip(direct, e.coeffs)]
    if any(direct[1:]):
        raise InternalCheckError("power sum left the prime field")
    return (value + direct[0]) % p
