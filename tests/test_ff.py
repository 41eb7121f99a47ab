"""Field-layer tests against independent polynomial-arithmetic oracles.

The oracles below use schoolbook algorithms with no table lookups: long
division for reduction, extended Euclid for inverses, distinct-degree
criteria for irreducibility. Anything the fast path gets wrong should
disagree with them somewhere in an exhaustive small-field sweep.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ksum.ff
from ksum.ff import (ExponentSet, FieldError, build_subset, custom_subset,
                     legendre, make_field, power_sum)


# ---------------------------------------------------------------- oracles

def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return poly_rem(out, mod, p)


def poly_rem(a, mod, p):
    a = [x % p for x in a]
    n = len(mod) - 1
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i]
        if c:
            for j in range(n + 1):
                a[i - n + j] = (a[i - n + j] - c * mod[j]) % p
    return poly_trim(a[:n])


def poly_powmod(base, e, mod, p):
    result = [1]
    base = poly_rem(list(base), mod, p)
    while e:
        if e & 1:
            result = poly_mulmod(result, base, mod, p)
        base = poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def poly_gcd(a, b, p):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        inv_lead = pow(b[-1], -1, p)
        b_monic = [(x * inv_lead) % p for x in b]
        r = a
        while len(r) >= len(b_monic):
            c = r[-1]
            shift = len(r) - len(b_monic)
            r = [(x - c * (b_monic[i - shift] if i >= shift else 0)) % p
                 for i, x in enumerate(r)]
            r = poly_trim(r)
            if not r:
                break
        a, b = b, r
    return a


def oracle_irreducible(mod, p):
    """Distinct-degree test: x^{p^n} = x mod f and no smaller fixed field."""
    n = len(mod) - 1
    x = [0, 1]
    if poly_powmod(x, p ** n, mod, p) != poly_rem(x, mod, p):
        return False
    for d in {n // r for r in range(2, n + 1) if n % r == 0 and is_prime_naive(r)}:
        g = poly_gcd(poly_sub(poly_powmod(x, p ** d, mod, p), x, p), mod, p)
        if len(poly_trim(g)) - 1 != 0:
            return False
    return True


def poly_sub(a, b, p):
    m = max(len(a), len(b))
    a = list(a) + [0] * (m - len(a))
    b = list(b) + [0] * (m - len(b))
    return poly_trim([(x - y) % p for x, y in zip(a, b)])


def is_prime_naive(m):
    return m >= 2 and all(m % d for d in range(2, int(m ** 0.5) + 1))


def oracle_order_of_x(mod, p):
    n = len(mod) - 1
    q = p ** n
    acc = [1]
    x = [0, 1]
    for k in range(1, q):
        acc = poly_mulmod(acc, x, mod, p)
        if acc == [1]:
            return k
    return 0


def oracle_ext_euclid_inv(a, mod, p):
    """Inverse of a mod (mod) via extended Euclid over F_p[x]."""
    r0, r1 = list(mod), poly_trim(a)
    s0, s1 = [], [1]
    while r1:
        q, r = poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mulmod_plain(q, s1, p), p)
    assert len(r0) == 1
    c = pow(r0[0], -1, p)
    return poly_trim([(x * c) % p for x in s0])


def poly_mulmod_plain(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return poly_trim(out)


def poly_divmod(a, b, p):
    a = list(a)
    inv_lead = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(poly_trim(a)) >= len(b):
        a = poly_trim(a)
        c = (a[-1] * inv_lead) % p
        shift = len(a) - len(b)
        q[shift] = c
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - c * y) % p
    return poly_trim(q), poly_trim(a)


def oracle_trace(ctx, a):
    """Trace as a sum of Frobenius images, each by square-and-multiply."""
    coeffs = list(a.coeffs)
    mod = list(ctx.modulus)
    total = [0]
    for i in range(ctx.n):
        term = poly_powmod(coeffs, ctx.p ** i, mod, ctx.p)
        total = poly_sub(total, [(-c) % ctx.p for c in term], ctx.p)
    assert len(total) <= 1
    return total[0] if total else 0


# ------------------------------------------------------- modulus selection

def lex_first_default(p, n):
    """Re-derive the default modulus: first monic irreducible with x of
    full order, coefficient tuples compared constant-term-first."""
    for tail in itertools.product(range(p), repeat=n):
        mod = list(tail) + [1]
        if not oracle_irreducible(mod, p):
            continue
        if oracle_order_of_x(mod, p) == p ** n - 1:
            return tuple(mod)
    raise AssertionError("no primitive polynomial found")


@pytest.mark.parametrize("p,n", [
    (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (3, 7), (5, 2), (5, 3), (5, 4),
    (7, 2), (7, 3), (11, 2), (13, 2),
])
def test_default_modulus_matches_oracle(p, n):
    ctx = make_field(p, n)
    assert ctx.modulus == lex_first_default(p, n)
    assert ctx.generator.coeffs == tuple([0, 1] + [0] * (n - 2))


def test_default_search_skips_non_primitive_norms(monkeypatch):
    # at p = 3, n = 8 the norm (-1)^8 * c0 = c0 must be 2, the only
    # primitive root mod 3, so every candidate with c0 = 0 or 1 is skipped
    tried = []

    def recording(x, modulus, p, q, radical, _real=ksum.ff._has_full_order):
        tried.append(modulus)
        return _real(x, modulus, p, q, radical)
    monkeypatch.setattr(ksum.ff, "_has_full_order", recording)
    ctx = make_field(3, 8)
    assert tried and tried[-1] == ctx.modulus
    assert {mod[0] for mod in tried} == {2}


def test_default_modulus_f27_frozen(f27):
    # x^3 + 2x^2 + 1, constant term first
    assert f27.modulus == (1, 0, 2, 1)


def test_prime_field_uses_smallest_primitive_root():
    ctx = make_field(7, 1)
    assert ctx.generator.coeffs == (3,)
    assert ctx.modulus == ((-3) % 7, 1)
    ctx = make_field(3, 1)
    assert ctx.generator.coeffs == (2,)


def test_rejects_bad_parameters():
    with pytest.raises(FieldError):
        make_field(4, 2)
    with pytest.raises(FieldError):
        make_field(2, 3)
    with pytest.raises(FieldError):
        make_field(3, 0)
    with pytest.raises(FieldError):
        make_field(3, 2, (1, 1))  # wrong degree
    with pytest.raises(FieldError):
        make_field(3, 2, (0, 0, 1))  # x^2, reducible
    with pytest.raises(FieldError):
        make_field(3, 2, (2, 0, 2))  # not monic


def oracle_has_full_order(a, mod, p):
    q = p ** (len(mod) - 1)
    primes = [r for r in range(2, q) if (q - 1) % r == 0 and is_prime_naive(r)]
    return (poly_powmod(a, q - 1, mod, p) == [1]
            and all(poly_powmod(a, (q - 1) // r, mod, p) != [1] for r in primes))


def oracle_generator(mod, p):
    """The residue of x if it has full order, else the first element from
    index 2 (base-p digits, constant first) that does."""
    n = len(mod) - 1
    x = poly_rem([0, 1], mod, p)
    digits = [[(k // p ** i) % p for i in range(n)] for k in range(2, p ** n)]
    for cand in [x + [0] * (n - len(x))] + digits:
        if oracle_has_full_order(cand, mod, p):
            return tuple(cand)
    raise AssertionError("no generator found")


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2), (5, 2),
                                 (3, 3), (3, 4)])
def test_user_modulus_generator_matches_oracle(p, n):
    for tail in itertools.product(range(p), repeat=n):
        mod = tail + (1,)
        if not oracle_irreducible(mod, p):
            with pytest.raises(FieldError):
                make_field(p, n, mod)
            continue
        ctx = make_field(p, n, mod)
        assert ctx.modulus == mod
        assert ctx.generator.coeffs == oracle_generator(mod, p), mod


def test_custom_irreducible_non_primitive_modulus():
    # x^2 + 1 over F_3 is irreducible but ord(x) = 4 < 8
    ctx = make_field(3, 2, (1, 0, 1))
    assert ctx.modulus == (1, 0, 1)
    assert ctx.generator.coeffs != (0, 1)
    g = ctx.generator
    acc = ctx.one()
    seen = set()
    for _ in range(ctx.q - 1):
        acc = ctx.mul(acc, g)
        seen.add(acc.coeffs)
    assert len(seen) == ctx.q - 1


# ------------------------------------------------------------- arithmetic

def test_inverse_matches_ext_euclid_f27(f27):
    for a in f27.elements():
        if a.is_zero():
            assert f27.inv(a).is_zero()
            continue
        got = f27.inv(a)
        want = oracle_ext_euclid_inv(list(a.coeffs), list(f27.modulus), 3)
        want = tuple(want) + (0,) * (f27.n - len(want))
        assert got.coeffs == want


def test_inverse_matches_ext_euclid_f25(f25):
    for a in f25.elements():
        if a.is_zero():
            continue
        got = f25.inv(a)
        want = oracle_ext_euclid_inv(list(a.coeffs), list(f25.modulus), 5)
        want = tuple(want) + (0,) * (f25.n - len(want))
        assert got.coeffs == want


def test_trace_matches_oracle_exhaustive(f27, f25):
    for ctx in (f27, f25):
        for a in ctx.elements():
            assert ctx.trace(a) == oracle_trace(ctx, a)


def test_trace_hits_every_value_equally(f27):
    from collections import Counter
    counts = Counter(f27.trace(a) for a in f27.elements())
    assert counts == {0: 9, 1: 9, 2: 9}


def test_pow_conventions(f27):
    zero = f27.zero()
    assert f27.pow(zero, 0) == f27.one()
    assert f27.pow(zero, 5).is_zero()
    with pytest.raises(FieldError):
        f27.pow(zero, -1)
    g = f27.generator
    assert f27.pow(g, f27.q - 1) == f27.one()
    assert f27.pow(g, -1) == f27.inv(g)


def test_element_index_round_trip(f25):
    for k, a in enumerate(f25.elements()):
        assert f25.index(a) == k
        assert f25.element_at(k) == a


def test_frobenius_fixes_prime_field(f27):
    for c in range(3):
        a = f27.from_int(c)
        assert f27.frobenius(a) == a


@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
@settings(max_examples=60, deadline=None)
def test_ring_laws_f27(i, j, k):
    ctx = make_field(3, 3)
    a, b, c = ctx.element_at(i), ctx.element_at(j), ctx.element_at(k)
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.mul(a, b) == ctx.mul(b, a)
    assert ctx.sub(a, a).is_zero()
    if not a.is_zero():
        assert ctx.mul(a, ctx.inv(a)) == ctx.one()


@given(st.integers(0, 24), st.integers(0, 24))
@settings(max_examples=60, deadline=None)
def test_frobenius_is_additive_and_multiplicative(i, j):
    ctx = make_field(5, 2)
    a, b = ctx.element_at(i), ctx.element_at(j)
    fr = ctx.frobenius
    assert fr(ctx.add(a, b)) == ctx.add(fr(a), fr(b))
    assert fr(ctx.mul(a, b)) == ctx.mul(fr(a), fr(b))


def test_trace_is_frobenius_invariant(f27):
    for a in f27.elements():
        assert f27.trace(a) == f27.trace(f27.frobenius(a))


def test_legendre_small_values():
    assert legendre(0, 3) == 0
    assert legendre(1, 3) == 1
    assert legendre(2, 3) == -1
    assert [legendre(t, 7) for t in range(7)] == [0, 1, 1, -1, 1, -1, -1]


# ----------------------------------------------------------- exponent sets

def test_subsets_frozen_q27(f27):
    assert build_subset(f27, "W").exponents == (1, 3, 9)
    assert build_subset(f27, "X").exponents == (2, 4, 6, 10, 12, 18)
    assert build_subset(f27, "Y").exponents == (13,)
    assert build_subset(f27, "Z").exponents == (5, 7, 11, 15, 19, 21)


def test_subsets_are_frobenius_closed(f27):
    m = f27.q - 1
    for kind in "WXYZ":
        s = build_subset(f27, kind).member_set
        assert {(3 * e) % m for e in s} == s


def test_subset_w_is_trace(f27):
    for a in f27.elements():
        assert power_sum(f27, build_subset(f27, "W"), a) == f27.trace(a)


def test_subset_sizes_q81():
    ctx = make_field(3, 4)
    assert len(build_subset(ctx, "W").exponents) == 4
    assert len(build_subset(ctx, "X").exponents) == 4 * 5 // 2
    assert len(build_subset(ctx, "Y").exponents) == 4  # C(4,3) digit patterns
    assert len(build_subset(ctx, "Z").exponents) == 4 * 3


def test_subset_requirements():
    f5 = make_field(5, 2)
    assert build_subset(f5, "W").exponents == (1, 5)
    with pytest.raises(FieldError):
        build_subset(f5, "X")
    f9 = make_field(3, 2)
    with pytest.raises(FieldError):
        build_subset(f9, "Y")  # needs n >= 3
    with pytest.raises(FieldError):
        build_subset(f9, "Q")


def test_custom_subset_closure(f27):
    s = custom_subset(f27, (1, 3, 9))
    assert isinstance(s, ExponentSet)
    with pytest.raises(FieldError):
        custom_subset(f27, (1, 3))  # 9 missing, not closed
    assert custom_subset(f27, (0,)).exponents == (0,)  # constant term allowed
    with pytest.raises(FieldError):
        custom_subset(f27, (26,))  # 26 = q - 1 out of range


def test_power_sum_lands_in_prime_field(f27):
    x = build_subset(f27, "X")
    for a in f27.elements():
        v = power_sum(f27, x, a)
        assert 0 <= v < 3
