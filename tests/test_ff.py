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
from ksum.ff import (ExponentSet, FFElem, FieldCtx, FieldError, build_subset,
                     custom_subset, legendre, make_field, power_sum)
from ksum.kloos import check_mod27


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


def trial_division_irreducible(mod, p):
    """Trial division by every monic polynomial of degree up to deg/2."""
    n = len(mod) - 1
    for d in range(1, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not poly_rem(mod, tail + (1,), p):
                return False
    return True


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


def parent_default_search(p, n):
    """The earlier default search, kept as the reference: every monic tail
    in lexicographic order, constant term first, skipping each whose
    constant term is not (-1)^n times a primitive root mod p."""
    q = p ** n
    radical = ksum.ff.distinct_prime_factors(q - 1)
    radical_p = ksum.ff.distinct_prime_factors(p - 1)
    roots = (g for g in range(2, p)
             if all(pow(g, (p - 1) // r, p) != 1 for r in radical_p))
    constants = {(-1) ** n * g % p for g in roots}
    x = (0, 1) + (0,) * (n - 2)
    for tail in itertools.product(range(p), repeat=n):
        if tail[0] not in constants:
            continue
        cand = tail + (1,)
        if ksum.ff._has_full_order(x, cand, p, q, radical):
            return cand, x
    raise AssertionError("no primitive modulus found")


@pytest.mark.parametrize("p,n", [(3, n) for n in range(2, 13)]
                         + [(5, n) for n in range(2, 7)]
                         + [(7, n) for n in range(2, 6)]
                         + [(11, n) for n in range(2, 5)]
                         + [(13, 2), (13, 3), (101, 2), (1009, 2)])
def test_default_search_matches_parent_skip_loop(p, n):
    ctx = make_field(p, n)
    assert (ctx.modulus, ctx.generator.coeffs) == parent_default_search(p, n)


def has_root_oracle(f, p):
    """Horner evaluation at every point of F_p."""
    def value(t):
        v = 0
        for c in reversed(f):
            v = (v * t + c) % p
        return v
    return any(value(t) == 0 for t in range(p))


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 3), (13, 2)])
def test_has_root_matches_evaluation(p, n):
    for tail in itertools.product(range(p), repeat=n):
        f = tail + (1,)
        assert ksum.ff._has_root(f, p) == has_root_oracle(f, p), f


def test_has_root_at_large_p():
    # (x - 5)(x - 7) and x^2 - 2, which has no root mod 1000003 (2 is a non-residue)
    p = 1000003
    assert ksum.ff._has_root((35, p - 12, 1), p)
    assert legendre(2, p) == -1 and not ksum.ff._has_root((p - 2, 0, 1), p)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 1), (5, 2),
                                 (5, 3), (5, 4), (7, 1), (7, 2), (7, 3), (11, 1), (11, 2)])
def test_rabin_test_matches_both_oracles(p, n):
    for tail in itertools.product(range(p), repeat=n):
        mod = tail + (1,)
        expect = trial_division_irreducible(mod, p)
        assert oracle_irreducible(list(mod), p) == expect, mod
        assert ksum.ff._is_irreducible(mod, p) == expect, mod


# g^2 for the default modulus g of F_3^20: x is not primitive modulo it, so
# make_field runs the irreducibility test, where 3^20 trial divisions would hang
_SQUARE_OF_DEFAULT_20 = (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0,
                         0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 2, 0, 0, 1, 2, 1)
# irreducible of degree 22, but x is not primitive modulo it
_NONPRIMITIVE_22 = (1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 2, 1, 1, 1, 2, 1, 2, 1, 2, 1, 1, 1, 1)


def test_square_modulus_is_refused_by_rabin_test():
    g = make_field(3, 20).modulus
    assert tuple(poly_mulmod_plain(g, g, 3)) == _SQUARE_OF_DEFAULT_20
    with pytest.raises(FieldError, match="is reducible over F_3"):
        make_field(3, 40, _SQUARE_OF_DEFAULT_20)


def test_irreducible_nonprimitive_modulus_at_n22():
    ctx = make_field(3, 22, _NONPRIMITIVE_22)
    assert ctx.generator.coeffs != (0, 1) + (0,) * 20
    mod, g, m = list(_NONPRIMITIVE_22), list(ctx.generator.coeffs), 3 ** 22 - 1
    primes = [r for r in range(2, 200000) if m % r == 0 and is_prime_naive(r)]
    cofactor = m
    for r in primes:
        while cofactor % r == 0:
            cofactor //= r
    assert cofactor == 1
    assert poly_powmod(g, m, mod, 3) == [1]
    assert all(poly_powmod(g, m // r, mod, 3) != [1] for r in primes)


def test_default_search_tests_every_rootless_candidate(monkeypatch):
    # only admissible constant terms are enumerated, so every tuple the
    # search draws becomes a candidate, and a candidate with a root in F_p
    # is skipped before any powering: at p = 3, n = 8 five of the ten drawn
    drawn, tried = [], []

    def counting_product(*args, _real=itertools.product, **kwargs):
        for t in _real(*args, **kwargs):
            drawn.append(t)
            yield t

    def recording(x, modulus, p, q, radical, _real=ksum.ff._has_full_order):
        tried.append(modulus)
        return _real(x, modulus, p, q, radical)
    monkeypatch.setattr(ksum.ff, "product", counting_product)
    monkeypatch.setattr(ksum.ff, "_has_full_order", recording)
    ctx = make_field(3, 8)
    assert tried[-1] == ctx.modulus
    rootless = [(2,) + mid + (1,) for mid in drawn
                if not has_root_oracle((2,) + mid + (1,), 3)]
    assert tried == rootless
    assert (len(drawn), len(tried)) == (10, 5)


@pytest.mark.parametrize("p,n,modulus", [
    # the earlier search's moduli, from runs of 3.6 s and 3.8 s
    (3, 16, (2,) + (0,) * 11 + (1, 1, 2, 1, 1)),
    (1000003, 2, (2, 4, 1)),
    (3, 21, None),
    (3, 30, None),
])
def test_default_search_reaches_large_fields(p, n, modulus):
    ctx = make_field(p, n)
    assert ctx.modulus == modulus or modulus is None
    # the norm of the generator x is a primitive root mod p
    norm = (-1) ** n * ctx.modulus[0] % p
    assert norm and all(pow(norm, (p - 1) // r, p) != 1
                        for r in ksum.ff.distinct_prime_factors(p - 1))
    assert ctx.generator.coeffs == (0, 1) + (0,) * (n - 2)


def test_field_tables_refuse_q_above_cap(monkeypatch):
    ctx = make_field(3, 14)
    monkeypatch.setattr(ksum.ff, "_mulmod", None)   # the walk must not start
    with pytest.raises(FieldError, match=r"F_3\^14 would hold 4782969 entries, "
                                         r"above the cap of 2\^21"):
        ctx.tables
    assert ksum.ff.MAX_TABLE_Q == 2 ** 21 >= 3 ** 12


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


# ------------------------------------- field construction against the parent

def parent_is_prime(m):
    """The earlier primality test: its own trial-division loop, unbounded."""
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


def parent_make_field(p, n, modulus=None):
    """The earlier make_field, kept as the reference: a separate primality
    loop, the smallest primitive root at n = 1, and a user modulus that is
    trial-divided before x is tested.  Returns (modulus, generator)."""
    if not parent_is_prime(p) or p == 2:
        raise FieldError(f"p must be an odd prime, got {p}")
    if n < 1:
        raise FieldError(f"n must be a positive integer, got {n}")
    q = p ** n
    radical = ksum.ff.distinct_prime_factors(q - 1)
    if modulus is None and n == 1:
        g = next(g for g in range(2, p)
                 if all(pow(g, (p - 1) // r, p) != 1 for r in radical))
        return ((-g) % p, 1), (g,)
    if modulus is None:
        return parent_default_search(p, n)
    mod = tuple(int(c) % p for c in modulus)
    if len(mod) != n + 1:
        raise FieldError(
            f"modulus needs {n + 1} coefficients for degree {n}, got {len(mod)}")
    if mod[-1] != 1:
        raise FieldError("modulus must be monic")
    if not trial_division_irreducible(mod, p):
        raise FieldError(f"modulus {mod} is reducible over F_{p}")
    x = ((-mod[0]) % p,) if n == 1 else (0, 1) + (0,) * (n - 2)
    elements = (tail[::-1] for tail in itertools.product(range(p), repeat=n))
    for gen in itertools.chain([x], itertools.islice(elements, 2, None)):
        if ksum.ff._has_full_order(gen, mod, p, q, radical):
            return mod, gen
    raise AssertionError("no generator found")


def _built(build, *args):
    try:
        ctx = build(*args)
    except FieldError as e:
        return str(e)
    return ctx if isinstance(ctx, tuple) else (ctx.modulus, ctx.generator.coeffs)


def test_is_prime_matches_parent_loop():
    for m in range(-5, 3000):
        assert ksum.ff.is_prime(m) == parent_is_prime(m), m


def test_prime_fields_match_parent():
    primes = [p for p in range(3, 3000) if parent_is_prime(p)]
    assert len(primes) == 429
    for p in primes:
        assert _built(make_field, p, 1) == _built(parent_make_field, p, 1), p


def test_user_moduli_match_parent():
    # every monic modulus: the same (modulus, generator) or the same error
    count = 0
    for p, n in [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2), (5, 2), (7, 2),
                 (3, 3), (5, 3), (3, 4), (3, 5)]:
        for tail in itertools.product(range(p), repeat=n):
            mod = tail + (1,)
            assert _built(make_field, p, n, mod) == _built(parent_make_field, p, n, mod), mod
            count += 1
    assert count == 585
    for args in [(4, 2), (2, 3), (3, 0), (9, -1), (1, 5), (3, 2, (1, 1)),
                 (3, 2, (2, 0, 2)), (3, 2, (0, 0, 1))]:
        assert _built(make_field, *args) == _built(parent_make_field, *args), args


def _count_irreducibility_tests(monkeypatch):
    calls = []

    def counted(mod, p, _real=ksum.ff._is_irreducible):
        calls.append(mod)
        return _real(mod, p)
    monkeypatch.setattr(ksum.ff, "_is_irreducible", counted)
    return calls


@pytest.mark.parametrize("n", [8, 16, 21])
def test_echoed_default_modulus_skips_trial_division(n, monkeypatch):
    # x of full order proves the modulus irreducible
    default = make_field(3, n)
    calls = _count_irreducibility_tests(monkeypatch)
    ctx = make_field(3, n, default.modulus)
    assert (ctx.modulus, ctx.generator) == (default.modulus, default.generator)
    assert calls == []


def test_user_modulus_tests_x_once_then_trial_divides(monkeypatch):
    events = []

    def order(x, modulus, p, q, radical, _real=ksum.ff._has_full_order):
        events.append(x)
        return _real(x, modulus, p, q, radical)

    def irreducible(mod, p, _real=ksum.ff._is_irreducible):
        events.append("irreducible")
        return _real(mod, p)
    monkeypatch.setattr(ksum.ff, "_has_full_order", order)
    monkeypatch.setattr(ksum.ff, "_is_irreducible", irreducible)
    default = make_field(3, 8).modulus
    events.clear()
    make_field(3, 8, default)
    assert events == [(0, 1) + (0,) * 6]
    events.clear()
    # x has order 5 here: x, then one trial division, then the elements
    # from index 2 (index 3 is x again)
    ctx = make_field(3, 4, (1, 1, 1, 1, 1))
    assert events == [(0, 1, 0, 0), "irreducible",
                      (2, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (2, 1, 0, 0)]
    assert ctx.generator.coeffs == (2, 1, 0, 0)
    events.clear()
    with pytest.raises(FieldError, match=r"modulus \(1, 0, 0, 0, 1\) is reducible over F_3"):
        make_field(3, 4, (1, 0, 0, 0, 1))  # (x^2 + x + 2)(x^2 + 2x + 2)
    assert events == [(0, 1, 0, 0), "irreducible"]


# ------------------------------------------------ trial-division and size bounds

def test_factoring_refuses_composite_cofactor_past_bound(monkeypatch):
    monkeypatch.setattr(ksum.ff, "MAX_TRIAL_DIVISOR", 100)
    with pytest.raises(FieldError, match="cannot factor 10403: trial division stops"):
        ksum.ff.distinct_prime_factors(101 * 103)
    with pytest.raises(FieldError, match="cannot factor 3 \\* 103 \\* 107"):
        ksum.ff.distinct_prime_factors(3 * 103 * 107, "3 * 103 * 107")
    with pytest.raises(FieldError, match="cannot factor 31827"):
        ksum.ff.is_prime(3 * 103 * 103)   # the parent's loop stopped at 3


def test_factoring_certifies_prime_cofactor_below_bound_squared(monkeypatch):
    monkeypatch.setattr(ksum.ff, "MAX_TRIAL_DIVISOR", 100)
    # 10007 is prime and below 101^2, the first divisor past the bound
    assert ksum.ff.distinct_prime_factors(2 * 3 ** 4 * 10007) == (2, 3, 10007)
    assert ksum.ff.is_prime(10007)
    assert ksum.ff.distinct_prime_factors(97 ** 2) == (97,)


def test_bound_admits_field_that_divides_close_to_it():
    # 3^37 - 1 = 2 * 13097927 * 17189128703: trial division reaches 2^23.6
    assert make_field(3, 37).q == 3 ** 37


def test_bound_refuses_field_naming_p_and_n(monkeypatch):
    monkeypatch.setattr(ksum.ff, "MAX_TRIAL_DIVISOR", 100)
    # 3^13 - 1 = 2 * 797161, a prime cofactor above 101^2
    with pytest.raises(FieldError, match=r"^cannot factor q - 1 = 3\^13 - 1: "
                                         r"trial division stops at 2\^24$"):
        make_field(3, 13)
    assert make_field(3, 12).q == 3 ** 12   # 3^12 - 1 = 2^4 * 5 * 7 * 13 * 73


def test_size_guard_refuses_before_factoring(monkeypatch):
    def refuse(*args):
        raise AssertionError("trial division ran")
    monkeypatch.setattr(ksum.ff, "distinct_prime_factors", refuse)
    for p, n in [(3, 2000), (3, 81), (5, 56), (3, 10 ** 9), (2 ** 129 + 1, 1)]:
        with pytest.raises(FieldError, match=rf"^fields need q = p\^n <= 2\^128, "
                                             rf"got p = {p}, n = {n}$"):
            make_field(p, n)
    # 3^80 <= 2^128 < 3^81 and 5^55 <= 2^128 < 5^56: these pass the guard
    for p, n in [(3, 80), (5, 55)]:
        with pytest.raises(AssertionError, match="trial division ran"):
            make_field(p, n)


# ----------------------------------------------------------------- tables

@pytest.mark.parametrize("p,n,modulus", [
    (3, 2, (1, 0, 1)), (3, 4, (1, 1, 1, 1, 1)), (3, 5, None), (5, 3, None), (7, 2, None),
])
def test_tables_match_oracle(p, n, modulus):
    # the two user moduli have generators other than x
    ctx = make_field(p, n, modulus)
    t = ctx.tables
    q = ctx.q
    for k, idx in enumerate(t.exp):
        want = poly_powmod(list(ctx.generator.coeffs), k, list(ctx.modulus), p)
        assert idx == sum(c * p ** i for i, c in enumerate(want)), k
    assert sorted(t.exp) == list(range(1, q))
    assert t.log[0] is None
    assert all(t.log[idx] == k for k, idx in enumerate(t.exp))
    row = [oracle_trace(ctx, ctx.element_at(idx)) for idx in t.exp]
    assert t.trace_by_log2 == row + row


def oracle_tables(ctx):
    """The field tables from one walk that multiplies coefficient tuples by g."""
    q, p = ctx.q, ctx.p
    gen, mod, basis = ctx.generator.coeffs, ctx.modulus, ctx._trace_basis
    exp = [0] * (q - 1)
    log = [None] * q
    by_log = [0] * (q - 1)
    cur = ctx.one().coeffs
    for k in range(q - 1):
        idx = sum(c * p ** i for i, c in enumerate(cur))
        if idx == 0 or log[idx] is not None:
            raise FieldError("generator does not have order q-1")
        exp[k] = idx
        log[idx] = k
        by_log[k] = sum(c * t for c, t in zip(cur, basis)) % p
        cur = ksum.ff._mulmod(gen, cur, mod, p)
    return ksum.ff.FieldTables(exp, log, by_log + by_log)


# generators other than x: x + 2, x + 1, x + 2, 2x + 1, x^3 + 2x + 1
NOT_X = [(3, 4, (1, 1, 1, 1, 1)), (3, 6, (1, 0, 0, 0, 1, 1, 1)), (5, 2, (1, 1, 1)),
         (7, 2, (1, 3, 1)), (3, 10, (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1))]
WALK_FIELDS = ([(3, n, None) for n in range(1, 11)] + [(5, n, None) for n in range(1, 6)]
               + [(7, n, None) for n in range(1, 5)] + [(11, n, None) for n in range(1, 4)]
               + [(13, n, None) for n in range(1, 4)] + [(101, 2, None), (10007, 1, None)]
               + [(3, 3, (1, 0, 2, 1)), (5, 2, (2, 1, 1))] + NOT_X)


@pytest.mark.parametrize("p,n,modulus", WALK_FIELDS)
def test_tables_match_walk_oracle(p, n, modulus):
    ctx = make_field(p, n, modulus)
    if n > 1:
        assert ((p, n, modulus) in NOT_X) == (ctx.generator.coeffs != (0, 1) + (0,) * (n - 2))
    assert ctx.tables == oracle_tables(ctx)


@pytest.mark.parametrize("p,n,modulus", [
    (5, 1, None), (7, 1, None), (3, 4, None), (3, 5, None), (5, 3, None), *NOT_X[:4],
])
def test_tables_reject_power_of_generator(p, n, modulus):
    # g^2 has order (q-1)/2; the walk meets 1 again halfway
    ctx = make_field(p, n, modulus)
    square = ctx.element_at(ctx.tables.exp[2])
    with pytest.raises(FieldError, match="generator does not have order q-1"):
        FieldCtx(p, n, ctx.modulus, square).tables


@pytest.mark.parametrize("p,n,modulus", [f for f in WALK_FIELDS if f[0] ** f[1] <= 3 ** 7])
def test_element_at_matches_divmod_oracle(p, n, modulus):
    ctx = make_field(p, n, modulus)
    for k in range(ctx.q):
        digits, r = [], k
        for _ in range(n):
            r, d = divmod(r, p)
            digits.append(d)
        assert ctx.element_at(k).coeffs == tuple(digits), k
    for k in (-1, ctx.q, ctx.q + 1):
        with pytest.raises(FieldError, match=rf"element index {k} out of range \[0, {ctx.q}\)"):
            ctx.element_at(k)


@pytest.mark.parametrize("p,modulus,generator", [
    # x in F_3[x]/(x^2 + 1) has order 4, not 8
    pytest.param(3, (1, 0, 1), (0, 1), id="order-4"),
    # zero: the walk first lands on index 0 at its last step
    pytest.param(3, (0, 1), (0,), id="zero"),
])
def test_tables_reject_generator_below_full_order(p, modulus, generator):
    ctx = FieldCtx(p, len(modulus) - 1, modulus, FFElem(generator))
    with pytest.raises(FieldError, match="generator does not have order q-1"):
        ctx.tables


def test_tables_decode_no_element(monkeypatch):
    # the walk reads exp, log and the trace row off the coefficients in hand
    ctx = make_field(3, 4, (1, 1, 1, 1, 1))

    def refuse(*args):
        raise AssertionError("tables decoded an element")
    monkeypatch.setattr(FieldCtx, "element_at", refuse)
    monkeypatch.setattr(FieldCtx, "trace", refuse)
    assert len(ctx.tables.trace_by_log2) == 2 * (ctx.q - 1)


# ------------------------------------------------------- Frobenius orbits

def oracle_least(step, i):
    """The least member of the cycle of `step` through i."""
    least, k = i, step(i)
    while k != i:
        least, k = min(least, k), step(k)
    return least


@pytest.mark.parametrize("p,n,modulus", [(3, n, None) for n in range(1, 7)]
                         + [(5, n, None) for n in range(1, 4)]
                         + [(7, 2, None), (11, 2, None),
                            (3, 4, (1, 1, 1, 1, 1)), (3, 3, (1, 0, 2, 1)),
                            (3, 7, None), (7, 3, None)])
def test_orbit_leaders_match_frobenius_oracle(p, n, modulus):
    # elements move by the polynomial Frobenius, which reads no table; the
    # first user modulus has a generator other than x
    ctx = make_field(p, n, modulus)
    if p == 3:
        # element orbits also close under a -> c^2 a, the identity at p = 3 only
        frob = lambda i: ctx.index(ctx.frobenius(ctx.element_at(i)))
        elements = range(ctx.q)
        assert (ksum.ff._orbit_leaders(ctx, elements)
                == [oracle_least(frob, i) for i in elements])
    m = ctx.q - 1
    js = range(1, m)
    assert (ksum.ff._orbit_leaders(ctx, js, exponents=True)
            == [oracle_least(lambda j: p * j % m, j) for j in js])


def oracle_joint_leaders(ctx):
    """The least member of each element's orbit under a -> a^p and a -> c^2 a,
    closed by a stack over the polynomial Frobenius and multiply."""
    scales = [ctx.from_int(c * c) for c in range(1, ctx.p)]
    least = [None] * ctx.q
    for i in range(ctx.q):
        if least[i] is not None:
            continue
        least[i], todo = i, [ctx.element_at(i)]
        while todo:
            a = todo.pop()
            for b in [ctx.frobenius(a)] + [ctx.mul(a, s) for s in scales]:
                if least[ctx.index(b)] is None:
                    least[ctx.index(b)] = i
                    todo.append(b)
    return least


@pytest.mark.parametrize("p,n,modulus", [(5, n, None) for n in range(1, 5)]
                         + [(7, n, None) for n in range(1, 4)]
                         + [(11, 2, None), (13, 1, None), (13, 2, None),
                            (5, 2, (2, 1, 1)), (7, 2, (3, 1, 1)),
                            (5, 5, None), (13, 3, None), (17, 2, None), (19, 2, None)])
def test_orbit_leaders_match_joint_oracle(p, n, modulus):
    # the oracle reads no exp or log table
    ctx = make_field(p, n, modulus)
    elements = range(ctx.q)
    assert ksum.ff._orbit_leaders(ctx, elements) == oracle_joint_leaders(ctx)


@pytest.mark.parametrize("n,modulus", [(n, None) for n in range(1, 7)]
                         + [(4, (1, 1, 1, 1, 1)), (3, (1, 0, 2, 1))])
def test_squares_step_is_trivial_at_p3(n, modulus):
    # c^2 = 1 for every c in F_3^*: the joint orbits are the Frobenius orbits
    ctx = make_field(3, n, modulus)
    frob = lambda i: ctx.index(ctx.frobenius(ctx.element_at(i)))
    joint = oracle_joint_leaders(ctx)
    assert joint == [oracle_least(frob, i) for i in range(ctx.q)]
    assert ksum.ff._orbit_leaders(ctx, range(ctx.q)) == joint


@pytest.mark.parametrize("p,n", [(3, 4), (5, 3), (7, 2), (13, 2)])
def test_orbit_walk_reads_no_exp_table(p, n, monkeypatch):
    # the walk labels keys derived from log alone
    ctx = make_field(p, n)
    monkeypatch.setattr(ctx, "tables", ctx.tables._replace(exp=None))
    elements = range(ctx.q)
    assert ksum.ff._orbit_leaders(ctx, elements) == oracle_joint_leaders(ctx)


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


@pytest.mark.parametrize("p,n,modulus", [(3, 5, None), (5, 3, None), (7, 2, None),
                                         (11, 2, None), (3, 3, (1, 0, 2, 1))])
def test_trace_matches_basis_dot_product(p, n, modulus):
    # the generator expression `trace` used before it mapped operator.mul
    ctx = make_field(p, n, modulus)
    basis = ctx._trace_basis
    for a in ctx.elements():
        assert ctx.trace(a) == sum(c * t for c, t in zip(a.coeffs, basis)) % p


def frobenius_trace_basis(ctx):
    """Trace of each basis monomial, as the sum of its n Frobenius powers."""
    out = []
    for i in range(ctx.n):
        acc = [0] * ctx.n
        t = tuple(1 if j == i else 0 for j in range(ctx.n))
        for _ in range(ctx.n):
            acc = [(u + v) % ctx.p for u, v in zip(acc, t)]
            t = ksum.ff._powmod(t, ctx.p, ctx.modulus, ctx.p)
        assert not any(acc[1:]), "trace of a basis monomial left the prime field"
        out.append(acc[0])
    return tuple(out)


@pytest.mark.parametrize("p,n,modulus", [(3, n, None) for n in range(1, 13)]
                         + [(5, n, None) for n in range(1, 7)]
                         + [(7, n, None) for n in range(1, 5)]
                         + [(11, n, None) for n in range(1, 4)]
                         + [(13, n, None) for n in range(1, 4)]
                         + [(3, 21, None), (3, 30, None), (3, 4, (1, 1, 1, 1, 1)),
                            (3, 3, (1, 0, 2, 1)), (5, 2, (2, 1, 1))])
def test_trace_basis_matches_frobenius_sums(p, n, modulus):
    # Newton's identities on the modulus against the sum of Frobenius powers
    ctx = make_field(p, n, modulus)
    assert ctx._trace_basis == frobenius_trace_basis(ctx)


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
        s = set(build_subset(f27, kind).exponents)
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


def test_exponent_set_checks_its_closure_once_made():
    with pytest.raises(FieldError, match="not closed"):
        ExponentSet(3, 27, (1, 3), "custom")
    for bad in (26, -1):
        with pytest.raises(FieldError, match="outside"):
            ExponentSet(3, 27, (bad,), "custom")
    assert ExponentSet(3, 27, (1, 3, 9), "W").exponents == (1, 3, 9)


def test_power_sum_checks_the_set_was_made_for_this_field(f9, f27):
    with pytest.raises(FieldError, match="made for p=3, q=27"):
        power_sum(f9, build_subset(f27, "W"), f9.one())
    # closure does not depend on the modulus, so an isomorphic field may use the set
    other = make_field(3, 3, (1, 2, 0, 1))
    assert other.modulus != f27.modulus
    x27 = build_subset(f27, "X")
    for a in other.elements():
        assert power_sum(other, x27, a) == power_sum(other, build_subset(other, "X"), a)


def test_power_sum_lands_in_prime_field(f27):
    x = build_subset(f27, "X")
    for a in f27.elements():
        v = power_sum(f27, x, a)
        assert 0 <= v < 3


def per_exponent_power_sums(ctx, subset):
    """power_sum at every element index, by the per-exponent loop that
    power_sum ran before it summed by orbit: each power a^s is one table
    lookup, and no orbit or trace is used.  Index 0 gets 1 from 0^0 alone."""
    p, m, exp = ctx.p, ctx.q - 1, ctx.tables.exp
    # each coefficient vector packed into one integer, 16 bits a coefficient,
    # so that summing vectors is summing integers (no column reaches 2^16)
    packed = [sum(c << 16 * i for i, c in enumerate(ctx.element_at(j).coeffs))
              for j in range(ctx.q)]
    out = [int(0 in subset.exponents)] + [None] * m
    for k in range(m):
        w = sum(packed[exp[k * s % m]] for s in subset.exponents)
        total = [(w >> 16 * i & 0xFFFF) % p for i in range(ctx.n)]
        assert not any(total[1:])
        out[exp[k]] = total[0]
    return out


@pytest.mark.parametrize("p,n,modulus,kinds", [(3, n, None, "WXYZ") for n in range(3, 10)] + [
    (3, 6, (1, 0, 0, 0, 1, 1, 1), "WXYZ"),    # x is not primitive here
    (5, 2, None, "W"), (5, 3, None, "W"), (5, 5, None, "W"), (7, 2, None, "W"),
])
def test_power_sum_matches_per_exponent_oracle(p, n, modulus, kinds):
    ctx = make_field(p, n, modulus)
    for kind in kinds:
        subset = build_subset(ctx, kind)
        assert ([power_sum(ctx, subset, a) for a in ctx.elements()]
                == per_exponent_power_sums(ctx, subset)), kind


@pytest.mark.parametrize("n,short", [(3, ((13, 1),)), (6, ((91, 2),)), (9, ((757, 3),))])
def test_y_has_short_orbits_where_3_divides_n(n, short):
    # a Y orbit {i, i + n/3, i + 2n/3} has length d = n/3, so 3 | n/d and
    # it takes the direct path
    orbits = build_subset(make_field(3, n), "Y").orbits
    assert tuple((r, d) for r, d in orbits if n // d % 3 == 0) == short


@pytest.mark.parametrize("exponent", [0, 364])
def test_power_sum_fixed_exponent_takes_direct_path(exponent, monkeypatch):
    # {0} and {(q-1)/2} are orbits of length d = 1, and p = 3 divides
    # n/d = 6, so their absolute trace is 0 and the powers are summed
    ctx = make_field(3, 6)
    subset = custom_subset(ctx, (exponent,))
    assert subset.orbits == ((exponent, 1),)
    monkeypatch.setattr(FieldCtx, "trace", None)
    assert ([power_sum(ctx, subset, a) for a in ctx.elements()]
            == per_exponent_power_sums(ctx, subset))


def test_mod27_makes_one_power_per_orbit(monkeypatch):
    ctx = make_field(3, 7)
    x, y = build_subset(ctx, "X"), build_subset(ctx, "Y")
    assert (len(x.exponents), len(x.orbits), len(y.exponents), len(y.orbits)) == (28, 4, 35, 5)
    calls = []

    def counted(self, a, e, _real=FieldCtx.pow):
        calls.append(e)
        return _real(self, a, e)
    monkeypatch.setattr(FieldCtx, "pow", counted)
    for a in ctx.elements():
        calls.clear()
        check_mod27(ctx, a)
        assert sorted(calls) == sorted(r for r, _ in x.orbits + y.orbits), a


def test_orbit_plan_allocates_nothing_of_field_size():
    # at n = 21 the field tables are refused, but the orbit plan of Y walks
    # only its 1330 exponents; power_sum then stops at the table cap
    ctx = make_field(3, 21)
    y = build_subset(ctx, "Y")
    assert sum(d for _, d in y.orbits) == len(y.exponents) == 1330
    assert [(r, d) for r, d in y.orbits if d < 21] == [(1 + 3 ** 7 + 3 ** 14, 7)]
    with pytest.raises(FieldError, match="above the cap"):
        power_sum(ctx, y, ctx.one())
