"""Cyclotomic-integer tests against an unreduced power-vector oracle.

The oracle keeps coefficients on all p powers of the root and treats two
vectors as equal when they differ by a constant vector (the all-powers sum
is zero). Canonical form subtracts the last coordinate, which lands on the
same basis the implementation uses.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ksum._product_tree
from ksum.cyclo import (CycInt, IntPolynomial, NonRationalCoefficient,
                        product_linear)
from ksum.ff import make_field
from ksum.kloos import conjugate_family


# ---------------------------------------------------------------- oracle

def vec_canon(p, vec):
    last = vec[p - 1]
    return tuple(vec[k] - last for k in range(p - 1))


def vec_from_cyc(u):
    return list(u.coords) + [0]


def vec_mul(p, a, b):
    out = [0] * p
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[(i + j) % p] += x * y
    return out


def vec_add(a, b):
    return [x + y for x, y in zip(a, b)]


def vec_galois(p, a, i):
    out = [0] * p
    for k, x in enumerate(a):
        out[(k * i) % p] += x
    return out


def rand_cyc(p, rng, size=9):
    return CycInt(p, tuple(rng.randrange(-size, size + 1) for _ in range(p - 1)))


def zeta(p, k):
    """zeta^k, from its one-hot exponent counts."""
    return CycInt.from_power_counts(p, [int(t == k % p) for t in range(p)])


def schoolbook_product_linear(roots):
    """prod (x - r) by a left-to-right chain of CycInt multiplies: the
    expansion product_linear made before it packed the product tree."""
    if not roots:
        return IntPolynomial((1,))
    p = roots[0].p
    poly = [CycInt.one(p)]
    for r in roots:
        neg = -r
        shifted = [CycInt.zero(p)] + poly          # x * poly
        scaled = [neg * c for c in poly] + [CycInt.zero(p)]
        poly = [u + v for u, v in zip(shifted, scaled)]
    out = []
    for idx, c in enumerate(poly):
        v = c.as_rational()
        if v is None:
            raise NonRationalCoefficient(idx, c)
        out.append(v)
    return IntPolynomial(tuple(out))


def expansion(expand, roots):
    """The expansion, or the index and value of its first non-rational
    coefficient."""
    try:
        return expand(roots)
    except NonRationalCoefficient as e:
        return e.index, e.value


# ----------------------------------------------------------- construction

def test_from_power_counts_matches_sum():
    counts = (4, 0, 2, 1, 3)
    u = CycInt.from_power_counts(5, counts)
    assert u.coords == vec_canon(5, counts)
    v = CycInt.zero(5)
    for k, c in enumerate(counts):
        v = v + CycInt.from_int(5, c) * zeta(5, k)
    assert u == v


def test_all_powers_sum_to_zero():
    for p in (3, 5, 7, 11):
        total = CycInt.zero(p)
        for k in range(p):
            total = total + zeta(p, k)
        assert total == CycInt.zero(p)
        assert total.as_rational() == 0


def test_as_rational():
    assert CycInt.from_int(7, -12).as_rational() == -12
    assert zeta(7, 1).as_rational() is None
    assert zeta(3, 1).as_rational() is None


def test_wrong_coord_length_rejected():
    with pytest.raises(ValueError):
        CycInt(5, (1, 2, 3))


# ------------------------------------------------------------ arithmetic

@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_mul_matches_unreduced_oracle(seed):
    rng = random.Random(seed)
    p = rng.choice((3, 5, 7))
    u, v = rand_cyc(p, rng), rand_cyc(p, rng)
    got = u * v
    want = vec_canon(p, vec_mul(p, vec_from_cyc(u), vec_from_cyc(v)))
    assert got.coords == want


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_ring_laws(seed):
    rng = random.Random(seed)
    p = rng.choice((3, 5, 7))
    u, v, w = (rand_cyc(p, rng) for _ in range(3))
    assert u * v == v * u
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w
    assert u + (-u) == CycInt.zero(p)
    assert 3 * u == u + u + u
    assert u * 1 == u


# ---------------------------------------------------------- galois action

def test_galois_composition_exhaustive_p5():
    rng = random.Random(11)
    for _ in range(20):
        u = rand_cyc(5, rng)
        for i in range(1, 5):
            for j in range(1, 5):
                assert u.galois(j).galois(i) == u.galois((i * j) % 5)


def test_galois_matches_oracle():
    rng = random.Random(23)
    for p in (3, 5, 7):
        for _ in range(10):
            u = rand_cyc(p, rng)
            for i in range(1, p):
                want = vec_canon(p, vec_galois(p, vec_from_cyc(u), i))
                assert u.galois(i).coords == want


def test_galois_identity_and_units():
    u = CycInt(5, (1, -2, 0, 7))
    assert u.galois(1) == u
    assert u.galois(6) == u  # index taken mod p
    with pytest.raises(ValueError):
        u.galois(5)
    with pytest.raises(ValueError):
        u.galois(0)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_galois_is_ring_hom(seed):
    rng = random.Random(seed)
    p = rng.choice((5, 7))
    u, v = rand_cyc(p, rng), rand_cyc(p, rng)
    i = rng.randrange(1, p)
    assert (u * v).galois(i) == u.galois(i) * v.galois(i)
    assert (u + v).galois(i) == u.galois(i) + v.galois(i)


def test_rational_iff_galois_fixed():
    rng = random.Random(37)
    for p in (3, 5, 7):
        for _ in range(40):
            u = rand_cyc(p, rng)
            fixed = all(u.galois(i) == u for i in range(1, p))
            assert (u.as_rational() is not None) == fixed


# -------------------------------------------------------- integer polys

def test_poly_normalization():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial(()).degree == -1
    assert IntPolynomial.x_power(3).coeffs == (0, 0, 0, 1)
    assert IntPolynomial.x_power(0).coeffs == (1,)


def test_poly_mul_pow_eval():
    f = IntPolynomial((-1, 1))       # x - 1
    g = IntPolynomial((2, 3))        # 3x + 2
    assert (f * g).coeffs == (-2, -1, 3)
    assert (f ** 3).coeffs == (-1, 3, -3, 1)
    assert (f ** 0).coeffs == (1,)
    assert f(5) == 4
    assert (f * g)(7) == f(7) * g(7)


def test_poly_mod_coeffs_and_str():
    f = IntPolynomial((-45, 0, 1))
    assert f.mod_coeffs(5) == (0, 0, 1)
    assert str(f) == "x^2 - 45"
    assert str(IntPolynomial(())) == "0"
    assert str(IntPolynomial((3,))) == "3"


def naive_expand(int_roots):
    coeffs = [1]
    for r in int_roots:
        shifted = [0] + coeffs
        coeffs = [c - r * d for c, d in
                  itertools.zip_longest(shifted, coeffs + [0], fillvalue=0)]
        coeffs = coeffs[:len(shifted)]
    return tuple(coeffs)


@given(st.lists(st.integers(-8, 8), min_size=1, max_size=5))
@settings(max_examples=80, deadline=None)
def test_product_linear_integer_roots(int_roots):
    roots = [CycInt.from_int(5, r) for r in int_roots]
    got = product_linear(roots)
    want = naive_expand(int_roots)
    assert got.coeffs == tuple(want)
    assert got.coeffs[-1] == 1
    assert got.degree == len(int_roots)


def test_product_linear_permutation_invariant():
    rng = random.Random(5)
    # a galois-stable family has a rational product regardless of order
    u = CycInt(5, (2, -1, 0, 3))
    fam = [u.galois(i) for i in range(1, 5)]
    base = product_linear(fam)
    for _ in range(6):
        rng.shuffle(fam)
        assert product_linear(fam) == base


def test_product_linear_rejects_unbalanced_roots():
    with pytest.raises(NonRationalCoefficient) as exc:
        product_linear([zeta(5, 1)])
    assert exc.value.index == 0


# ----------------------------------------- packed tree against schoolbook

@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_product_linear_matches_schoolbook(seed):
    """Balanced (Galois-stable) and unbalanced roots, with large and negative
    coordinates: equal polynomials, or the same index and value raised."""
    rng = random.Random(seed)
    p = rng.choice((3, 5, 7, 11, 13, 31))
    size = rng.choice((1, 9, 10 ** 4, 10 ** 40))
    if rng.random() < 0.5:
        u = rand_cyc(p, rng, size)
        roots = [u.galois(i) for i in range(1, p)]
        rng.shuffle(roots)
    else:
        roots = [rand_cyc(p, rng, size) for _ in range(rng.randrange(1, 10))]
    assert (expansion(product_linear, roots)
            == expansion(schoolbook_product_linear, roots))


def test_product_linear_degree_zero_and_one():
    assert product_linear([]) == schoolbook_product_linear([]) == IntPolynomial((1,))
    for p in (3, 5, 31):
        for c in (0, 1, -1, 7, -(10 ** 30)):
            root = CycInt.from_int(p, c)
            assert product_linear([root]).coeffs == (-c, 1)
            assert product_linear([root]) == schoolbook_product_linear([root])


def test_product_linear_rejects_mixed_orders():
    for roots in ([CycInt.one(5), CycInt.one(7)],
                  [CycInt.one(3)] * 4 + [CycInt.one(5)]):
        with pytest.raises(ValueError, match="mixed cyclotomic orders"):
            product_linear(roots)
        with pytest.raises(ValueError, match="mixed cyclotomic orders"):
            schoolbook_product_linear(roots)


@pytest.mark.parametrize("roots", [
    [zeta(5, 1)],
    [CycInt(7, (3, 1, 0, 0, 0, -2)), CycInt(7, (3, -1, 0, 0, 0, 2))],
    [CycInt(5, (1, 2, 3, 4)).galois(i) for i in (1, 2, 3)],
    [CycInt(11, (0,) * 9 + (10 ** 20,))] * 3,
])
def test_product_linear_unbalanced_roots_name_the_same_coefficient(roots):
    with pytest.raises(NonRationalCoefficient) as got:
        product_linear(roots)
    with pytest.raises(NonRationalCoefficient) as want:
        schoolbook_product_linear(roots)
    assert (got.value.index, got.value.value) == (want.value.index, want.value.value)


def test_product_linear_fifty_conjugates_at_p101():
    """d = 50 at p = 101: the widest slots any CLI run packs."""
    ctx = make_field(101, 2)
    family = [kv.value for kv in conjugate_family(ctx, ctx.one())]
    assert len(set(family)) == 50
    got = product_linear(family)
    assert got == schoolbook_product_linear(family)
    assert got.degree == 50 and got.mod_coeffs(101) == IntPolynomial.x_power(50).coeffs


@pytest.mark.parametrize("p,n", [(5, 3), (7, 3), (11, 3), (13, 2)])
def test_product_linear_every_conjugate_family(p, n):
    ctx = make_field(p, n)
    families = {frozenset(kv.value for kv in conjugate_family(ctx, a))
                for a in ctx.elements()}
    for family in families:
        roots = sorted(family, key=lambda u: u.coords)
        assert product_linear(roots) == schoolbook_product_linear(roots), roots


def test_product_linear_needs_its_slot_width(monkeypatch):
    """One byte narrower than slot_bytes corrupts x^2 - c^2 at c = 2^13,
    whose slot value c^2 comes within 5 bits of the width."""
    c = CycInt.from_int(3, 2 ** 13)
    want = IntPolynomial((-2 ** 26, 0, 1))
    assert product_linear([c, -c]) == want
    real = ksum._product_tree.slot_bytes
    monkeypatch.setattr(ksum._product_tree, "slot_bytes", lambda bound: real(bound) - 1)
    assert expansion(product_linear, [c, -c]) != want
