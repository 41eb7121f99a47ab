"""Kloosterman sums against a direct elementwise oracle.

The oracle walks every field element and tallies trace values with no log
or trace tables; the field primitives it leans on (mul, inv, trace) are
themselves pinned to schoolbook oracles in test_ff. The fast path must
reproduce its count vector exactly, element by element.
"""

import pytest

from ksum.cyclo import CycInt
from ksum.ff import make_field
from ksum.kloos import (char_poly, check_conjugate_product,
                        check_min_poly_degree, check_min_poly_reduction,
                        check_mod9, check_mod27, check_weil_bound,
                        conjugate_family, kloosterman, min_poly)
from ksum.sweeps import VerificationJob, run_verification


def oracle_counts(ctx, a):
    counts = [0] * ctx.p
    for x in ctx.elements():
        arg = ctx.add(ctx.inv(x), ctx.mul(a, x))
        counts[ctx.trace(arg)] += 1
    return tuple(counts)


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2)])
def test_counts_match_oracle_exhaustive(p, n):
    ctx = make_field(p, n)
    for a in ctx.elements():
        kv = kloosterman(ctx, a)
        assert kv.counts == oracle_counts(ctx, a)
        assert sum(kv.counts) == ctx.q
        assert kv.value == CycInt.from_power_counts(p, kv.counts)


def test_value_at_zero_is_zero():
    for p, n in ((3, 1), (3, 3), (5, 2), (7, 2)):
        ctx = make_field(p, n)
        assert kloosterman(ctx, ctx.zero()).as_int() == 0


def test_prime_field_value_frozen():
    ctx = make_field(3, 1)
    assert kloosterman(ctx, ctx.one()).as_int() == 0
    # q = 3: the three sums are 0, 0, 3 in some order over a
    vals = sorted(kloosterman(ctx, a).as_int() for a in ctx.elements())
    assert vals == [0, 0, 3]


def test_galois_equivariance_exhaustive_f25(f25):
    for a in f25.elements():
        base = kloosterman(f25, a).value
        for i in range(1, 5):
            scaled = f25.mul(a, f25.from_int(i * i))
            assert kloosterman(f25, scaled).value == base.galois(i)


def test_char_poly_frozen_f25_generator(f25):
    g = f25.generator
    poly = char_poly(f25, g)
    assert poly.coeffs == (-45, 0, 1)
    # cross-check the coefficients against the conjugate values themselves
    k1, k2 = (kv.value for kv in conjugate_family(f25, g))
    assert k1 + k2 == CycInt.zero(5)
    assert k1 * k2 == CycInt.from_int(5, -45)


def test_min_poly_power_identity(f25):
    for a in f25.elements():
        res = min_poly(f25, a)
        assert res.min_poly ** res.multiplicity == res.char_poly
        assert res.char_poly.degree == 2
        assert res.min_poly.is_monic()


def test_min_poly_degree_one_when_orbit_collapses(f25):
    res = min_poly(f25, f25.zero())
    assert res.min_poly.coeffs == (0, 1)
    assert res.multiplicity == 2


@pytest.mark.parametrize("p,n", [(3, 3), (5, 2), (7, 2), (5, 1), (7, 1), (11, 1)])
def test_conjugate_product_mod_p2_exhaustive(p, n):
    ctx = make_field(p, n)
    for a in ctx.elements():
        rep = check_conjugate_product(ctx, a)
        assert rep.passed, (a, rep)
        assert rep.modulus == p * p
        assert rep.subject == "thm1"


def test_conjugate_product_rejects_ternary_prime_field():
    # at p = 3 the product is K(a) alone: the mod-9 law, which needs n > 1
    ctx = make_field(3, 1)
    with pytest.raises(ValueError, match="at p = 3 requires n > 1"):
        check_conjugate_product(ctx, ctx.one())


def test_conjugate_product_zero_trace_case(f27):
    a = next(x for x in f27.elements() if f27.trace(x) == 0 and not x.is_zero())
    rep = check_conjugate_product(f27, a)
    assert rep.passed
    assert rep.lhs == 0 and rep.rhs == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mod9_exhaustive(n):
    ctx = make_field(3, n)
    for a in ctx.elements():
        rep = check_mod9(ctx, a)
        assert rep.passed, (a, rep)
        assert rep.rhs == (3 * ctx.trace(a)) % 9


@pytest.mark.parametrize("n", [3, 4])
def test_mod27_exhaustive(n):
    ctx = make_field(3, n)
    for a in ctx.elements():
        rep = check_mod27(ctx, a)
        assert rep.passed, (a, rep)
        assert rep.modulus == 27


def test_mod27_requires_depth(f9):
    with pytest.raises(Exception):
        check_mod27(f9, f9.one())


def test_min_poly_reduction_and_degree(f25):
    for a in f25.elements():
        assert check_min_poly_reduction(f25, a).passed
        rep = check_min_poly_degree(f25, a)
        assert rep.passed
        if f25.trace(a) != 0:
            res = min_poly(f25, a)
            assert res.min_poly.degree == 2
            assert res.multiplicity == 1


def test_weil_bound_exhaustive():
    for n in (2, 3, 4):
        ctx = make_field(3, n)
        for a in ctx.elements():
            rep = check_weil_bound(ctx, a)
            assert rep.passed
            k = kloosterman(ctx, a).as_int()
            assert k * k <= 4 * ctx.q
            assert rep.lhs == k * k


def spectrum_sweep(p, n):
    return run_verification(VerificationJob(p, n, "spectrum", jobs=1))


def test_spectrum_frozen_f27():
    # regression anchor; each entry is pinned by the elementwise oracle above
    assert spectrum_sweep(3, 3).histogram == {-9: 1, -6: 3, -3: 6, 0: 4, 3: 6, 6: 3, 9: 4}


def test_spectrum_checksum():
    for p, n in ((3, 2), (3, 3), (3, 4), (5, 2), (7, 2)):
        checksum = spectrum_sweep(p, n).cases[0]
        assert checksum.subject == "spectrum/checksum"
        assert checksum.lhs == p ** n
        assert checksum.passed


def test_spectrum_values_divisible_by_three():
    for value, count in spectrum_sweep(3, 3).histogram.items():
        assert value % 3 == 0
        assert count > 0
