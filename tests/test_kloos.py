"""Kloosterman sums against a direct elementwise oracle.

The oracle walks every field element and tallies trace values with no log
or trace tables: it inverts x as x^(q-2) by square-and-multiply, and the
field primitives it leans on (mul, trace) are themselves pinned to
schoolbook oracles in test_ff. The fast path must reproduce its count
vector exactly, element by element.
"""

import operator
from array import array
from collections import Counter
from functools import reduce

import pytest

import ksum._kloos_table
import ksum.ff
import ksum.kloos
from ksum.cli import main
from ksum.cyclo import CycInt, product_linear
from ksum.ff import make_field
from ksum.kloos import (InternalCheckError, check_conjugate_product,
                        check_min_poly_degree, check_min_poly_reduction,
                        check_mod9, check_mod27, check_weil_bound,
                        conjugate_family, kloosterman, min_poly)
from ksum.sweeps import VerificationJob, run_verification


def oracle_inv(ctx, x):
    """x^(q-2) through ctx.mul, which reads no table; 0 maps to 0."""
    acc, base, e = ctx.one(), x, ctx.q - 2
    while e:
        if e & 1:
            acc = ctx.mul(acc, base)
        base = ctx.mul(base, base)
        e >>= 1
    return acc


def oracle_counts(ctx, a):
    counts = [0] * ctx.p
    for x in ctx.elements():
        arg = ctx.add(oracle_inv(ctx, x), ctx.mul(a, x))
        counts[ctx.trace(arg)] += 1
    return tuple(counts)


@pytest.mark.parametrize("p,n,modulus", [
    pytest.param(3, 2, None, id="3-2"),
    pytest.param(3, 3, None, id="3-3"),
    pytest.param(5, 2, None, id="5-2"),
    # user moduli whose generator is not x
    pytest.param(3, 2, (1, 0, 1), id="3-2-mod1,0,1"),
    pytest.param(3, 4, (1, 1, 1, 1, 1), id="3-4-mod1,1,1,1,1"),
])
def test_counts_match_oracle_exhaustive(p, n, modulus):
    ctx = make_field(p, n, modulus)
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
    poly = min_poly(f25, g).char_poly
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
        assert res.min_poly.coeffs[-1] == 1


def test_min_poly_degree_one_when_orbit_collapses(f25):
    res = min_poly(f25, f25.zero())
    assert res.min_poly.coeffs == (0, 1)
    assert res.multiplicity == 2


@pytest.mark.parametrize("p,n", [
    (3, 2), (3, 3), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (11, 1), (11, 2),
    (13, 1), (13, 2), (17, 1), (19, 1), (23, 1),
])
def test_char_poly_matches_expansion_of_whole_family(p, n):
    # min_poly expands each distinct conjugate once; the oracle expands the
    # whole family, repeats included
    ctx = make_field(p, n)
    for a in ctx.elements():
        family = [kv.value for kv in conjugate_family(ctx, a)]
        assert min_poly(ctx, a).char_poly == product_linear(family), a


def test_min_poly_rejects_unequal_repeats(monkeypatch):
    ctx = make_field(7, 1)
    k1, k3 = kloosterman(ctx, ctx.one()), kloosterman(ctx, ctx.from_int(3))
    assert k1.value != k3.value
    monkeypatch.setattr(ksum.kloos, "conjugate_family", lambda c, a: (k1, k1, k3))
    with pytest.raises(InternalCheckError, match="repeat unequally"):
        min_poly(ctx, ctx.one())


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


# --------------------------------------------- whole-field transform engine

_TABLE_FIELDS = ([(3, n, None) for n in range(1, 9)]
                 + [(5, n, None) for n in range(1, 6)]
                 + [(7, n, None) for n in range(1, 5)]
                 + [(11, n, None) for n in range(1, 4)]
                 + [(3, 2, (1, 0, 1)), (3, 3, (1, 0, 2, 1))])


@pytest.mark.parametrize("p,n,modulus", _TABLE_FIELDS)
def test_count_table_matches_per_row_oracle(p, n, modulus):
    # every q <= 3^8 for p in {3, 5, 7, 11}, n = 1 included, and two user
    # moduli; in x^2 + 1 over F_3 the basis monomial x is not a generator
    ctx = make_field(p, n, modulus)
    rows = ksum.kloos._count_table(ctx)
    assert rows == [ksum.kloos._count_row(ctx, i) for i in range(ctx.q)]


def test_count_table_shares_equal_rows():
    # one tuple object per distinct row, so the table costs a pointer per element
    rows = ksum.kloos._count_table(make_field(3, 6))
    assert len({id(r) for r in rows}) == len(set(rows)) < len(rows)


def slab_count_table(ctx):
    """Every counting row from a transform on lists, the oracle of the packed
    one: n passes over the top digit of y, each summing p slabs of q/p
    entries shifted by b*x, whose output digit b becomes the lowest digit, so
    after n passes the digits are back in index order.  O(n * q * p^2) steps."""
    p, n, q = ctx.p, ctx.n, ctx.q
    t = ctx.tables
    y = [0] * (q - 1)
    for i in reversed(range(n)):
        start = t.log[p ** i]
        y = [v * p + c for v, c in zip(y, t.trace_by_log2[start:start + q - 1])]
    h = [None] * q
    h[0] = 0
    for v, s in zip(y, t.trace_by_log2[q - 1:0:-1]):
        h[v] = s
    assert None not in h
    c = [[int(v == s) for v in h] for s in range(p)]
    m = q // p
    for _ in range(n):
        slabs = [[cs[x * m:(x + 1) * m] for x in range(p)] for cs in c]
        c = [[0] * q for _ in range(p)]
        for b in range(p):
            for s in range(p):
                c[s][b::p] = reduce(lambda u, v: map(operator.add, u, v),
                                    [slabs[(s - b * x) % p][x] for x in range(p)])
    return [tuple(r) for r in zip(*c)]


@pytest.mark.parametrize("n", [9, 10])
def test_count_table_matches_slab_oracle(n):
    # sizes where the per-row oracle is too slow for tier 1
    ctx = make_field(3, n)
    assert ksum.kloos._count_table(ctx) == slab_count_table(ctx)


@pytest.mark.parametrize("p,n,modulus", [f for f in _TABLE_FIELDS if f[1] >= 2])
def test_count_table_moments(p, n, modulus):
    # sum over a != 0 of Kl(a)^k, Kl = K - 1, in Z[zeta_p] from the rows
    ctx = make_field(p, n, modulus)
    rows = ksum.kloos._count_table(ctx)
    q, one = ctx.q, CycInt.from_int(p, 1)
    moments = {2: CycInt.zero(p), 4: CycInt.zero(p)}
    for row, mult in Counter(rows[1:]).items():
        kl = CycInt.from_power_counts(p, row) - one
        kl2 = kl * kl
        moments[2] = moments[2] + CycInt.from_int(p, mult) * kl2
        moments[4] = moments[4] + CycInt.from_int(p, mult) * kl2 * kl2
    assert moments[2].as_rational() == q * q - q - 1
    assert moments[4].as_rational() == 2 * q ** 3 - 3 * q * q - 3 * q - 1


def corrupt_planes(monkeypatch, corrupt):
    real = ksum._kloos_table.planes
    monkeypatch.setattr(ksum._kloos_table, "planes", lambda ctx: corrupt(ctx, real(ctx)))


def test_count_table_rejects_a_corrupt_row_class(monkeypatch):
    # K -> K + 3 on every element of one class: still rational, and every
    # row still sums to q, so only the moments see it
    ctx = make_field(3, 5)
    rows = ksum.kloos._count_table(ctx)
    victim = rows[1]
    W = ksum._kloos_table.W

    def corrupt(ctx, planes):
        c0, c1, c2 = planes
        for a, row in enumerate(rows):
            if row == victim:
                c0, c1, c2 = c0 + (2 << W * a), c1 - (1 << W * a), c2 - (1 << W * a)
        return [c0, c1, c2]

    corrupt_planes(monkeypatch, corrupt)
    with pytest.raises(InternalCheckError, match="moment 2"):
        ksum.kloos._count_table(ctx)


def test_count_table_rejects_a_plane_wider_than_the_table(monkeypatch, capsys):
    # an output digit shifted one field too far must stop the sweep with
    # exit 3, not overflow int.to_bytes
    W = ksum._kloos_table.W
    corrupt_planes(monkeypatch, lambda ctx, planes: [c << W for c in planes])
    with pytest.raises(InternalCheckError, match="overflows"):
        ksum.kloos._count_table(make_field(3, 4))
    assert main(["spectrum", "--field", "p=3,n=4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: a packed count overflows the table\n"


def test_packed_count_field_holds_the_table_cap():
    # a count is at most q <= MAX_TABLE_Q; raising the cap past the field
    # width would let one count carry into the next element's field
    table = ksum._kloos_table
    assert ksum.ff.MAX_TABLE_Q < 2 ** table.W
    assert array(table._TYPECODE).itemsize * 8 == table.W
