"""p-adic layer tests.

gamma_p is pinned to a recurrence oracle: Gamma(0) = 1 and
Gamma(k+1) = -k * Gamma(k) when p does not divide k, else -Gamma(k).
The tables the implementation reads must give the same ladder, and are
checked against their definitions by a direct unit product.
Teichmuller lifts are pinned by their defining properties, which determine
them uniquely: reduction, (q-1)-th root of unity, multiplicativity; and by
the K-step Frobenius loop, as an oracle.
"""

import math
import operator
import pickle
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ksum.padic
from ksum.ff import build_subset, make_field, power_sum
from ksum.kloos import CongruenceReport, InternalCheckError, kloosterman
from ksum.padic import (PadicInt, PiMonomial, _power_combination,
                        check_fourier_mod27, check_gauss_square_mod27,
                        check_stickelberger,
                        gamma_p, gauss_square_mod27, gauss_sum,
                        identity_reports, lift_field, lifted_power_sum,
                        p_weight, padic_from_rational, teichmuller)


def oracle_gamma(k, p, pk):
    acc = 1
    for t in range(k):
        acc = (-acc * (t if t % p else 1)) % pk
    return acc


def oracle_gamma_ladder(p, pk):
    """oracle_gamma at every k < pk, one recurrence step apart."""
    values = [1]
    for t in range(pk - 1):
        values.append(-values[-1] * (t if t % p else 1) % pk)
    return values


# ------------------------------------------------------------- PadicInt

def test_padic_normalization_and_ops():
    x = PadicInt(3, 3, 29)
    assert x.residue == 2
    assert (x + PadicInt(3, 3, 26)).residue == 1
    assert (x * 14).residue == 1
    assert (-PadicInt(3, 3, 1)).residue == 26
    assert (PadicInt(3, 3, 2) ** -1).residue == 14
    assert PadicInt(3, 3, 25).reduce(1).residue == 1


def test_padic_mixed_precision_rejected():
    with pytest.raises(ValueError):
        PadicInt(3, 3, 1) + PadicInt(3, 2, 1)


def test_from_rational():
    assert padic_from_rational(3, 26, 3, 3).residue == 24
    assert padic_from_rational(1, 26, 3, 3).residue == 26
    assert padic_from_rational(9, 26, 3, 3).residue == 18
    with pytest.raises(ValueError):
        padic_from_rational(1, 3, 3, 3)
    for precision in (0, -1):
        with pytest.raises(ValueError, match="precision must be at least 1"):
            padic_from_rational(1, 2, 3, precision)


@given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_from_rational_round_trip(num, den):
    p = 5
    if den % p == 0:
        den += 1
    x = padic_from_rational(num, den, p, 4)
    assert (x * den).residue == num % 5 ** 4


# -------------------------------------------------------------- gamma_p

def test_gamma_frozen_values_mod_27():
    assert gamma_p(PadicInt(3, 3, 24)).residue == 13
    assert gamma_p(PadicInt(3, 3, 18)).residue == 1
    assert gamma_p(PadicInt(3, 3, 26)).residue == 1
    assert gamma_p(PadicInt(3, 3, 0)).residue == 1
    assert gamma_p(PadicInt(3, 3, 1)).residue == 26  # -1


def test_gamma_matches_recurrence_oracle():
    for p, precision in ((3, 3), (3, 4), (5, 3), (7, 2)):
        pk = p ** precision
        for k in range(pk):
            got = gamma_p(PadicInt(p, precision, k)).residue
            assert got == oracle_gamma(k, p, pk), (p, precision, k)


def _gamma_from_cold_cache(p, precision, ks):
    ksum.padic._gamma_tables.cache_clear()
    return {k: gamma_p(PadicInt(p, precision, k)).residue for k in ks}


@pytest.mark.parametrize("p,precision", [(3, 1), (11, 1), (101, 1), (3, 5), (3, 6),
                                         (5, 3), (7, 3), (11, 2), (11, 3), (101, 2)])
def test_gamma_table_matches_oracle_in_any_order(p, precision):
    """Every residue, from a cold (p, K) cache, ascending, descending and shuffled."""
    pk = p ** precision
    expect = dict(enumerate(oracle_gamma_ladder(p, pk)))
    shuffled = list(range(pk))
    random.Random(p * 100 + precision).shuffle(shuffled)
    for order in (range(pk), range(pk - 1, -1, -1), shuffled):
        assert _gamma_from_cold_cache(p, precision, order) == expect, (p, precision)


@pytest.mark.parametrize("p,precision", [(3, 9), (5, 6), (7, 5), (11, 4)])
def test_gamma_table_block_boundaries(p, precision):
    """k = m*B - 1, m*B, m*B + 1 at B = p^ceil(K/2), and k = p^K - 1."""
    pk = p ** precision
    block = p ** -(-precision // 2)
    ks = sorted({m * block + d for m in (1, 2, 3, pk // block - 1) for d in (-1, 0, 1)}
                | {pk - 1})
    expect = {k: oracle_gamma(k, p, pk) for k in ks}
    for order in (ks, ks[::-1]):
        assert _gamma_from_cold_cache(p, precision, order) == expect, (p, precision)


def unit_product(lo, hi, p, pk):
    """The t in [lo, hi) coprime to p, multiplied mod pk."""
    acc = 1
    for t in range(lo, hi):
        if t % p:
            acc = acc * t % pk
    return acc


@pytest.mark.parametrize("p,precision", [(3, 1), (3, 4), (3, 9), (5, 3), (7, 4),
                                         (11, 3), (101, 2)])
def test_gamma_every_block_has_the_same_unit_product(p, precision):
    """The units of each [m*B, m*B + B) multiply to c = P[B] mod p^K, so c^m
    replaces them; P and H also match their definitions entry by entry."""
    pk = p ** precision
    block = p ** -(-precision // 2)
    mod = pk // block
    prefix, harmonic = ksum.padic._gamma_tables(p, precision)
    assert (len(prefix), len(harmonic)) == (block + 1, mod)
    for lo in range(0, pk, block):
        assert unit_product(lo, lo + block, p, pk) == prefix[block], (p, precision, lo)
    assert list(prefix) == [unit_product(0, r, p, pk) for r in range(block + 1)]
    inverses = [pow(s, -1, mod) if s % p and mod > 1 else 0 for s in range(mod)]
    assert list(harmonic) == [sum(inverses[:r]) % mod for r in range(mod)]


@pytest.mark.parametrize("p,precision,k,bound", [
    (101, 4, 101 ** 4 - 5, 2 * 101 ** 2),   # one build of B + M entries: not ~10^8 factors
    (131071, 1, 5, 6),                       # K = 1 walks fewer than p factors, builds none
])
def test_gamma_single_call_cost(p, precision, k, bound):
    """A cold call builds at most one pair of tables, with at most `bound`
    entries P[r] and H[r] below B and M, besides c = P[B]."""
    tables = ksum.padic._gamma_tables
    tables.cache_clear()
    pk = p ** precision
    got = gamma_p(PadicInt(p, precision, k)).residue
    # reflection: Gamma(k) Gamma(1 - k) = (-1)^(k mod p) for a unit k
    assert got * oracle_gamma((1 - k) % pk, p, pk) % pk == (pk - 1 if k % p % 2 else 1)
    assert tables.cache_info().misses == (precision > 1)
    if precision > 1:
        prefix, harmonic = tables(p, precision)
        assert len(prefix) - 1 + len(harmonic) <= bound
    for extra in (1, 2, pk - 1):
        gamma_p(PadicInt(p, precision, extra))
    assert tables.cache_info().misses == (precision > 1)


def test_gamma_wilson_value():
    # Gamma_p(p) = -(p-1)!, and Wilson gives (p-1)! = -1 mod p
    for p, value in ((3, 7), (5, 1), (7, 15), (11, 111), (13, 1)):
        got = gamma_p(PadicInt(p, 2, p)).residue
        assert got == -math.factorial(p - 1) % p ** 2 == value
        assert got % p == 1


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_gamma_continuity(seed):
    """x = y mod p^m forces Gamma(x) = Gamma(y) mod p^m."""
    rng = random.Random(seed)
    p = rng.choice((3, 5, 7))
    precision = 4
    pk = p ** precision
    m = rng.randrange(1, precision + 1)
    x = rng.randrange(pk)
    y = (x + rng.randrange(1, p) * p ** m) % pk
    gx = gamma_p(PadicInt(p, precision, x)).residue
    gy = gamma_p(PadicInt(p, precision, y)).residue
    assert (gx - gy) % p ** m == 0


def test_p_weight():
    assert p_weight(1, 3) == 1
    assert p_weight(13, 3) == 3   # 111 in base 3
    assert p_weight(26, 3) == 6   # 222
    assert p_weight(10, 3) == 2   # 101
    assert p_weight(24, 5) == 8   # 44


# ----------------------------------------------------------- lifted ring

def schoolbook_mulmod(a, b, modulus, pk):
    """a * b in Z[x] / (modulus, p^K): the full product, then long division
    by the monic modulus from the top degree down, reducing mod p^K last."""
    n = len(a)
    prod = [0] * (2 * n - 1)
    for i in range(n):
        for j in range(n):
            prod[i + j] += a[i] * b[j]
    for top in range(2 * n - 2, n - 1, -1):
        c = prod[top]
        for j in range(n + 1):
            prod[top - n + j] -= c * modulus[j]
        assert prod[top] == 0
    return tuple(v % pk for v in prod[:n])


@pytest.mark.parametrize("p,n,modulus,precision", [
    (3, 1, None, 3), (3, 3, None, 3), (3, 4, (1, 1, 1, 1, 1), 5), (5, 2, None, 2)])
def test_unram_mul_and_pow_match_schoolbook(p, n, modulus, precision):
    field = make_field(p, n, modulus)
    uctx = lift_field(field, precision)
    pk, mod = uctx.pk, field.modulus
    rng = random.Random(field.q * 100 + precision)
    draw = lambda: uctx.element([rng.randrange(pk) for _ in range(field.n)])
    for _ in range(200):
        x, y = draw(), draw()
        assert (x * y).coords == schoolbook_mulmod(x.coords, y.coords, mod, pk)
    for _ in range(4):
        x = draw()
        power = uctx.one().coords
        for e in range(2 * field.q + 1):
            assert (x ** e).coords == power, (x, e)
            power = schoolbook_mulmod(power, x.coords, mod, pk)


def test_unram_ops_refuse_mixed_contexts(f27):
    low, high = lift_field(f27, 3).one(), lift_field(f27, 4).one()
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match="mixed unramified contexts"):
            op(low, high)
    again = lift_field(f27, 3)
    assert again == low.ctx and again is not low.ctx
    assert (low * again.one()).coords == low.coords


def test_lift_pickles_without_its_tables(f27):
    uctx = lift_field(f27, 3)
    uctx.teich_powers
    copy = pickle.loads(pickle.dumps(uctx))
    assert copy == uctx and vars(copy) == {} and "teich_powers" in vars(uctx)


# ---------------------------------------------------------- teichmuller

def test_teichmuller_properties_exhaustive_q27(f27):
    uctx = lift_field(f27, 3)
    lifts = {a: teichmuller(uctx, a) for a in f27.elements()}
    for a, w in lifts.items():
        assert w.reduce_mod_p() == a
        if a.is_zero():
            assert w.is_zero()
        else:
            assert w ** (f27.q - 1) == uctx.one()
    for a in f27.elements():
        for b in f27.elements():
            assert lifts[f27.mul(a, b)] == lifts[a] * lifts[b]


def oracle_teichmuller(uctx, a):
    """K Frobenius steps y -> y^q from the naive lift, each gaining at least
    one digit: the lift `teichmuller` computed before it took one power."""
    if a.is_zero():
        return uctx.zero()
    y = uctx.element(a.coeffs)
    for _ in range(uctx.precision):
        y = y ** uctx.field.q
    return y


@pytest.mark.parametrize("p,n,modulus,precisions", [
    pytest.param(p, n, None, None, id=f"{p}-{n}")
    for p, n in [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6),
                 (5, 2), (5, 3), (7, 2), (11, 2)]
] + [
    pytest.param(3, 4, (1, 1, 1, 1, 1), None, id="3-4-mod=1,1,1,1,1"),
    pytest.param(3, 3, None, (40,), id="3-3-K40"),
])
def test_teichmuller_matches_frobenius_loop(p, n, modulus, precisions):
    # K = n + 2 and 2n + 2 need k = 2 and 3 powers of q; K = 2 and n + 2 sit
    # one past a multiple of n, where ceil((K-2)/n) falls one short
    ctx = make_field(p, n, modulus)
    for precision in precisions or sorted({1, 2, n, n + 1, n + 2, 2 * n + 2}):
        uctx = lift_field(ctx, precision)
        for a in ctx.elements():
            assert teichmuller(uctx, a) == oracle_teichmuller(uctx, a), (precision, a)


@pytest.mark.parametrize("precision,k", [(1, 0), (2, 1), (4, 1), (5, 2), (8, 3), (40, 13)])
def test_teichmuller_takes_one_power(monkeypatch, f27, precision, k):
    """One _powmod per nonzero lift, with exponent q^ceil((K-1)/n); none at 0."""
    exponents = []

    def counted(a, e, modulus, pk, _real=ksum.padic._powmod):
        exponents.append(e)
        return _real(a, e, modulus, pk)

    monkeypatch.setattr(ksum.padic, "_powmod", counted)
    uctx = lift_field(f27, precision)
    assert teichmuller(uctx, f27.zero()) == uctx.zero()
    assert exponents == []
    for a in islice(f27.elements(), 1, None):
        exponents.clear()
        teichmuller(uctx, a)
        assert exponents == [27 ** k], a


def test_teichmuller_constants():
    ctx = make_field(3, 2)
    uctx = lift_field(ctx, 3)
    assert teichmuller(uctx, ctx.one()) == uctx.one()
    # omega(2) = -1 = 26 mod 27
    w = teichmuller(uctx, ctx.from_int(2))
    assert w.is_constant() and w.constant().residue == 26


def test_lifted_power_sum_reduces_to_power_sum(f27):
    uctx = lift_field(f27, 3)
    for kind in "WXYZ":
        s = build_subset(f27, kind)
        for a in f27.elements():
            lifted = lifted_power_sum(uctx, s, a)
            assert lifted.is_constant()
            assert lifted.constant().residue % 3 == power_sum(f27, s, a)


# ----------------------------------------------------------- pi monomials

def test_pi_monomial_folding(f27):
    uctx = lift_field(f27, 3)
    u = uctx.from_int(5)
    m = PiMonomial.of(3, u)        # pi^2 = -3 for p = 3
    assert m.pi_exponent == 1
    assert m.unit == u * PadicInt(3, 3, -3)
    n = PiMonomial.of(1, uctx.one())
    prod = m * n
    assert prod.pi_exponent == 0
    assert prod.unit == u * PadicInt(3, 3, 9)


@given(st.integers(0, 6), st.integers(0, 6), st.integers(1, 26))
@settings(max_examples=60, deadline=None)
def test_pi_monomial_multiplication_associative(e1, e2, c):
    ctx = make_field(3, 3)
    uctx = lift_field(ctx, 3)
    a = PiMonomial.of(e1, uctx.from_int(c))
    b = PiMonomial.of(e2, uctx.from_int(2))
    c2 = PiMonomial.of(1, uctx.from_int(7))
    assert (a * b) * c2 == a * (b * c2)


def test_pi_monomial_rejects_addition(f27):
    uctx = lift_field(f27, 3)
    a = PiMonomial.of(0, uctx.one())
    with pytest.raises(TypeError):
        a + a


# ------------------------------------------------------------ gauss sums

def test_gauss_sum_frozen_j1(f27):
    uctx = lift_field(f27, 3)
    g = gauss_sum(uctx, 1)
    assert g.pi_exponent == 1
    assert g.unit.is_constant()
    assert g.unit.constant().residue == 13


def test_gauss_sum_index_range(f27):
    uctx = lift_field(f27, 3)
    with pytest.raises(ValueError):
        gauss_sum(uctx, 0)
    with pytest.raises(ValueError):
        gauss_sum(uctx, 26)


def test_gauss_square_values_q27(f27):
    uctx = lift_field(f27, 3)
    for j in range(1, 26):
        wt = p_weight(j, 3)
        expected = {1: 6, 2: 9}.get(wt, 0)
        assert gauss_square_mod27(uctx, j).residue == expected, j


@pytest.mark.parametrize("n,modulus", [pytest.param(n, None, id=str(n)) for n in range(3, 9)]
                         + [pytest.param(4, (1, 1, 1, 1, 1), id="4-mod=1,1,1,1,1")])
def test_gauss_square_support_matches_every_j_loop(n, modulus):
    # the support computes only the weight-1 and weight-2 indices; the oracle
    # is one gauss_square_mod27 call at every j
    uctx = lift_field(make_field(3, n, modulus), 3)
    oracle = []
    for j in range(1, uctx.field.q - 1):
        c = gauss_square_mod27(uctx, j).residue
        if c:
            oracle.append((j, c))
    assert uctx.gauss_square_support == tuple(oracle)


def _digits_of_weight(rng, n, wt):
    digits = [0] * n
    while sum(digits) < wt:
        i = rng.randrange(n)
        if digits[i] < 2:
            digits[i] += 1
    return sum(d * 3 ** i for i, d in enumerate(digits))


@pytest.mark.parametrize("n", range(9, 14))
def test_gauss_square_vanishes_at_weight_three_and_four(n):
    # the support leaves out every j of weight >= 3; sample some and compute
    uctx = lift_field(make_field(3, n), 3)
    rng = random.Random(n)
    for wt in (3, 4):
        for _ in range(5):
            j = _digits_of_weight(rng, n, wt)
            assert p_weight(j, 3) == wt
            assert gauss_square_mod27(uctx, j).residue == 0, j


def test_gauss_square_support_builds_no_field_table():
    ctx = make_field(3, 20)
    support = lift_field(ctx, 3).gauss_square_support
    assert len(support) == 230 == 20 * 23 // 2
    assert {c for _, c in support} == {6, 9}
    assert "tables" not in ctx.__dict__


def test_stickelberger_exhaustive():
    for p, n in ((3, 3), (5, 2), (7, 2)):
        ctx = make_field(p, n)
        uctx = lift_field(ctx, 2)
        for j in range(1, ctx.q - 1):
            rep = check_stickelberger(uctx, j)
            assert rep.passed, (p, n, j, rep)
            assert rep.modulus == p


def test_wt1_check_reports(f27):
    uctx = lift_field(f27, 3)
    for j in range(1, 26):
        rep = check_gauss_square_mod27(uctx, j)
        assert rep.passed
        assert rep.subject == "wt1"


def test_fourier_exhaustive_q27(f27):
    uctx = lift_field(f27, 3)
    for a in f27.elements():
        rep = check_fourier_mod27(uctx, a)
        assert rep.passed, (a, rep)
        assert rep.modulus == 27


def reference_fourier(uctx, gsq, a):
    """The O(q^2) Fourier check the table-driven one replaced: a
    Frobenius-iterated lift of a, its q-2 powers by repeated lifted
    multiplies, and the closed form from lifted power sums."""
    field = uctx.field
    w = teichmuller(uctx, a)
    acc = uctx.zero()
    pw = uctx.one()
    for j in range(1, field.q - 1):
        pw = pw * w
        if gsq[j]:
            acc = acc + pw * gsq[j]
    coords27 = tuple(c % 27 for c in (-acc).coords)
    assert not any(coords27[1:])
    lhs = coords27[0]
    rhs = kloosterman(field, a).as_int() % 27
    closed = (lifted_power_sum(uctx, build_subset(field, "W"), a) * 21
              + lifted_power_sum(uctx, build_subset(field, "X"), a) * 18)
    closed27 = tuple(c % 27 for c in closed.coords)
    passed = lhs == rhs and closed27 == coords27
    return CongruenceReport("fourier", lhs, rhs, 27, passed, a)


@pytest.mark.parametrize("n,modulus,precision", [
    (3, None, 3), (4, None, 3), (5, None, 3),
    (4, (1, 1, 1, 1, 1), 3), (4, (1, 1, 1, 1, 1), 5),
])
def test_fourier_matches_reference_engine(n, modulus, precision):
    ctx = make_field(3, n, modulus)
    if modulus is not None:
        assert ctx.generator != ctx.element((0, 1) + (0,) * (n - 2))
    uctx = lift_field(ctx, precision)
    gsq = [0] + [gauss_square_mod27(uctx, j).residue for j in range(1, ctx.q - 1)]
    for a in ctx.elements():
        assert check_fourier_mod27(uctx, a) == reference_fourier(uctx, gsq, a), a


def _lift_generator_naively(monkeypatch, uctx):
    monkeypatch.setitem(vars(uctx), "teich_generator",
                        uctx.element(uctx.field.generator.coeffs))


def _swap_log_table_entries(monkeypatch, uctx):
    ctx = uctx.field
    exp = list(ctx.tables.exp)
    exp[5], exp[6] = exp[6], exp[5]
    monkeypatch.setattr(ctx, "tables", ctx.tables._replace(exp=exp))


@pytest.mark.parametrize("corrupt,message", [
    (_lift_generator_naively, "is not 1"),
    (_swap_log_table_entries, "does not reduce"),
], ids=["lift-not-a-root-of-unity", "entry-off-its-generator-power"])
def test_fourier_rejects_corrupt_power_table(monkeypatch, corrupt, message):
    ctx = make_field(3, 3)
    uctx = lift_field(ctx, 3)
    corrupt(monkeypatch, uctx)
    with pytest.raises(InternalCheckError, match=message):
        check_fourier_mod27(uctx, ctx.element((1, 1, 0)))


def test_identities_exhaustive_q27(f27):
    uctx = lift_field(f27, 3)
    subjects = set()
    for a in f27.elements():
        for rep in identity_reports(uctx, a):
            assert rep.passed, (a, rep)
            subjects.add(rep.subject)
    assert subjects == {
        "identities/trace-cube", "identities/trace-times-wt2",
        "identities/lift-reduces-W", "identities/lift-reduces-X",
        "identities/lift-reduces-Y", "identities/lift-reduces-Z",
        "identities/teich-mult",
    }


def test_identity_reports_sum_each_family_once(monkeypatch, f27):
    kinds = []

    def counted(ctx, subset, a, _real=ksum.padic.power_sum):
        kinds.append(subset.kind)
        return _real(ctx, subset, a)

    monkeypatch.setattr(ksum.padic, "power_sum", counted)
    uctx = lift_field(f27, 3)
    for a in f27.elements():
        kinds.clear()
        identity_reports(uctx, a)
        assert sorted(kinds) == ["W", "X", "Y", "Z"], a


@pytest.mark.parametrize("n,modulus,precision", [
    (3, None, 3), (4, None, 3), (4, (1, 1, 1, 1, 1), 5),
    (3, None, 1), (4, None, 1), (4, (1, 1, 1, 1, 1), 1),
])
def test_lifted_digit_sum_matches_lifted_power_sum(n, modulus, precision):
    # the table sums over the digit-weight families W, X, Y, Z and the
    # teich-mult rhs against direct powers of Frobenius-iterated lifts
    ctx = make_field(3, n, modulus)
    uctx = lift_field(ctx, precision)
    for a in ctx.elements():
        for kind in "WXYZ":
            subset = build_subset(ctx, kind)
            assert (_power_combination(uctx, [(s, 1) for s in subset.exponents], a)
                    == lifted_power_sum(uctx, subset, a)), (a, kind)
        rhs = {r.subject: r.rhs for r in identity_reports(uctx, a)}["identities/teich-mult"]
        assert rhs == (teichmuller(uctx, a) * uctx.teich_generator).coords, a
