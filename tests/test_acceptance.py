"""Acceptance gate: every verification the package promises, end to end.

Each test below is one numbered acceptance criterion and prints exactly one
pass/fail line; run with -s (or read the verbose test list) to see them.
Sweeps are exhaustive over the stated fields, never sampled. The two
computation paths stay separate: the counting path builds values from field
tables, the p-adic path from Teichmuller lifts and gamma factors, and the
cross-checks compare finished numbers only.
"""

import random
from functools import lru_cache

from ksum.ff import make_field
from ksum.kloos import (check_conjugate_product, check_min_poly_degree,
                        check_min_poly_reduction, check_mod9, check_mod27,
                        check_weil_bound, kloosterman, min_poly)
from ksum.padic import (PadicInt, check_fourier_mod27,
                        check_gauss_square_mod27, check_stickelberger,
                        gamma_p, identity_reports, lift_field,
                        padic_from_rational, teichmuller)
from ksum.sweeps import VerificationJob, run_verification


@lru_cache(maxsize=None)
def field(p, n):
    return make_field(p, n)


def report_line(tag, label, failures, cases):
    verdict = "PASS" if not failures else f"FAIL ({len(failures)} bad)"
    print(f"[criterion {tag}] {label}: {verdict} ({cases} cases)")


def sweep_elements(check, fields, **kw):
    failures, cases = [], 0
    for p, n in fields:
        ctx = field(p, n)
        for a in ctx.elements():
            rep = check(ctx, a, **kw) if kw else check(ctx, a)
            cases += 1
            if not rep.passed:
                failures.append((p, n, a.coeffs, rep))
    return failures, cases


def test_criterion_01_ternary_mod27_table():
    failures, cases = sweep_elements(check_mod27, [(3, n) for n in range(3, 8)])
    report_line("01", "mod-27 value law, exhaustive n=3..7", failures, cases)
    assert not failures, failures[:5]
    assert cases == sum(3 ** n for n in range(3, 8))


def test_criterion_02_conjugate_product_mod_p_squared():
    fields = [(3, n) for n in range(2, 8)] + \
             [(5, n) for n in range(2, 5)] + \
             [(7, n) for n in range(2, 4)]
    failures, cases = sweep_elements(check_conjugate_product, fields)
    report_line("02", "conjugate product mod p^2, 11 fields", failures, cases)
    assert not failures, failures[:5]


def test_criterion_03_ternary_mod9():
    failures, cases = sweep_elements(check_mod9, [(3, n) for n in range(2, 8)])
    report_line("03", "mod-9 value law, exhaustive n=2..7", failures, cases)
    assert not failures, failures[:5]


def test_criterion_04_gauss_square_weight_classes():
    failures, cases = [], 0
    for n in range(3, 7):
        uctx = lift_field(field(3, n), 3)
        for j in range(1, 3 ** n - 1):
            rep = check_gauss_square_mod27(uctx, j)
            cases += 1
            if not rep.passed:
                failures.append((n, j, rep))
    report_line("04", "Gauss-sum squares mod 27 by weight, n=3..6",
                failures, cases)
    assert not failures, failures[:5]


def test_criterion_05_fourier_three_way_cross_check():
    failures, cases = [], 0
    for n in range(3, 7):
        uctx = lift_field(field(3, n), 3)
        for a in field(3, n).elements():
            rep = check_fourier_mod27(uctx, a)
            cases += 1
            if not rep.passed:
                failures.append((n, a.coeffs, rep))
    report_line("05", "spectral vs counting vs closed form mod 27, n=3..6",
                failures, cases)
    assert not failures, failures[:5]


def test_criterion_06_gamma_product_unit_congruence():
    failures, cases = [], 0
    for p, n, precision in ((3, 3, 2), (3, 4, 2), (5, 2, 2), (7, 2, 2),
                            (11, 3, 4), (101, 2, 2)):
        uctx = lift_field(field(p, n), precision)
        for j in range(1, p ** n - 1):
            rep = check_stickelberger(uctx, j)
            cases += 1
            if not rep.passed:
                failures.append((p, n, j, rep))
    report_line("06", "gamma product is inverse digit-factorial mod p",
                failures, cases)
    assert not failures, failures[:5]


def test_criterion_07_min_poly_collapses_mod_p():
    fields = [(3, n) for n in range(2, 6)] + [(5, 2), (5, 3)]
    failures, cases = sweep_elements(check_min_poly_reduction, fields)
    report_line("07", "minimal polynomial = x^deg mod p", failures, cases)
    assert not failures, failures[:5]


def test_criterion_08_degree_at_nonzero_trace():
    fields = [(5, 2), (5, 3), (7, 2)]
    failures, cases = sweep_elements(check_min_poly_degree, fields)
    checked = 0
    for p, n in fields:
        ctx = field(p, n)
        for a in ctx.elements():
            if ctx.trace(a) == 0:
                continue
            res = min_poly(ctx, a)
            checked += 1
            if res.min_poly.degree != (p - 1) // 2 or res.multiplicity != 1:
                failures.append((p, n, a.coeffs, res))
    report_line("08", "nonzero trace forces full degree, multiplicity 1",
                failures, cases + checked)
    assert not failures, failures[:5]
    assert checked > 0


def test_criterion_09_gamma_at_power_fractions():
    failures, cases = [], 0
    for n in range(3, 9):
        den = 3 ** n - 1
        for i in range(1, n):
            got = gamma_p(padic_from_rational(3 ** i, den, 3, 3)).residue
            want = 13 if i == 1 else 1
            cases += 1
            if got != want:
                failures.append((n, i, got, want))
    # direct-product oracle for the anchor value: 24 = -3 mod 27
    acc = 1
    for t in range(24):
        acc = (-acc * (t if t % 3 else 1)) % 27
    cases += 1
    if acc != 13 or gamma_p(PadicInt(3, 3, 24)).residue != acc:
        failures.append(("oracle", acc))
    report_line("09", "gamma at 3^i/(3^n-1), n=3..8, with product oracle",
                failures, cases)
    assert not failures, failures


def test_criterion_10_property_suites():
    failures = []
    cases = 0

    # Teichmuller lift: reduction, root of unity, multiplicativity at q=27
    ctx = field(3, 3)
    uctx = lift_field(ctx, 3)
    lifts = {a: teichmuller(uctx, a) for a in ctx.elements()}
    for a, w in lifts.items():
        cases += 1
        if w.reduce_mod_p() != a:
            failures.append(("teich-reduce", a.coeffs))
        if not a.is_zero() and w ** 26 != uctx.one():
            failures.append(("teich-root", a.coeffs))
    for a in ctx.elements():
        for b in ctx.elements():
            cases += 1
            if lifts[ctx.mul(a, b)] != lifts[a] * lifts[b]:
                failures.append(("teich-mult", a.coeffs, b.coeffs))

    # gamma continuity on 1000 seeded pairs
    rng = random.Random(20260814)
    for _ in range(1000):
        p = rng.choice((3, 5, 7))
        pk = p ** 4
        m = rng.randrange(1, 5)
        x = rng.randrange(pk)
        y = (x + rng.randrange(1, p) * p ** m) % pk
        gx = gamma_p(PadicInt(p, 4, x)).residue
        gy = gamma_p(PadicInt(p, 4, y)).residue
        cases += 1
        if (gx - gy) % p ** m:
            failures.append(("gamma-continuity", p, m, x, y))

    # Galois equivariance of the sums, exhaustive at q <= 25
    for p, n in ((3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (11, 1),
                 (13, 1), (17, 1), (19, 1), (23, 1)):
        ctx = field(p, n)
        for a in ctx.elements():
            base = kloosterman(ctx, a).value
            for i in range(1, (p - 1) // 2 + 1):
                scaled = ctx.mul(a, ctx.from_int(i * i))
                cases += 1
                if kloosterman(ctx, scaled).value != base.galois(i):
                    failures.append(("galois", p, n, a.coeffs, i))

    # square bound and whole-field checksum on every swept field
    for n in range(2, 8):
        ctx = field(3, n)
        for a in ctx.elements():
            cases += 1
            if not check_weil_bound(ctx, a).passed:
                failures.append(("weil", n, a.coeffs))
    for p, n in [(3, n) for n in range(2, 8)] + \
                [(5, n) for n in range(2, 5)] + [(7, 2), (7, 3)]:
        cases += 1
        checksum = run_verification(VerificationJob(p, n, "spectrum", jobs=1)).cases[0]
        if (checksum.subject, checksum.lhs, checksum.passed) != \
                ("spectrum/checksum", p ** n, True):
            failures.append(("checksum", p, n))

    # lifted trace-cube and trace-times-wt2 identities, exhaustive n=3..6
    wanted = {"identities/trace-cube", "identities/trace-times-wt2"}
    for n in range(3, 7):
        uctx = lift_field(field(3, n), 3)
        for a in field(3, n).elements():
            seen = set()
            for rep in identity_reports(uctx, a):
                if rep.subject in wanted:
                    seen.add(rep.subject)
                    cases += 1
                    if not rep.passed:
                        failures.append((rep.subject, n, a.coeffs))
            if seen != wanted:
                failures.append(("identities-missing", n, a.coeffs))

    report_line("10", "property suites (lifts, continuity, symmetry, bounds)",
                failures, cases)
    assert not failures, failures[:5]
