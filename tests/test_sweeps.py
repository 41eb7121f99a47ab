"""Sweep orchestration: scope handling, determinism, report emission."""

import gc
import io
import json
import multiprocessing
import os
import re
import time
import weakref

import pytest

import ksum.kloos
import ksum.sweeps
from ksum import padic
from ksum.cyclo import CycInt
from ksum.cli import main
from ksum.ff import FFElem, _orbit_leaders, make_field
from ksum.kloos import CongruenceReport, InternalCheckError
from ksum.sweeps import (CHECKS, CheckDef, JobError, SweepReport, VerificationJob,
                         emit_report, run_verification)


def render(job, records="all", fmt="json-lines"):
    rep = run_verification(job)
    buf = io.StringIO()
    emit_report(rep, fmt, buf, records=records)
    return rep, buf.getvalue()


def test_check_registry_is_complete():
    assert set(CHECKS) == {"thm1", "mod9", "mod27", "stickelberger", "wt1",
                           "fourier", "moisio", "wan", "weil", "identities",
                           "spectrum"}


def test_exhaustive_element_sweep():
    rep, text = render(VerificationJob(3, 3, "mod9", jobs=1))
    assert rep.total == 27
    assert rep.failures == []
    lines = [json.loads(line) for line in text.splitlines()]
    assert len(lines) == 28
    assert lines[-1]["type"] == "summary"
    assert lines[-1]["total"] == 27
    assert lines[-1]["failures"] == 0
    assert all(line["pass"] for line in lines[:-1])


def test_histogram_only_for_residue_checks():
    rep, _ = render(VerificationJob(3, 3, "mod9", jobs=1))
    assert rep.histogram == {0: 9, 3: 9, 6: 9}
    rep, _ = render(VerificationJob(3, 3, "thm1", jobs=1))
    assert rep.histogram is None


def test_worker_count_does_not_change_output():
    outputs = []
    for jobs in (1, 2, 5):
        _, text = render(VerificationJob(3, 4, "mod27", jobs=jobs))
        outputs.append(text)
    assert outputs[0] == outputs[1] == outputs[2]


def test_worker_count_does_not_change_exponent_output():
    a = render(VerificationJob(3, 3, "stickelberger", jobs=1, precision=2))[1]
    b = render(VerificationJob(3, 3, "stickelberger", jobs=3, precision=2))[1]
    assert a == b


def test_sample_scope_is_seeded_and_sorted():
    job = VerificationJob(3, 4, "thm1", scope=("sample", 7, 123), jobs=1)
    rep1, text1 = render(job)
    rep2, text2 = render(job)
    assert text1 == text2
    assert rep1.total == 7
    witnesses = [json.loads(l)["witness"] for l in text1.splitlines()[:-1]]
    assert len(witnesses) == 7
    other = render(VerificationJob(3, 4, "thm1", scope=("sample", 7, 124), jobs=1))[1]
    assert other != text1


def test_single_element_and_single_exponent_scopes():
    rep, _ = render(VerificationJob(3, 3, "mod27", scope=("element", (1, 0, 0)), jobs=1))
    assert rep.total == 1
    rep, _ = render(VerificationJob(3, 3, "wt1", scope=("exponent", 13),
                                    jobs=1, precision=3))
    assert rep.total == 1
    assert rep.cases[0].witness == 13


def test_scope_domain_mismatches_rejected():
    with pytest.raises(JobError):
        run_verification(VerificationJob(3, 3, "wt1", scope=("element", (1, 0, 0))))
    with pytest.raises(JobError):
        run_verification(VerificationJob(3, 3, "mod9", scope=("exponent", 3)))
    with pytest.raises(JobError):
        run_verification(VerificationJob(3, 3, "spectrum", scope=("element", (1, 0, 0))))
    with pytest.raises(JobError):
        run_verification(VerificationJob(3, 3, "mod9", scope=("sample", 99, 0)))
    with pytest.raises(JobError):
        run_verification(VerificationJob(3, 3, "wt1", scope=("exponent", 26)))


def test_bad_job_parameters_rejected():
    with pytest.raises(JobError):
        run_verification(VerificationJob(3, 3, "nope"))
    with pytest.raises(JobError):
        run_verification(VerificationJob(4, 2, "mod9"))
    with pytest.raises(JobError, match=re.escape(
            "check 'mod27' requires n >= 3 (field has p=3, n=2)")):
        run_verification(VerificationJob(3, 2, "mod27"))
    with pytest.raises(JobError, match=re.escape(
            "check 'mod9' requires p = 3 (field has p=5, n=2)")):
        run_verification(VerificationJob(5, 2, "mod9"))
    with pytest.raises(JobError, match=re.escape("needs precision >= 3, got 1")):
        run_verification(VerificationJob(3, 3, "fourier", precision=1))
    with pytest.raises(JobError, match=re.escape("check 'mod9' takes no precision, got 1")):
        run_verification(VerificationJob(3, 3, "mod9", precision=1))


def test_precision_defaults_into_echo():
    rep, text = render(VerificationJob(3, 3, "fourier", jobs=1))
    summary = json.loads(text.splitlines()[-1])
    assert summary["precision"] == 3
    rep, text = render(VerificationJob(3, 3, "mod9", jobs=1))
    summary = json.loads(text.splitlines()[-1])
    assert summary["precision"] is None


def test_summary_format_pass_line():
    _, text = render(VerificationJob(3, 3, "mod27", jobs=1), fmt="summary")
    assert text.splitlines()[-1] == "PASS total=27"
    assert any(l.startswith("count[") for l in text.splitlines())


def test_csv_format_header_and_rows():
    _, text = render(VerificationJob(3, 2, "mod9", jobs=1), fmt="csv")
    lines = text.splitlines()
    assert lines[0] == "subject,witness,lhs,rhs,modulus,pass"
    assert len(lines) == 10
    assert lines[1].startswith("mod9,")


def test_failures_records_mode_hides_passes():
    _, text = render(VerificationJob(3, 3, "mod9", jobs=1), records="failures")
    lines = text.splitlines()
    assert len(lines) == 1  # summary only, all cases passed


def test_emit_report_renders_failures():
    bad = CongruenceReport("mod9", 1, 2, 9, False, "0,1")
    rep = SweepReport(job={"check": "mod9"}, total=1, cases=[bad],
                      failures=[bad], histogram=None, wall_time=0.0)
    buf = io.StringIO()
    emit_report(rep, "summary", buf)
    text = buf.getvalue()
    assert "FAIL" in text
    assert "failures=1" in text
    buf = io.StringIO()
    emit_report(rep, "json-lines", buf, records="failures")
    lines = [json.loads(l) for l in buf.getvalue().splitlines()]
    assert lines[0]["pass"] is False
    assert lines[-1]["failures"] == 1


def test_spectrum_sweep_reports():
    rep, text = render(VerificationJob(3, 3, "spectrum", jobs=1))
    subjects = [c.subject for c in rep.cases]
    assert subjects[0] == "spectrum/checksum"
    assert subjects.count("spectrum/divisible-by-3") == 7
    assert rep.failures == []
    summary = json.loads(text.splitlines()[-1])
    assert summary["histogram"] == {"-9": 1, "-6": 3, "-3": 6, "0": 4,
                                    "3": 6, "6": 3, "9": 4}


def oracle_spectrum(ctx):
    """Reports and histogram from every index's own row, tallied index by index."""
    p, hist, totals = ctx.p, {}, [0] * ctx.p
    for i in range(ctx.q):
        counts = ksum.kloos._count_row(ctx, i)
        value = CycInt.from_power_counts(p, counts)
        key = value.as_rational() if p == 3 else value.coords
        assert key is not None, i
        hist[key] = hist.get(key, 0) + 1
        totals = [u + v for u, v in zip(totals, counts)]
    total_value = CycInt.from_power_counts(p, totals)
    checksum = total_value.as_rational()
    reports = [CongruenceReport(
        "spectrum/checksum", checksum if checksum is not None else total_value.coords,
        ctx.q, None, checksum == ctx.q, "sum-over-field")]
    if p == 3 and ctx.n > 1:
        reports += [CongruenceReport("spectrum/divisible-by-3", key % 3, 0, 3, key % 3 == 0, key)
                    for key in sorted(hist)]
    return reports, dict(sorted(hist.items()))


@pytest.mark.parametrize("p,n,modulus", [(3, n, None) for n in range(1, 7)]
                         + [(5, n, None) for n in range(1, 4)]
                         + [(7, 2, None), (11, 2, None),
                            (3, 4, (1, 1, 1, 1, 1)), (3, 3, (1, 0, 2, 1)),
                            (5, 4, None), (7, 3, None), (13, 2, None), (5, 2, (2, 1, 1))])
def test_spectrum_matches_per_index_aggregation(p, n, modulus):
    # spectrum values each distinct table row once; the oracle counts and
    # values every index's own row
    rep = run_verification(VerificationJob(p, n, "spectrum", modulus=modulus, jobs=1))
    ctx = make_field(p, n, modulus)
    assert (rep.cases, rep.histogram) == oracle_spectrum(ctx)
    assert rep.total == ctx.q


@pytest.mark.parametrize("p,n,distinct", [(3, 7, 62), (5, 3, 40)])
def test_spectrum_reads_least_index_of_each_table_row(p, n, distinct, monkeypatch):
    read = []
    real = ksum.kloos._counts_by_index

    def counted(ctx, k):
        read.append(k)
        return real(ctx, k)

    monkeypatch.setattr(ksum.kloos, "_counts_by_index", counted)
    rep = run_verification(VerificationJob(p, n, "spectrum", jobs=1))
    table = ksum.kloos._count_table(make_field(p, n))
    assert rep.total == p ** n
    assert read == [table.index(row) for row in dict.fromkeys(table)]
    assert len(read) == distinct


def test_finished_sweeps_keep_no_field_alive(monkeypatch):
    # mod27 reads the X and Y exponent sets, and its --all sweeps attach
    # every counting row to the context
    made = []
    real = ksum.sweeps.make_field

    def tracked(*args):
        ctx = real(*args)
        made.append(weakref.ref(ctx))
        return ctx

    monkeypatch.setattr(ksum.sweeps, "make_field", tracked)
    for n in (3, 4, 5):
        assert run_verification(VerificationJob(3, n, "mod27", jobs=1)).failures == []
    ksum.kloos._counts_by_index.cache_clear()
    gc.collect()
    assert len(made) == 3
    assert [ref() for ref in made] == [None] * 3


def test_row_cache_holds_the_one_row_a_sweep_reuses():
    # 91 representatives read 5 conjugate rows each; only 0's five are one row
    ksum.kloos._counts_by_index.cache_clear()
    run_verification(VerificationJob(11, 3, "moisio", jobs=1))
    info = ksum.kloos._counts_by_index.cache_info()
    assert (info.hits, info.misses, info.currsize) == (4, 451, 1)


def test_custom_modulus_echoed():
    job = VerificationJob(3, 2, "mod9", modulus=(1, 0, 1), jobs=1)
    rep, text = render(job)
    assert rep.failures == []
    summary = json.loads(text.splitlines()[-1])
    assert summary["field"]["modulus"] == [1, 0, 1]


# ------------------------------------------------------- Frobenius orbits

ORBIT_CHECKS = sorted(name for name, cd in CHECKS.items() if cd.orbit)
ORBIT_FIELDS = [(3, 3), (3, 4), (3, 5), (3, 6), (5, 3), (7, 2), (11, 2)]


def test_orbit_flags_are_pinned():
    # a newly registered check sweeps every index until it opts in here
    assert ORBIT_CHECKS == ["fourier", "mod27", "mod9", "moisio", "stickelberger",
                            "thm1", "wan", "weil", "wt1"]


@pytest.mark.parametrize("check", ORBIT_CHECKS)
def test_orbit_sweep_equals_direct_evaluation(check):
    # every member's report, witness included, is the check evaluated at
    # that member itself, not only at its orbit's representative
    cd = CHECKS[check]
    fields = [(p, n) for p, n in ORBIT_FIELDS if cd.p in (None, p) and n >= cd.min_n]
    assert fields
    precision = 3 if cd.precision else None
    for p, n in fields:
        rep = run_verification(VerificationJob(p, n, check, jobs=1, precision=precision))
        ctx = make_field(p, n)
        uctx = padic.lift_field(ctx, precision) if precision else None
        domain = range(ctx.q) if cd.domain == "element" else range(1, ctx.q - 1)
        direct = [r for i in domain for r in cd.evaluate(ctx, uctx, i)]
        assert rep.cases == direct, (p, n)
        assert rep.total == len(domain)


def _evaluations(monkeypatch, job):
    """The indices a sweep evaluates, counted at the registry evaluator."""
    seen = []
    cd = CHECKS[job.check]

    def counted(c, u, i):
        seen.append(i)
        return cd.evaluate(c, u, i)

    monkeypatch.setitem(CHECKS, job.check, CheckDef(
        cd.domain, counted, cd.p, cd.min_n, cd.precision, cd.histogram, cd.orbit, cd.rows))
    rep = run_verification(job)
    monkeypatch.setitem(CHECKS, job.check, cd)
    return rep, seen


def test_orbit_sweep_evaluates_each_orbit_once(monkeypatch):
    rep, seen = _evaluations(monkeypatch, VerificationJob(3, 7, "mod27", jobs=1))
    assert (rep.total, len(seen)) == (2187, 315)
    rep, seen = _evaluations(monkeypatch, VerificationJob(11, 3, "stickelberger", jobs=1))
    assert (rep.total, len(seen)) == (1329, 449)
    assert seen == sorted(seen)


def test_scoped_runs_evaluate_what_they_name(monkeypatch):
    rep, seen = _evaluations(
        monkeypatch, VerificationJob(3, 7, "mod27", scope=("sample", 50, 7), jobs=1))
    assert len(seen) == rep.total == 50
    rep, seen = _evaluations(
        monkeypatch, VerificationJob(3, 7, "mod27", scope=("element", (0, 1) + (0,) * 5),
                                     jobs=1))
    assert seen == [3]


# ------------------------------------------- orbits of a -> a^p and a -> c^2 a

SQUARE_CHECKS = ["moisio", "thm1", "wan"]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("p,n,modulus", [(5, 4, None), (7, 3, None), (13, 1, None),
                                         (13, 2, None), (5, 2, (2, 1, 1))])
def test_square_orbit_sweep_equals_direct_evaluation(p, n, modulus, jobs):
    # K(c^2 a) is a Galois conjugate of K(a), so the whole report, witness
    # aside, is shared by a -> c^2 a; each member still gets its own witness
    ctx = make_field(p, n, modulus)
    for check in SQUARE_CHECKS:
        rep = run_verification(VerificationJob(p, n, check, modulus=modulus, jobs=jobs))
        direct = [r for i in range(ctx.q) for r in CHECKS[check].evaluate(ctx, None, i)]
        assert rep.cases == direct, (check, p, n, modulus, jobs)


@pytest.mark.parametrize("check,p,n,total,evaluated", [
    ("moisio", 11, 3, 1331, 91), ("wan", 7, 3, 343, 43), ("thm1", 5, 4, 625, 87)])
def test_square_orbit_sweep_evaluates_each_orbit_once(monkeypatch, check, p, n,
                                                      total, evaluated):
    # Frobenius orbits alone would evaluate 451, 119 and 165
    rep, seen = _evaluations(monkeypatch, VerificationJob(p, n, check, jobs=1))
    assert (rep.total, len(seen)) == (total, evaluated)
    assert seen == sorted(seen)


@pytest.mark.parametrize("check", ["moisio", "wan"])
def test_square_orbit_sweep_names_least_failing_witness(monkeypatch, check):
    # a defect in one conjugate set is reported at the least index holding it
    ctx = make_field(7, 3)
    family = lambda i: {kv.value for kv in ksum.kloos.conjugate_family(ctx, ctx.element_at(i))}
    bad = family(ctx.q - 1)
    least = min(i for i in range(ctx.q) if family(i) == bad)
    real = ksum.kloos.product_linear

    def broken(roots):
        if set(roots) == bad:
            raise ksum.kloos.NonRationalCoefficient(1, roots[0])
        return real(roots)

    monkeypatch.setattr(ksum.kloos, "product_linear", broken)
    with pytest.raises(ksum.kloos.InternalCheckError) as exc:
        run_verification(VerificationJob(7, 3, check, jobs=1))
    coeffs = ",".join(map(str, ctx.element_at(least).coeffs))
    assert str(exc.value).endswith(f"(check {check}, --a {coeffs})")


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched min_poly must reach the workers")
def test_worker_count_does_not_change_witness(monkeypatch, capsys):
    # two defects either side of the --jobs 2 chunk boundary, the earlier one
    # slower: both worker counts name the least failing representative
    ctx = make_field(7, 3)
    leaders = sorted(set(_orbit_leaders(ctx, range(ctx.q))))
    assert len(leaders) == 43 and leaders[3] == 7
    slow, fast = leaders[3], leaders[23]
    real = ksum.kloos.min_poly

    def broken(c, a):
        i = c.index(a)
        if i == slow:
            time.sleep(0.5)
        if i in (slow, fast):
            raise InternalCheckError("injected defect")
        return real(c, a)

    monkeypatch.setattr(ksum.kloos, "min_poly", broken)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    messages, stderrs = [], []
    for jobs in (1, 2):
        with pytest.raises(InternalCheckError) as exc:
            run_verification(VerificationJob(7, 3, "moisio", jobs=jobs))
        messages.append(str(exc.value))
        assert main(["verify", "--field", "p=7,n=3", "--check", "moisio", "--all",
                     "--jobs", str(jobs)]) == 3
        stderrs.append(capsys.readouterr().err)
    assert messages[0] == messages[1]
    assert messages[0].endswith("(check moisio, --a 0,1,0)")
    assert stderrs[0] == stderrs[1]
    assert "--a 0,1,0" in stderrs[0]


# ------------------------------------------- guards of the public check functions

def _one(p, n):
    return make_field(p, n).one()


def _lifted(p, n, precision):
    return padic.lift_field(make_field(p, n), precision)


@pytest.mark.parametrize("call,message", [
    (lambda: ksum.kloos.check_mod9(make_field(5, 2), _one(5, 2)),
     "mod-9 check requires p = 3"),
    (lambda: ksum.kloos.check_mod9(make_field(3, 1), _one(3, 1)),
     "mod-9 check requires n > 1"),
    (lambda: ksum.kloos.check_mod27(make_field(5, 3), _one(5, 3)),
     "mod-27 check requires p = 3"),
    (lambda: ksum.kloos.check_weil_bound(make_field(5, 2), _one(5, 2)),
     "the rational-integer bound check requires p = 3"),
    (lambda: padic.gauss_square_mod27(_lifted(5, 3, 3), 1),
     "squared Gauss sums mod 27 require p = 3"),
    (lambda: padic.gauss_square_mod27(_lifted(3, 2, 3), 1), "requires n >= 3"),
    (lambda: padic.gauss_square_mod27(_lifted(3, 3, 2), 1),
     "requires at least 3 digits of precision"),
    (lambda: padic.check_fourier_mod27(_lifted(5, 3, 3), _one(5, 3)),
     "mod-27 Fourier check requires p = 3"),
    (lambda: padic.check_fourier_mod27(_lifted(3, 2, 3), _one(3, 2)),
     "mod-27 Fourier check requires n >= 3"),
    (lambda: padic.check_fourier_mod27(_lifted(3, 3, 2), _one(3, 3)),
     "mod-27 Fourier check requires >= 3 digits"),
    (lambda: padic.identity_reports(_lifted(5, 3, 3), _one(5, 3)),
     "identity bundle requires p = 3"),
    (lambda: padic.identity_reports(_lifted(3, 2, 3), _one(3, 2)),
     "identity bundle requires n >= 3"),
])
def test_check_functions_refuse_unsupported_fields(call, message):
    # CHECKS refuses these fields first, so only a direct call reaches the guards
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# ------------------------------------------- shared-payload emission

def _oracle_jsonable(v):
    if isinstance(v, FFElem):
        return list(v.coeffs)
    if isinstance(v, tuple):
        return list(v)
    return v


def _oracle_cell(v) -> str:
    v = _oracle_jsonable(v)
    return ":".join(map(str, v)) if isinstance(v, list) else str(v)


def oracle_emit(report, fmt, records="all") -> str:
    """The report as written when each case was rendered on its own."""
    lines = []
    if fmt == "json-lines":
        for r in report.cases if records == "all" else report.failures:
            lines.append(json.dumps({
                "type": "case", "subject": r.subject, "witness": _oracle_jsonable(r.witness),
                "lhs": _oracle_jsonable(r.lhs), "rhs": _oracle_jsonable(r.rhs),
                "modulus": r.modulus, "pass": r.passed}))
        histogram = report.histogram
        if histogram is not None:
            histogram = {str(k): v for k, v in histogram.items()}
        lines.append(json.dumps({"type": "summary", **report.job, "total": report.total,
                                 "failures": len(report.failures), "histogram": histogram}))
    elif fmt == "csv":
        lines.append("subject,witness,lhs,rhs,modulus,pass")
        for r in report.cases:
            lines.append(",".join([
                r.subject, _oracle_cell(r.witness), _oracle_cell(r.lhs), _oracle_cell(r.rhs),
                "" if r.modulus is None else str(r.modulus), str(r.passed).lower()]))
    else:
        for r in report.failures:
            lines.append(f"FAIL {r.subject} witness={_oracle_cell(r.witness)} "
                         f"lhs={_oracle_cell(r.lhs)} rhs={_oracle_cell(r.rhs)}")
        for k, v in (report.histogram or {}).items():
            lines.append(f"count[{_oracle_cell(k)}] = {v}")
        tail = "" if not report.failures else f" failures={len(report.failures)}"
        lines.append(f"{'FAIL' if report.failures else 'PASS'} total={report.total}{tail}")
    return "".join(line + "\n" for line in lines)


EMISSIONS = [("json-lines", "all"), ("json-lines", "failures"), ("csv", "all"),
             ("summary", "failures")]


def assert_emits_as_oracle(report):
    for fmt, records in EMISSIONS:
        buf = io.StringIO()
        emit_report(report, fmt, buf, records=records)
        got, want = buf.getvalue(), oracle_emit(report, fmt, records)
        if got != want:
            # name the first differing line: a diff of two whole reports is slow
            pairs = enumerate(zip(got.splitlines(True), want.splitlines(True)))
            first = next(((i, g, w) for i, (g, w) in pairs if g != w), None)
            pytest.fail(f"{fmt} records={records}: first difference {first}")


@pytest.mark.parametrize("check,p,n", [
    (check, p, n) for p, n in [(3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2), (11, 2)]
    for check, cd in CHECKS.items() if cd.p in (None, p) and n >= cd.min_n])
def test_emission_matches_per_case_rendering(check, p, n):
    assert_emits_as_oracle(run_verification(VerificationJob(p, n, check, jobs=1)))


def test_emission_keys_payloads_by_identity():
    elem = FFElem((2, 0, 1))
    pair, equal_pair = tuple([1, 2]), tuple([1, 2])
    assert pair == equal_pair and pair is not equal_pair
    # a verdict True next to 1, an lhs True next to 1, two subjects that
    # share every other object, a first witness None, and failing cases
    cases = [CongruenceReport("weil", 9, 108, None, True, None),
             CongruenceReport("mod27", pair, pair, 27, True, elem),
             CongruenceReport("mod27", equal_pair, equal_pair, 27, True, 5),
             CongruenceReport("mod27", 1, 1, 27, True, elem),
             CongruenceReport("mod27", True, 1, 27, True, elem),
             CongruenceReport("mod9", 1, 1, 27, True, elem),
             CongruenceReport("mod27", True, 1, 27, 1, 7),
             CongruenceReport("spectrum/checksum", 81, 81, None, True, "sum-over-field"),
             CongruenceReport("weil", 9, 108, None, True, FFElem((0, 0, 0))),
             CongruenceReport("mod27", 3, 6, 27, False, FFElem((1, 1, 1)))]
    # an orbit fan-out: members hold their representative's payload objects
    rep = CongruenceReport("mod27", tuple([4, 5]), tuple([4, 6]), 9, False, elem)
    cases += [rep] + [CongruenceReport(rep.subject, rep.lhs, rep.rhs, rep.modulus,
                                       rep.passed, w) for w in (8, elem, "x")]
    report = SweepReport({"check": "mod27"}, len(cases), cases,
                         [r for r in cases if not r.passed], {0: 3, 9: 1}, 0.0)
    assert_emits_as_oracle(report)
    buf = io.StringIO()
    emit_report(report, "json-lines", buf, records="all")
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith('{"type": "case", "subject": "weil", "witness": null, ')
    assert lines[4] == ('{"type": "case", "subject": "mod27", "witness": [2, 0, 1], '
                        '"lhs": true, "rhs": 1, "modulus": 27, "pass": true}')
    assert lines[6].endswith('"witness": 7, "lhs": true, "rhs": 1, "modulus": 27, "pass": 1}')


# ------------------------------------------- tuple-valued cells

def test_tuple_cells_render_as_lists_and_joined_cells():
    _, text = render(VerificationJob(5, 2, "wan", jobs=1))
    first = json.loads(text.splitlines()[0])
    assert (first["witness"], first["lhs"]) == ([0, 0], [1, 2])
    rep, text = render(VerificationJob(5, 2, "moisio", jobs=1), fmt="csv")
    assert "moisio,1:0,0:0:1,0:0:1,5,true" in text.splitlines()
    case = next(r for r in rep.cases if r.witness.coeffs == (1, 0))
    bad = CongruenceReport(case.subject, case.lhs, case.rhs, case.modulus, False, case.witness)
    buf = io.StringIO()
    report = SweepReport(rep.job, 1, [bad], [bad], rep.histogram, rep.wall_time)
    emit_report(report, "summary", buf)
    assert buf.getvalue().splitlines()[0] == "FAIL moisio witness=1:0 lhs=0:0:1 rhs=0:0:1"
