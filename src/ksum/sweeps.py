"""Verification sweeps: check registry, parallel execution, report emission.

A job names a field, a check, and a scope (everything, one witness, or a
seeded sample).  One ordered map evaluates the witnesses: `map` in this
process, or `Pool.imap` over contiguous chunks, one per worker.  Results
and the first exception arrive in witness order, so output is
byte-identical regardless of worker count, and a defect names the least
failing representative at every worker count.  Wall time is tracked on
the report but never written to the output stream for the same reason.

An `--all` sweep of a check that reads counting rows (`rows`), at n >= 2,
first attaches every row to the field context, from one transform in
this process (`kloos._count_table`); workers receive the rows with the
pickled context.  `spectrum` tallies that table (at n = 1, each row through
the accessor) and values each distinct row once, so it starts no pool.

A check flagged `orbit` reports the same values at a and a^p (elements)
or at j and p*j mod q-1 (Gauss indices).  Its `--all` sweep evaluates
only the least index of each orbit, then gives every member its
representative's reports with the member as witness, in index order.
Element orbits also close under a -> c^2 a for c in F_p^*: the Galois
conjugates of K(a) are sigma_c(K(a)) = K(c^2 a), so a and c^2 a share the
conjugate family, and Tr(c^2 a) = c^2 Tr(a) keeps both whether the trace
is zero and its Legendre symbol.  At p = 11, n = 3 `moisio` evaluates 91
of 1331 elements, where Frobenius orbits alone give 451.  At p = 3 the
step is the identity; Gauss indices keep Frobenius orbits.  `--a`, `--j`
and `--sample` evaluate exactly the indices they name.

The process pool, the p-adic module and `random` are imported on first
use: the pool when a sweep starts more than one worker, `padic` when a
check with a precision lifts the field, `random` when a `--sample` scope
draws its indices, so a run loads none of them unless it needs it.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from functools import partial
from typing import Callable, Optional, Sequence, TextIO

from . import kloos
from ._value import Value
from .cyclo import CycInt
from .ff import FFElem, FieldCtx, FieldError, _orbit_leaders, check_table_cap, make_field
from .kloos import CongruenceReport, InternalCheckError


class JobError(ValueError):
    """Invalid job configuration: unknown check, bad scope, bad field."""


class VerificationJob(Value):
    __slots__ = ("p", "n", "check", "modulus", "scope", "jobs", "precision")

    def __init__(self, p: int, n: int, check: str, modulus: Optional[tuple[int, ...]] = None,
                 scope: tuple = ("all",), jobs: Optional[int] = None,
                 precision: Optional[int] = None):
        super().__init__(p, n, check, modulus, scope, jobs, precision)


class SweepReport(Value):
    __slots__ = ("job", "total", "cases", "failures", "histogram", "wall_time")


class CheckDef(Value):
    """One check: its witness domain, evaluator, requirement and lift.

    `evaluate(ctx, uctx, idx)` returns the reports at one index; the
    aggregate domain has none, as `_spectrum_reports` reads its rows.  It looks
    its check function up at call time, so a rebound module attribute is
    what every sweep calls.  `precision` is (default, minimum) lift digits,
    or None when the check needs no p-adic lift.  `orbit` marks a check
    whose reports, witness aside, are equal across a Frobenius orbit:
    K(a^p) = K(a), Tr and the closed power sums are invariant, and
    g(p*j) = g(j).  An element check so marked must also be equal at a and
    c^2 a: at p >= 5 these are `thm1`, `moisio` and `wan`, which read only
    the conjugate family, its product, and Tr(a) through its Legendre
    symbol or whether it is zero; the others require p = 3, where c^2 = 1.
    `rows` marks a check that reads Kloosterman counting rows, so that an
    --all sweep of it first builds every row in one transform.
    """

    __slots__ = ("domain", "evaluate", "p", "min_n", "precision", "histogram", "orbit", "rows")

    def __init__(self,
                 domain: str,                 # element | exponent | aggregate
                 evaluate: Optional[Callable[[FieldCtx, object, int], list]],
                 p: Optional[int] = None,     # required characteristic, None for any
                 min_n: int = 1,
                 precision: Optional[tuple[int, int]] = None,
                 histogram: bool = False,     # tally lhs values (residue checks)
                 orbit: bool = False,         # --all evaluates orbit representatives
                 rows: bool = True):          # reads kloos counting rows
        super().__init__(domain, evaluate, p, min_n, precision, histogram, orbit, rows)


def _padic():
    """The p-adic module, imported the first time a check needs it."""
    from . import padic
    return padic


CHECKS: dict[str, CheckDef] = {
    "thm1": CheckDef(
        "element", lambda c, u, i: [kloos.check_conjugate_product(c, c.element_at(i))],
        orbit=True),
    "mod9": CheckDef(
        "element", lambda c, u, i: [kloos.check_mod9(c, c.element_at(i))],
        p=3, min_n=2, histogram=True, orbit=True),
    "mod27": CheckDef(
        "element", lambda c, u, i: [kloos.check_mod27(c, c.element_at(i))],
        p=3, min_n=3, histogram=True, orbit=True),
    "fourier": CheckDef(
        "element", lambda c, u, i: [_padic().check_fourier_mod27(u, c.element_at(i))],
        p=3, min_n=3, precision=(3, 3), orbit=True),
    "identities": CheckDef(
        "element", lambda c, u, i: list(_padic().identity_reports(u, c.element_at(i))),
        p=3, min_n=3, precision=(3, 1), rows=False),
    "moisio": CheckDef(
        "element", lambda c, u, i: [kloos.check_min_poly_reduction(c, c.element_at(i))],
        orbit=True),
    "wan": CheckDef(
        "element", lambda c, u, i: [kloos.check_min_poly_degree(c, c.element_at(i))],
        orbit=True),
    "weil": CheckDef(
        "element", lambda c, u, i: [kloos.check_weil_bound(c, c.element_at(i))],
        p=3, orbit=True),
    "stickelberger": CheckDef(
        "exponent", lambda c, u, i: [_padic().check_stickelberger(u, i)],
        precision=(2, 1), orbit=True, rows=False),
    "wt1": CheckDef(
        "exponent", lambda c, u, i: [_padic().check_gauss_square_mod27(u, i)],
        p=3, min_n=3, precision=(3, 3), orbit=True, rows=False),
    "spectrum": CheckDef("aggregate", None),
}


def _witness(check: str, ctx: FieldCtx, idx: int) -> str:
    """The check and the CLI arguments that re-run it at one index."""
    domain = CHECKS[check].domain
    if domain == "exponent":
        return f"(check {check}, --j {idx})"
    a = ",".join(map(str, ctx.element_at(idx).coeffs))
    if domain == "aggregate":
        # spectrum takes no element scope; `ksum kloosterman` prints the row itself
        return f"(check {check}, rerun: ksum kloosterman --a {a})"
    return f"(check {check}, --a {a})"


def _evaluate(check: str, ctx: FieldCtx, uctx, idx: int) -> list:
    try:
        return CHECKS[check].evaluate(ctx, uctx, idx)
    except InternalCheckError as e:
        raise InternalCheckError(f"{e} {_witness(check, ctx, idx)}") from e


def _resolve_scope(job: VerificationJob, ctx: FieldCtx, domain: str) -> tuple[Sequence[int], dict]:
    q = ctx.q
    kind = job.scope[0]
    if domain == "aggregate" and kind != "all":
        raise JobError(f"check {job.check!r} only supports a full sweep (--all)")
    pool = range(q) if domain != "exponent" else range(1, q - 1)
    if kind == "all":
        check_table_cap(q, f"an --all scope of F_{ctx.p}^{ctx.n}", JobError)
        return pool, {"kind": "all"}
    if kind == "element":
        if domain == "exponent":
            raise JobError(
                f"check {job.check!r} sweeps Gauss-sum indices; use --j, --all or --sample")
        elem = ctx.element(job.scope[1])
        return [ctx.index(elem)], {"kind": "element", "element": list(elem.coeffs)}
    if kind == "exponent":
        if domain != "exponent":
            raise JobError(
                f"check {job.check!r} sweeps field elements; use --a, --all or --sample")
        j = job.scope[1]
        if not 1 <= j <= q - 2:
            raise JobError(f"index {j} outside [1, {q - 2}]")
        return [j], {"kind": "exponent", "j": j}
    if kind == "sample":
        count, seed = job.scope[1], job.scope[2]
        # an empty sample would call no check, and so none of its guards
        if not 1 <= count <= len(pool):
            raise JobError(f"sample size {count} outside [1, {len(pool)}]")
        check_table_cap(count, "a --sample scope", JobError)
        import random
        indices = sorted(random.Random(seed).sample(pool, count))
        return indices, {"kind": "sample", "count": count, "seed": seed}
    raise JobError(f"unknown scope {kind!r}")


def _spectrum_reports(ctx: FieldCtx):
    """Checksum and divisibility reports plus the value histogram.

    The rows are the certified table the sweep attached (n >= 2), or each
    row through the accessor (n = 1).  `Counter` keeps the distinct rows in
    order of first appearance, and each is valued once by `kloosterman` at
    the least index that holds it, which is a bad row's witness.
    """
    p = ctx.p
    rows = ctx.count_rows or [kloos._counts_by_index(ctx, a) for a in range(ctx.q)]
    hist: dict = {}
    totals = [0] * p
    idx = -1
    for counts, mult in Counter(rows).items():
        idx = rows.index(counts, idx + 1)      # first appearances increase
        value = kloos.kloosterman(ctx, ctx.element_at(idx)).value
        key = value.as_rational() if p == 3 else value.coords
        if key is None:
            raise InternalCheckError(
                f"ternary Kloosterman sum is not rational {_witness('spectrum', ctx, idx)}")
        hist[key] = hist.get(key, 0) + mult
        for t, c in enumerate(counts):
            totals[t] += mult * c
    total_value = CycInt.from_power_counts(p, totals)
    checksum = total_value.as_rational()
    reports = [CongruenceReport(
        "spectrum/checksum", checksum if checksum is not None else total_value.coords,
        ctx.q, None, checksum == ctx.q, "sum-over-field")]
    if p == 3 and ctx.n > 1:
        for key in sorted(hist):
            reports.append(CongruenceReport(
                "spectrum/divisible-by-3", key % 3, 0, 3, key % 3 == 0, key))
    ordered = dict(sorted(hist.items()))
    return reports, ordered


def run_verification(job: VerificationJob) -> SweepReport:
    t0 = time.perf_counter()
    cd = CHECKS.get(job.check)
    if cd is None:
        raise JobError(f"unknown check {job.check!r}; choose from {sorted(CHECKS)}")
    try:
        ctx = make_field(job.p, job.n, job.modulus)
    except FieldError as e:
        raise JobError(str(e)) from e
    need = (f"p = {cd.p}" if cd.p not in (None, job.p)
            else f"n >= {cd.min_n}" if job.n < cd.min_n else None)
    if need:
        raise JobError(f"check {job.check!r} requires {need} (field has p={job.p}, n={job.n})")
    precision = uctx = None
    if cd.precision is not None:
        default, minimum = cd.precision
        precision = job.precision if job.precision is not None else default
        if precision < minimum:
            raise JobError(
                f"check {job.check!r} needs precision >= {minimum}, got {precision}")
        uctx = _padic().lift_field(ctx, precision)
    elif job.precision is not None:
        raise JobError(f"check {job.check!r} takes no precision, got {job.precision}")

    indices, scope_echo = _resolve_scope(job, ctx, cd.domain)
    cpus = os.cpu_count() or 1
    workers = job.jobs if job.jobs is not None else cpus
    if workers < 1:
        raise JobError(f"worker count must be positive, got {job.jobs}")
    whole = scope_echo["kind"] == "all"
    if whole and cd.rows and ctx.n > 1:
        # at n = 1 the packed-plane transform costs more than counting each row
        # (p = 13: 4 ms against 0.2 ms; p = 101: about 0.3 s against 0.03-0.04 s)
        ctx.count_rows = kloos._count_table(ctx)
    echo = {
        "field": {"p": ctx.p, "n": ctx.n, "modulus": list(ctx.modulus),
                  "generator": list(ctx.generator.coeffs)},
        "check": job.check,
        "scope": scope_echo,
        "precision": precision,
    }
    if cd.domain == "aggregate":
        cases, histogram = _spectrum_reports(ctx)
    else:
        reps = indices
        if cd.orbit and whole:
            reps = _orbit_leaders(ctx, indices, cd.domain == "exponent")
        evaluated = [i for i, r in zip(indices, reps) if i == r]
        workers = min(workers, cpus, len(evaluated))
        evaluate = partial(_evaluate, job.check, ctx, uctx)
        member = (lambda i: i) if cd.domain == "exponent" else ctx.element_at
        if workers > 1:
            from multiprocessing import Pool
            with Pool(processes=workers) as pool:
                chunk = math.ceil(len(evaluated) / workers)
                by_rep = dict(zip(evaluated, pool.imap(evaluate, evaluated, chunk)))
        else:
            by_rep = dict(zip(evaluated, map(evaluate, evaluated)))
        cases = [r if i == rep else
                 CongruenceReport(r.subject, r.lhs, r.rhs, r.modulus, r.passed, member(i))
                 for i, rep in zip(indices, reps) for r in by_rep[rep]]
        histogram = dict(sorted(Counter(r.lhs for r in cases).items())) if cd.histogram else None
    return SweepReport(echo, len(indices), cases, [r for r in cases if not r.passed],
                       histogram, time.perf_counter() - t0)


_BATCH = 256       # lines per write


def _write_cases(stream: TextIO, rows: Sequence[CongruenceReport],
                 payload: Callable[[CongruenceReport], tuple[str, str]],
                 witness: Callable[[object], str]) -> None:
    """Write one line per case: its payload's head, its witness, its payload's tail.

    The orbit fan-out in `run_verification` hands each member the subject,
    lhs, rhs, modulus and verdict objects of its representative's report,
    so a payload is keyed by the identity of those five objects, never by
    value (1 == True, yet they render apart).  `payload` renders a head
    and tail the first time their key is seen, so memory grows with
    distinct payloads, not with cases.  The reports of one evaluation
    share their witness object, so a witness is rendered once for a run of
    cases that hold it.  Lines go out `_BATCH` at a time.
    """
    parts: dict[tuple[int, ...], tuple[str, str]] = {}
    out: list[str] = []
    last, text = object(), ""      # no report holds this witness
    for r in rows:
        key = (id(r.subject), id(r.lhs), id(r.rhs), id(r.modulus), id(r.passed))
        part = parts.get(key)
        if part is None:
            part = parts[key] = payload(r)
        if r.witness is not last:
            last = r.witness
            text = witness(last)
        out += part[0], text, part[1]
        if len(out) >= 3 * _BATCH:
            stream.write("".join(out))
            out.clear()
    if out:
        stream.write("".join(out))


def _json_payload(r: CongruenceReport) -> tuple[str, str]:
    tail = {"lhs": r.lhs, "rhs": r.rhs, "modulus": r.modulus, "pass": r.passed}
    return ('{"type": "case", "subject": ' + json.dumps(r.subject) + ', "witness": ',
            ", " + json.dumps(tail)[1:] + "\n")


def _json_witness(w) -> str:
    if type(w) is FFElem:
        return "[" + ", ".join(map(str, w.coeffs)) + "]"
    if type(w) is int:
        return str(w)
    return json.dumps(w)


def _csv_payload(r: CongruenceReport) -> tuple[str, str]:
    modulus = "" if r.modulus is None else str(r.modulus)
    return (r.subject + ",",
            f",{_csv_cell(r.lhs)},{_csv_cell(r.rhs)},{modulus},{str(r.passed).lower()}\n")


def emit_report(report: SweepReport, fmt: str, stream: TextIO,
                records: str = "failures") -> None:
    """Write a sweep report; formats are json-lines, csv, and summary.

    `records` selects whether json-lines carries every case or only the
    failures.  Nothing emitted here depends on worker count or timing.
    """
    if fmt == "json-lines":
        rows = report.cases if records == "all" else report.failures
        _write_cases(stream, rows, _json_payload, _json_witness)
        histogram = report.histogram
        if histogram is not None:
            histogram = {str(k): v for k, v in histogram.items()}
        summary = {
            "type": "summary",
            **report.job,
            "total": report.total,
            "failures": len(report.failures),
            "histogram": histogram,
        }
        stream.write(json.dumps(summary) + "\n")
    elif fmt == "csv":
        stream.write("subject,witness,lhs,rhs,modulus,pass\n")
        _write_cases(stream, report.cases, _csv_payload, _csv_cell)
    elif fmt == "summary":
        for r in report.failures:
            stream.write(
                f"FAIL {r.subject} witness={_csv_cell(r.witness)} "
                f"lhs={_csv_cell(r.lhs)} rhs={_csv_cell(r.rhs)}\n")
        if report.histogram is not None:
            for k, v in report.histogram.items():
                stream.write(f"count[{_csv_cell(k)}] = {v}\n")
        verdict = "PASS" if not report.failures else "FAIL"
        tail = "" if not report.failures else f" failures={len(report.failures)}"
        stream.write(f"{verdict} total={report.total}{tail}\n")
    else:
        raise JobError(f"unknown format {fmt!r}")


def _csv_cell(v) -> str:
    if isinstance(v, FFElem):
        v = v.coeffs
    return ":".join(map(str, v)) if isinstance(v, (tuple, list)) else str(v)
