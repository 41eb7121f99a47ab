"""Verification sweeps: check registry, parallel execution, report emission.

A job names a field, a check, and a scope (everything, one witness, or a
seeded sample).  `Pool.map` splits the witnesses into contiguous chunks,
one per worker, and returns the results in witness order, so output is
byte-identical regardless of worker count.  Wall time is tracked on the
report but never written to the output stream for the same reason.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from multiprocessing import Pool
from typing import Callable, Optional, TextIO

from . import kloos, padic
from .cyclo import CycInt
from .ff import FFElem, FieldCtx, FieldError, make_field
from .kloos import CongruenceReport, InternalCheckError


class JobError(ValueError):
    """Invalid job configuration: unknown check, bad scope, bad field."""


@dataclass(frozen=True)
class VerificationJob:
    p: int
    n: int
    check: str
    modulus: Optional[tuple[int, ...]] = None
    scope: tuple = ("all",)
    jobs: Optional[int] = None
    precision: Optional[int] = None


@dataclass
class SweepReport:
    job: dict
    total: int
    cases: list[CongruenceReport]
    failures: list[CongruenceReport]
    histogram: Optional[dict]
    wall_time: float


@dataclass(frozen=True)
class CheckDef:
    """One check: its witness domain, evaluator, requirement and lift.

    `evaluate(ctx, uctx, idx)` returns the reports at one index (for the
    aggregate domain, the counting row the aggregator consumes).  It looks
    its check function up at call time, so a rebound module attribute is
    what every sweep calls.  `precision` is (default, minimum) lift digits,
    or None when the check needs no p-adic lift.
    """

    domain: str                      # element | exponent | aggregate
    evaluate: Callable[[FieldCtx, object, int], list]
    p: Optional[int] = None          # required characteristic, None for any
    min_n: int = 1
    precision: Optional[tuple[int, int]] = None
    histogram: bool = False          # tally lhs values (residue checks)


CHECKS: dict[str, CheckDef] = {
    "thm1": CheckDef(
        "element", lambda c, u, i: [kloos.check_conjugate_product(c, c.element_at(i))]),
    "mod9": CheckDef(
        "element", lambda c, u, i: [kloos.check_mod9(c, c.element_at(i))],
        p=3, min_n=2, histogram=True),
    "mod27": CheckDef(
        "element", lambda c, u, i: [kloos.check_mod27(c, c.element_at(i))],
        p=3, min_n=3, histogram=True),
    "fourier": CheckDef(
        "element", lambda c, u, i: [padic.check_fourier_mod27(u, c.element_at(i))],
        p=3, min_n=3, precision=(3, 3)),
    "identities": CheckDef(
        "element", lambda c, u, i: list(padic.identity_reports(u, c.element_at(i))),
        p=3, min_n=3, precision=(3, 1)),
    "moisio": CheckDef(
        "element", lambda c, u, i: [kloos.check_min_poly_reduction(c, c.element_at(i))]),
    "wan": CheckDef(
        "element", lambda c, u, i: [kloos.check_min_poly_degree(c, c.element_at(i))]),
    "weil": CheckDef(
        "element", lambda c, u, i: [kloos.check_weil_bound(c, c.element_at(i))], p=3),
    "stickelberger": CheckDef(
        "exponent", lambda c, u, i: [padic.check_stickelberger(u, i)], precision=(2, 1)),
    "wt1": CheckDef(
        "exponent", lambda c, u, i: [padic.check_gauss_square_mod27(u, i)],
        p=3, min_n=3, precision=(3, 3)),
    "spectrum": CheckDef("aggregate", lambda c, u, i: [kloos._counts_by_index(c, i)]),
}


def _witness(check: str, ctx: FieldCtx, idx: int) -> str:
    """The check and the CLI argument that re-runs it at one index."""
    if CHECKS[check].domain == "exponent":
        return f"(check {check}, --j {idx})"
    return f"(check {check}, --a {','.join(map(str, ctx.element_at(idx).coeffs))})"


def _evaluate(check: str, ctx: FieldCtx, uctx, idx: int) -> list:
    try:
        return CHECKS[check].evaluate(ctx, uctx, idx)
    except InternalCheckError as e:
        raise InternalCheckError(f"{e} {_witness(check, ctx, idx)}") from e


def _resolve_scope(job: VerificationJob, ctx: FieldCtx, domain: str) -> tuple[list[int], dict]:
    q = ctx.q
    kind = job.scope[0]
    if domain == "aggregate" and kind != "all":
        raise JobError(f"check {job.check!r} only supports a full sweep (--all)")
    pool = range(q) if domain != "exponent" else range(1, q - 1)
    if kind == "all":
        return list(pool), {"kind": "all"}
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
        if not 0 <= count <= len(pool):
            raise JobError(f"sample size {count} outside [0, {len(pool)}]")
        indices = sorted(random.Random(seed).sample(pool, count))
        return indices, {"kind": "sample", "count": count, "seed": seed}
    raise JobError(f"unknown scope {kind!r}")


def _spectrum_reports(ctx: FieldCtx, counts_list: list[tuple[int, ...]]):
    """Checksum and divisibility reports plus the value histogram.

    `counts_list` holds the counting row of every field index in order, as
    the aggregate domain only sweeps the whole field.
    """
    p = ctx.p
    hist: dict = {}
    totals = [0] * p
    for idx, counts in enumerate(counts_list):
        value = CycInt.from_power_counts(p, counts)
        key = value.as_rational() if p == 3 else value.coords
        if key is None:
            raise InternalCheckError(
                f"ternary Kloosterman sum is not rational {_witness('spectrum', ctx, idx)}")
        hist[key] = hist.get(key, 0) + 1
        for t, c in enumerate(counts):
            totals[t] += c
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
        uctx = padic.lift_field(ctx, precision)
    elif job.precision is not None:
        raise JobError(f"check {job.check!r} takes no precision, got {job.precision}")

    indices, scope_echo = _resolve_scope(job, ctx, cd.domain)
    cpus = os.cpu_count() or 1
    workers = job.jobs if job.jobs is not None else cpus
    if workers < 1:
        raise JobError(f"worker count must be positive, got {job.jobs}")
    workers = min(workers, cpus, len(indices))
    evaluate = partial(_evaluate, job.check, ctx, uctx)
    if workers > 1:
        with Pool(processes=workers) as pool:
            results = pool.map(evaluate, indices,
                               chunksize=math.ceil(len(indices) / workers))
    else:
        results = [evaluate(idx) for idx in indices]

    cases = [r for rs in results for r in rs]
    histogram: Optional[dict] = None
    if cd.domain == "aggregate":
        cases, histogram = _spectrum_reports(ctx, cases)
    elif cd.histogram:
        histogram = dict(sorted(Counter(r.lhs for r in cases).items()))

    failures = [r for r in cases if not r.passed]
    echo = {
        "field": {"p": ctx.p, "n": ctx.n, "modulus": list(ctx.modulus),
                  "generator": list(ctx.generator.coeffs)},
        "check": job.check,
        "scope": scope_echo,
        "precision": precision,
    }
    return SweepReport(echo, len(indices), cases, failures, histogram,
                       time.perf_counter() - t0)


def _jsonable(v):
    if isinstance(v, FFElem):
        return list(v.coeffs)
    if isinstance(v, tuple):
        return list(v)
    return v


def _report_dict(r: CongruenceReport) -> dict:
    return {
        "type": "case",
        "subject": r.subject,
        "witness": _jsonable(r.witness),
        "lhs": _jsonable(r.lhs),
        "rhs": _jsonable(r.rhs),
        "modulus": r.modulus,
        "pass": r.passed,
    }


def _histogram_json(histogram: Optional[dict]) -> Optional[dict]:
    if histogram is None:
        return None
    return {str(k): v for k, v in histogram.items()}


def emit_report(report: SweepReport, fmt: str, stream: TextIO,
                records: str = "failures") -> None:
    """Write a sweep report; formats are json-lines, csv, and summary.

    `records` selects whether json-lines carries every case or only the
    failures.  Nothing emitted here depends on worker count or timing.
    """
    if fmt == "json-lines":
        rows = report.cases if records == "all" else report.failures
        for r in rows:
            stream.write(json.dumps(_report_dict(r)) + "\n")
        summary = {
            "type": "summary",
            **report.job,
            "total": report.total,
            "failures": len(report.failures),
            "histogram": _histogram_json(report.histogram),
        }
        stream.write(json.dumps(summary) + "\n")
    elif fmt == "csv":
        stream.write("subject,witness,lhs,rhs,modulus,pass\n")
        for r in report.cases:
            row = [r.subject, _csv_cell(r.witness), _csv_cell(r.lhs),
                   _csv_cell(r.rhs), "" if r.modulus is None else str(r.modulus),
                   str(r.passed).lower()]
            stream.write(",".join(row) + "\n")
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
    v = _jsonable(v)
    return ":".join(map(str, v)) if isinstance(v, list) else str(v)
