"""Command-line front end.

Exit codes: 0 on success, 1 when a verification sweep finds a failing
congruence, 2 for usage or configuration errors, 3 when an internal
consistency check fails (a defect in ksum, not a failed congruence).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import kloos
from .ff import is_prime, make_field
from .sweeps import CHECKS, VerificationJob, emit_report, run_verification


class FieldSpecError(ValueError):
    pass


def parse_field_spec(text: str) -> tuple[int, int, Optional[tuple[int, ...]]]:
    """Parse 'p=<int>,n=<int>[,mod=<c0>,<c1>,...]' into field parameters."""
    parts = text.split(",")
    seen: dict[str, int] = {}
    modulus: Optional[tuple[int, ...]] = None
    i = 0
    while i < len(parts):
        part = parts[i]
        key, eq, val = part.partition("=")
        if not eq:
            raise FieldSpecError(
                f"field spec {text!r}: expected key=value at position {i + 1}, got {part!r}")
        if key in seen:
            raise FieldSpecError(f"field spec {text!r}: duplicate key {key!r}")
        if key == "mod":
            tail = [val] + parts[i + 1:]
            try:
                modulus = tuple(int(c) for c in tail)
            except ValueError:
                raise FieldSpecError(
                    f"field spec {text!r}: modulus coefficients must be integers") from None
            seen[key] = i
            break
        if key not in ("p", "n"):
            raise FieldSpecError(
                f"field spec {text!r}: unknown key {key!r} at position {i + 1}")
        try:
            seen[key] = int(val)
        except ValueError:
            raise FieldSpecError(
                f"field spec {text!r}: {key} must be an integer, got {val!r}") from None
        i += 1
    if "p" not in seen or "n" not in seen:
        raise FieldSpecError(f"field spec {text!r}: both p and n are required")
    return seen["p"], seen["n"], modulus


def _parse_element(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise FieldSpecError(
            f"element {text!r}: expected comma-separated integers") from None


def _field_from_args(args) -> tuple:
    p, n, modulus = parse_field_spec(args.field)
    return make_field(p, n, modulus)


def _element_from_args(args) -> tuple:
    ctx = _field_from_args(args)
    return ctx, ctx.element(_parse_element(args.a))


def _poly_payload(poly) -> dict:
    return {"coeffs": list(poly.coeffs), "degree": poly.degree, "text": str(poly)}


def _show(args, payload: dict, lines: list[str]) -> int:
    """Print a value command's result as one JSON object or as summary lines."""
    if args.format == "json-lines":
        print(json.dumps(payload))
    else:
        print("\n".join(lines))
    return 0


def _cmd_kloosterman(args) -> int:
    ctx, a = _element_from_args(args)
    kv = kloos.kloosterman(ctx, a)
    rational = kv.as_int()
    return _show(args, {
        "a": list(a.coeffs), "counts": list(kv.counts),
        "coords": list(kv.value.coords), "rational": rational,
    }, [
        f"a = {a}",
        f"counts = {kv.counts}",
        f"value = {kv.value}" + (f" = {rational}" if rational is not None else ""),
    ])


def _cmd_minpoly(args) -> int:
    ctx, a = _element_from_args(args)
    res = kloos.min_poly(ctx, a)
    return _show(args, {
        "a": list(a.coeffs), "min_poly": _poly_payload(res.min_poly),
        "multiplicity": res.multiplicity, "char_poly": _poly_payload(res.char_poly),
    }, [
        f"min poly  = {res.min_poly}",
        f"multiplicity = {res.multiplicity}",
        f"char poly = {res.char_poly}",
    ])


def _cmd_charpoly(args) -> int:
    ctx, a = _element_from_args(args)
    poly = kloos.min_poly(ctx, a).char_poly
    return _show(args, {"a": list(a.coeffs), "char_poly": _poly_payload(poly)}, [str(poly)])


def _cmd_gauss(args) -> int:
    from . import padic
    ctx = _field_from_args(args)
    uctx = padic.lift_field(ctx, args.precision)
    values, g = padic._gauss_sum_factors(uctx, args.j)
    wt = padic.p_weight(args.j, ctx.p)
    fracs = [str(f) for f in padic._gamma_arguments(uctx, args.j)]
    gammas = [v.residue for v in values]
    return _show(args, {
        "j": args.j, "weight": wt, "fractions": fracs, "gammas": gammas,
        "pi_exponent": g.pi_exponent, "unit": list(g.unit.coords),
        "precision": args.precision,
    }, [
        f"j = {args.j}  weight = {wt}",
        f"gamma arguments = {fracs}",
        f"gamma values mod {uctx.pk} = {gammas}",
        f"g(j) = pi^{g.pi_exponent} * {g.unit.coords}",
    ])


def _cmd_gamma(args) -> int:
    from fractions import Fraction

    from . import padic
    # the cap refuses every p > 2^27 before trial division would test it
    padic._check_gamma_modulus(args.p, args.precision)
    if not is_prime(args.p) or args.p == 2:
        raise ValueError(f"p must be an odd prime, got {args.p}")
    num, slash, den = args.x.partition("/")
    num, den = int(num), int(den) if slash else 1
    if den == 0:
        raise ValueError("zero denominator")
    frac = Fraction(num, den)
    value = padic.padic_from_rational(frac.numerator, frac.denominator,
                                      args.p, args.precision)
    out = padic.gamma_p(value)
    return _show(args, {"p": args.p, "precision": args.precision,
                        "argument": value.residue, "gamma": out.residue},
                 [f"gamma_{args.p}({value.residue} mod {value.pk}) = {out.residue}"])


def _cmd_spectrum(args) -> int:
    p, n, modulus = parse_field_spec(args.field)
    job = VerificationJob(p, n, "spectrum", modulus=modulus, scope=("all",), jobs=args.jobs)
    return _run(job, args, records="all")


def _cmd_verify(args) -> int:
    p, n, modulus = parse_field_spec(args.field)
    if args.all:
        scope: tuple = ("all",)
    elif args.a is not None:
        scope = ("element", _parse_element(args.a))
    elif args.j is not None:
        scope = ("exponent", args.j)
    else:
        scope = ("sample", args.sample, args.seed)
    job = VerificationJob(p, n, args.check, modulus=modulus, scope=scope,
                          jobs=args.jobs, precision=args.precision)
    return _run(job, args, records=args.records)


def _run(job: VerificationJob, args, records: str) -> int:
    """Run a sweep, write its report to --out or stdout, return the exit code.

    An --out path that cannot be written fails before any field is built.
    It is opened for appending, so a sweep that then fails leaves an
    existing file as it was; a file the check created is removed again.
    """
    created = False
    if args.out is not None:
        created = not os.path.lexists(args.out)
        open(args.out, "a").close()
    try:
        report = run_verification(job)
    except BaseException:
        if created:
            os.remove(args.out)
        raise
    if args.out is None:
        emit_report(report, args.format, sys.stdout, records=records)
    else:
        with open(args.out, "w") as stream:
            emit_report(report, args.format, stream, records=records)
    print(f"# elapsed {report.wall_time:.3f}s", file=sys.stderr)
    return 0 if not report.failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksum",
        description="Exact Kloosterman sums, minimal polynomials, and "
                    "p-adic congruence verification over F_{p^n}.")
    sub = parser.add_subparsers(dest="command", required=True)
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--field", required=True,
                       help="field spec: p=<int>,n=<int>[,mod=<c0>,<c1>,...]")
    value_format = argparse.ArgumentParser(add_help=False)
    value_format.add_argument("--format", choices=["summary", "json-lines"], default="summary")
    sweep_format = argparse.ArgumentParser(add_help=False)
    sweep_format.add_argument("--format", choices=["summary", "json-lines", "csv"],
                              default="summary")

    for name, cmd_help, a_help, handler in (
            ("kloosterman", "one Kloosterman sum, exactly", "element coords, constant first",
             _cmd_kloosterman),
            ("minpoly", "minimal polynomial of K(a) over Q", None, _cmd_minpoly),
            ("charpoly", "product of (x - K) over the conjugates", None, _cmd_charpoly)):
        sp = sub.add_parser(name, help=cmd_help, parents=[field, value_format])
        sp.add_argument("--a", required=True, help=a_help)
        sp.set_defaults(handler=handler)

    sp = sub.add_parser("gauss", help="Gauss sum in pi-power normal form",
                        parents=[field, value_format])
    sp.add_argument("--j", type=int, required=True, help="character index in [1, q-2]")
    sp.add_argument("--precision", type=int, default=3, help="base-p digits")
    sp.set_defaults(handler=_cmd_gauss)

    sp = sub.add_parser("gamma", help="p-adic gamma at an integer or fraction",
                        parents=[value_format])
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--precision", type=int, default=3)
    sp.add_argument("--x", required=True, help="integer residue or num/den")
    sp.set_defaults(handler=_cmd_gamma)

    sp = sub.add_parser("spectrum", help="value frequencies over the whole field",
                        parents=[field, sweep_format])
    sp.add_argument("--jobs", type=int, default=None,
                    help="validated, but the rows are read in one process")
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=_cmd_spectrum)

    sp = sub.add_parser("verify", help="run a congruence check over a scope",
                        parents=[field, sweep_format])
    sp.add_argument("--check", required=True, choices=sorted(CHECKS))
    scope = sp.add_mutually_exclusive_group(required=True)
    scope.add_argument("--all", action="store_true", help="sweep the whole domain")
    scope.add_argument("--a", default=None, help="single element coords")
    scope.add_argument("--j", type=int, default=None, help="single Gauss-sum index")
    scope.add_argument("--sample", type=int, default=None, help="sample this many witnesses")
    sp.add_argument("--seed", type=int, default=0, help="sample seed")
    sp.add_argument("--jobs", type=int, default=None, help="worker processes")
    sp.add_argument("--precision", type=int, default=None, help="base-p digits")
    sp.add_argument("--records", choices=["failures", "all"], default="failures",
                    help="json-lines: which cases to emit")
    sp.add_argument("--out", default=None, help="write the report here instead of stdout")
    sp.set_defaults(handler=_cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except kloos.InternalCheckError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
