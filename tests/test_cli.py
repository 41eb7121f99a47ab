"""Command-line interface: parsing, exit codes, output discipline."""

import argparse
import hashlib
import json
import multiprocessing
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import ksum
import ksum._product_tree
import ksum.cli
import ksum.cyclo
import ksum.ff
import ksum.kloos
import ksum.padic
import ksum.sweeps
from ksum.cli import FieldSpecError, build_parser, main, parse_field_spec
from ksum.ff import FFElem, FieldCtx
from ksum.kloos import CongruenceReport, InternalCheckError
from ksum.padic import PadicInt


# ---------------------------------------------------------- field specs

def test_parse_field_spec_basic():
    assert parse_field_spec("p=3,n=5") == (3, 5, None)
    assert parse_field_spec("n=2,p=7") == (7, 2, None)


def test_parse_field_spec_with_modulus():
    assert parse_field_spec("p=3,n=3,mod=1,0,2,1") == (3, 3, (1, 0, 2, 1))


def test_parse_field_spec_errors():
    for bad in ("p=3", "n=2", "p=3,n=x", "p=3,p=4,n=2", "q=9,n=2",
                "p=3;n=2", "p=3,n=2,mod=1,a,1", "p=3,n"):
        with pytest.raises(FieldSpecError):
            parse_field_spec(bad)


# ------------------------------------------------------------ exit codes

def test_verify_pass_exit_zero(capsys):
    rc = main(["verify", "--field", "p=3,n=3", "--check", "mod27", "--all",
               "--jobs", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "PASS total=27"


def test_weil_bound_holds_where_k_squared_exceeds_4q(capsys):
    # at this n = 13 element K(a) = 2526 > 2*sqrt(q); Kl(a) = K(a) - 1 is in bound
    args = ["verify", "--field", "p=3,n=13", "--check", "weil",
            "--a", "0,0,1,2,1,2,0,1,0,0,0,1,0"]
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS total=1"
    assert main(args + ["--format", "json-lines", "--records", "all"]) == 0
    case = json.loads(capsys.readouterr().out.splitlines()[0])
    # lhs = 2525^2, rhs = 4 * 3^13
    assert (case["lhs"], case["rhs"], case["pass"]) == (6375625, 6377292, True)


def test_verify_failure_exit_one(monkeypatch, capsys):
    def broken(ctx, a):
        return CongruenceReport("mod9", 1, 2, 9, False, str(a))
    monkeypatch.setattr(ksum.kloos, "check_mod9", broken)
    rc = main(["verify", "--field", "p=3,n=2", "--check", "mod9", "--all",
               "--jobs", "1"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_internal_defect_exit_three(monkeypatch, capsys):
    def broken(ctx, a):
        raise InternalCheckError("trace counts do not cover the field")
    monkeypatch.setattr(ksum.kloos, "check_mod9", broken)
    rc = main(["verify", "--field", "p=3,n=2", "--check", "mod9", "--all",
               "--jobs", "1"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal error: trace counts do not cover the field "
                            "(check mod9, --a 0,0)\n")


def test_internal_defect_names_gauss_index(monkeypatch, capsys):
    def broken(uctx, j):
        raise InternalCheckError("squared Gauss sum kept a pi power")
    monkeypatch.setattr(ksum.padic, "check_gauss_square_mod27", broken)
    rc = main(["verify", "--field", "p=3,n=3", "--check", "wt1", "--j", "13",
               "--jobs", "1"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal error: squared Gauss sum kept a pi power "
                            "(check wt1, --j 13)\n")


def test_spectrum_defect_exit_three(monkeypatch, capsys):
    # a count vector whose value is not rational must stop the aggregator
    monkeypatch.setattr(ksum.kloos, "_counts_by_index",
                        lambda ctx, k: (ctx.q - 2, 2, 0))
    rc = main(["spectrum", "--field", "p=3,n=2", "--jobs", "1"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal error: ternary Kloosterman sum is not rational "
                            "(check spectrum, rerun: ksum kloosterman --a 0,0)\n")
    # one bad table row at indices 5 = (2, 1) and 7 = (1, 2) only: the
    # witness is the first index that holds it
    monkeypatch.undo()
    real_table = ksum.kloos._count_table

    def table(ctx):
        rows = real_table(ctx)
        rows[5] = rows[7] = (ctx.q - 2, 2, 0)
        return rows
    monkeypatch.setattr(ksum.kloos, "_count_table", table)
    rc = main(["spectrum", "--field", "p=3,n=2", "--jobs", "1"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal error: ternary Kloosterman sum is not rational "
                            "(check spectrum, rerun: ksum kloosterman --a 2,1)\n")
    # the hinted command runs on the unpatched code
    monkeypatch.undo()
    hint = captured.err.split("rerun: ksum ")[1].rstrip(")\n")
    assert main(shlex.split(hint) + ["--field", "p=3,n=2"]) == 0
    assert capsys.readouterr().out.startswith("a = 2,1\n")
    # at n = 1 no table is built: the bad row comes through the accessor
    real = ksum.kloos._counts_by_index
    monkeypatch.setattr(ksum.kloos, "_counts_by_index",
                        lambda ctx, k: (ctx.q - 2, 2, 0) if k == 2 else real(ctx, k))
    rc = main(["spectrum", "--field", "p=3,n=1", "--jobs", "1"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal error: ternary Kloosterman sum is not rational "
                            "(check spectrum, rerun: ksum kloosterman --a 2)\n")


@pytest.mark.parametrize("check", ["moisio", "wan"])
def test_non_rational_min_poly_exit_three(check, monkeypatch, capsys):
    # move one x from trace 0 to trace 1 in the counting row of index 7 = (2, 1)
    real = ksum.kloos._counts_by_index

    def corrupted(ctx, k):
        counts = list(real(ctx, k))
        if k == 7:
            counts[0] -= 1
            counts[1] += 1
        return tuple(counts)

    monkeypatch.setattr(ksum.kloos, "_counts_by_index", corrupted)
    rc = main(["verify", "--field", "p=5,n=2", "--check", check, "--all",
               "--jobs", "1"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: coefficient at index 0 is not a rational integer: "
        f"-3 + 4*z + 6*z^2 + 3*z^3 (check {check}, --a 2,1)\n")


def test_narrow_expansion_slots_exit_three(monkeypatch, capsys):
    # one byte narrower than the bound asks (one byte at least) overflows
    # slots of the packed expansion at p = 7, n = 3
    real = ksum._product_tree.slot_bytes
    monkeypatch.setattr(ksum._product_tree, "slot_bytes", lambda bound: max(real(bound) - 1, 1))
    rc = main(["verify", "--field", "p=7,n=3", "--check", "moisio", "--all", "--jobs", "1"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")
    assert "(check moisio, --a " in captured.err


@pytest.mark.parametrize("check", ["moisio", "wan"])
def test_rational_but_wrong_expansion_fails_its_certificate(check, monkeypatch, capsys):
    # m(0) + p^2 keeps m = x^d mod p, so only the conjugate product sees it
    real = ksum.kloos.product_linear

    def shifted(roots):
        m = real(roots)
        return ksum.cyclo.IntPolynomial((m.coeffs[0] + 25,) + m.coeffs[1:])

    monkeypatch.setattr(ksum.kloos, "product_linear", shifted)
    rc = main(["verify", "--field", "p=5,n=2", "--check", check, "--all", "--jobs", "1"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal error: the conjugate product 0 is not (-1)^d * m(0) "
                            f"= -25 (check {check}, --a 0,0)\n")


@pytest.fixture
def cold_rows():
    """Counting rows come from the field, not from an earlier test's cache."""
    ksum.kloos._counts_by_index.cache_clear()
    yield
    ksum.kloos._counts_by_index.cache_clear()


@pytest.mark.parametrize("field,scope,k,value,message", [
    # Tr(1) = 7 puts the sum at x = 1 above every trace value that is counted
    ("p=3,n=3", ["--a", "1,1,0"], 0, 7,
     "trace counts do not cover the field (check mod9, --a 1,1,0)"),
    # x = 1 takes the dual coordinates of another element
    ("p=3,n=3", ["--all"], 0, 1, "dual coordinates do not cover the field"),
    # a top coordinate of -1 puts y - q among the dual coordinates, outside
    # the field's indices (as a list index it would alias y's own slot)
    ("p=3,n=2", ["--all"], 8, -1, "dual coordinates do not cover the field"),
], ids=["count-row", "count-table-dual", "count-table-sum"])
def test_corrupt_trace_table_exit_three(monkeypatch, capsys, cold_rows,
                                        field, scope, k, value, message):
    real = FieldCtx.tables.func

    def tables(ctx):
        t = real(ctx)
        row = list(t.trace_by_log2)
        row[k] = value
        return t._replace(trace_by_log2=row)

    monkeypatch.setattr(FieldCtx, "tables", property(tables))
    rc = main(["verify", "--field", field, "--check", "mod9", *scope, "--jobs", "1"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {message}\n"


@pytest.mark.parametrize("check,message", [
    ("mod9", "ternary Kloosterman sum is not rational"),
    ("fourier", "ternary Kloosterman sum is not rational"),
    ("thm1", "conjugate product is not a rational integer"),
])
def test_non_rational_ternary_row_exit_three(monkeypatch, capsys, check, message):
    monkeypatch.setattr(ksum.kloos, "_counts_by_index", lambda ctx, k: (ctx.q - 2, 2, 0))
    rc = main(["verify", "--field", "p=3,n=3", "--check", check, "--a", "1,1,0",
               "--jobs", "1"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {message} (check {check}, --a 1,1,0)\n"


def test_bogus_gauss_square_exit_three(monkeypatch, capsys):
    # g(1)^2 = 6 mod 27; a 7 adds teich(a) itself, which is not rational
    real = ksum.padic.gauss_square_mod27
    monkeypatch.setattr(ksum.padic, "gauss_square_mod27",
                        lambda uctx, j: PadicInt(3, 3, 7) if j == 1 else real(uctx, j))
    rc = main(["verify", "--field", "p=3,n=3", "--check", "fourier", "--a", "1,1,0",
               "--jobs", "1"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal error: Fourier sum is not rational mod 27 "
                            "(check fourier, --a 1,1,0)\n")


def test_power_sum_outside_prime_field_exit_three(monkeypatch, capsys):
    # the Y orbit {91, 273} at n = 6 is summed power by power; shifting the
    # x coefficient of every odd power leaves that sum outside F_3
    real = FieldCtx.pow

    def shifted(ctx, x, e):
        y = real(ctx, x, e)
        if e % 2:
            y = FFElem((y.coeffs[0], (y.coeffs[1] + 1) % ctx.p) + y.coeffs[2:])
        return y

    monkeypatch.setattr(FieldCtx, "pow", shifted)
    rc = main(["verify", "--field", "p=3,n=6", "--check", "mod27", "--a", "1,1,0,0,0,0",
               "--jobs", "1"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal error: power sum left the prime field "
                            "(check mod27, --a 1,1,0,0,0,0)\n")
    assert ksum.InternalCheckError is ksum.ff.InternalCheckError is InternalCheckError


def test_usage_errors_exit_two(capsys):
    assert main(["verify", "--field", "p=4,n=2", "--check", "mod9", "--all"]) == 2
    assert main(["verify", "--field", "p=3", "--check", "mod9", "--all"]) == 2
    assert main(["verify", "--field", "p=3,n=2", "--check", "mod27", "--all"]) == 2
    assert main(["kloosterman", "--field", "p=3,n=3", "--a", "1,0"]) == 2
    capsys.readouterr()
    assert main(["kloosterman", "--field", "p=3,n=3", "--a", ",,"]) == 2
    assert capsys.readouterr().err == "error: element ',,': expected comma-separated integers\n"
    # argparse enforces exactly one scope, so these stop in parse_args
    for scopes, message in (
            ([], "one of the arguments --all --a --j --sample is required"),
            (["--all", "--a", "1,0,0"], "argument --a: not allowed with argument --all")):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--field", "p=3,n=3", "--check", "mod27"] + scopes)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"ksum verify: error: {message}\n")


def test_thm1_rejects_ternary_prime_field(capsys):
    rc = main(["verify", "--field", "p=3,n=1", "--check", "thm1", "--all",
               "--jobs", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: conjugate-product check at p = 3 requires n > 1\n"


def test_unknown_check_rejected_by_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--field", "p=3,n=3", "--check", "bogus", "--all"])
    assert exc.value.code == 2


# Each subcommand's options, written out in full so that moving a flag into
# a parent parser cannot drop, rename or re-default it:
# option -> (choices, default, required, type, help).
_FIELD = {"--field": (None, None, True, None,
                      "field spec: p=<int>,n=<int>[,mod=<c0>,<c1>,...]")}
_ELEMENT = {"--a": (None, None, True, None, "element coords, constant first")}
_VALUE_FORMAT = {"--format": (["summary", "json-lines"], "summary", False, None, None)}
_SWEEP_FORMAT = {"--format": (["summary", "json-lines", "csv"], "summary", False, None, None)}
PARSER_OPTIONS = {
    "kloosterman": {**_FIELD, **_VALUE_FORMAT, **_ELEMENT},
    "minpoly": {**_FIELD, **_VALUE_FORMAT, **_ELEMENT},
    "charpoly": {**_FIELD, **_VALUE_FORMAT, **_ELEMENT},
    "gauss": {**_FIELD, **_VALUE_FORMAT,
              "--j": (None, None, True, int, "character index in [1, q-2]"),
              "--precision": (None, 3, False, int, "base-p digits")},
    "gamma": {**_VALUE_FORMAT,
              "--p": (None, None, True, int, "odd prime"),
              "--precision": (None, 3, False, int, "base-p digits"),
              "--x": (None, None, True, None, "integer residue or num/den")},
    "spectrum": {**_FIELD, **_SWEEP_FORMAT,
                 "--jobs": (None, None, False, int,
                            "validated, but the rows are read in one process"),
                 "--out": (None, None, False, None,
                           "write the report here instead of stdout")},
    "verify": {**_FIELD, **_SWEEP_FORMAT,
               "--check": (["fourier", "identities", "mod27", "mod9", "moisio", "spectrum",
                            "stickelberger", "thm1", "wan", "weil", "wt1"],
                           None, True, None, None),
               "--all": (None, False, False, None, "sweep the whole domain"),
               "--a": (None, None, False, None, "single element coords"),
               "--j": (None, None, False, int, "single Gauss-sum index"),
               "--sample": (None, None, False, int, "sample this many witnesses"),
               "--seed": (None, 0, False, int, "sample seed"),
               "--jobs": (None, None, False, int, "worker processes"),
               "--precision": (None, None, False, int, "base-p digits"),
               "--records": (["failures", "all"], "failures", False, None,
                             "json-lines: which cases to emit"),
               "--out": (None, None, False, None, "write the report here instead of stdout")},
}


def test_parser_keeps_every_option():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(PARSER_OPTIONS)
    for name, sp in sub.choices.items():
        got = {}
        for action in sp._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            (opt,) = action.option_strings
            assert action.dest == opt[2:]
            got[opt] = (action.choices, action.default, action.required,
                        action.type, action.help)
        assert got == PARSER_OPTIONS[name], name
        groups = [[a.option_strings for a in g._group_actions]
                  for g in sp._mutually_exclusive_groups]
        if name == "verify":
            assert groups == [[["--all"], ["--a"], ["--j"], ["--sample"]]]
            assert sp._mutually_exclusive_groups[0].required
        else:
            assert groups == []


# --------------------------------------------------------- single values

def test_kloosterman_json(capsys):
    rc = main(["kloosterman", "--field", "p=3,n=3", "--a", "1,0,0",
               "--format", "json-lines"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rational"] == 9
    assert sum(payload["counts"]) == 27


def test_minpoly_json(capsys):
    rc = main(["minpoly", "--field", "p=5,n=2", "--a", "0,1",
               "--format", "json-lines"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["min_poly"]["coeffs"] == [-45, 0, 1]
    assert payload["multiplicity"] == 1


def test_charpoly_summary(capsys):
    rc = main(["charpoly", "--field", "p=5,n=2", "--a", "0,1"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "x^2 - 45"


def test_gamma_fraction(capsys):
    rc = main(["gamma", "--p", "3", "--precision", "3", "--x", "3/26",
               "--format", "json-lines"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["argument"] == 24
    assert payload["gamma"] == 13


def test_gamma_rejects_non_unit_denominator(capsys):
    assert main(["gamma", "--p", "3", "--x", "1/3"]) == 2
    capsys.readouterr()


def test_gamma_zero_denominator_exit_two(capsys):
    assert main(["gamma", "--p", "3", "--x", "1/0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: zero denominator\n"


@pytest.mark.parametrize("x", ["abc", "1/y"])
def test_gamma_names_an_unparsable_argument(capsys, x):
    assert main(["gamma", "--p", "3", "--x", x]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: x '{x}': expected an integer or num/den\n"


def test_gamma_rejects_precision_below_one(capsys):
    for precision in ("0", "-1"):
        for x in ("2", "1/2"):
            assert main(["gamma", "--p", "3", "--precision", precision,
                         "--x", x]) == 2, (precision, x)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: precision must be at least 1\n"


def test_gamma_requires_odd_prime(capsys):
    for p in (0, 1, 2, 4, 9, -3):
        assert main(["gamma", "--p", str(p), "--x", "3"]) == 2, p
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: p must be an odd prime, got {p}\n"


_OVER_CAP = [
    (["verify", "--field", "p=3,n=3", "--check", "fourier", "--all",
      "--precision", "100", "--jobs", "1"], "3^100"),
    (["gamma", "--p", "101", "--precision", "5", "--x", "7"], "101^5"),
    (["gauss", "--field", "p=3,n=3", "--j", "1", "--precision", "30"], "3^30"),
]


@pytest.mark.parametrize("argv,modulus", _OVER_CAP)
def test_gamma_cap_exit_two(argv, modulus, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: gamma_p needs p^K <= 2^27, got p^K = {modulus}; lower the precision\n")


@pytest.mark.parametrize("argv,modulus", _OVER_CAP + [
    (["gamma", "--p", "3", "--precision", "40", "--x", "1/2"], "3^40"),
    (["verify", "--field", "p=3,n=3", "--check", "stickelberger", "--j", "1",
      "--precision", "30"], "3^30"),
])
def test_gamma_cap_builds_no_padic_value(argv, modulus, monkeypatch, capsys):
    """The cap is decided from (p, K) before any p-adic value forms p^K."""
    built = []
    real_init = ksum.padic.PadicInt.__init__

    def counted_init(self, *args):
        built.append("PadicInt")
        real_init(self, *args)

    def counted_from_rational(*args, _real=ksum.padic.padic_from_rational):
        built.append("padic_from_rational")
        return _real(*args)

    monkeypatch.setattr(ksum.padic.PadicInt, "__init__", counted_init)
    monkeypatch.setattr(ksum.padic, "padic_from_rational", counted_from_rational)
    assert main(argv) == 2
    assert f"got p^K = {modulus};" in capsys.readouterr().err
    assert built == []


def test_gamma_just_under_cap(capsys):
    # Gamma_p(k) = (-1)^k * prod of t < k prime to p
    for p, precision, k, value in ((3, 17, 5, -8), (101, 4, 3, -2)):
        assert main(["gamma", "--p", str(p), "--precision", str(precision),
                     "--x", str(k), "--format", "json-lines"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gamma"] == value % p ** precision


_BIG = "p=3,n=30"
_BIG_A = "1" + ",0" * 29


@pytest.mark.parametrize("argv", [
    ["gauss", "--field", _BIG, "--j", "1"],
    ["verify", "--field", "p=3,n=21", "--check", "wt1", "--j", "5"],
    ["verify", "--field", _BIG, "--check", "stickelberger", "--j", "5"],
    ["verify", "--field", "p=3,n=21", "--check", "stickelberger", "--sample", "3"],
    ["gauss", "--field", "p=1000003,n=2", "--j", "5", "--precision", "1"],
])
def test_table_free_commands_run_above_q_cap(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv,refused", [
    (["kloosterman", "--field", _BIG, "--a", _BIG_A],
     "the field tables of F_3^30 would hold 205891132094649 entries"),
    (["verify", "--field", _BIG, "--check", "fourier", "--a", _BIG_A],
     "the field tables of F_3^30 would hold 205891132094649 entries"),
    (["verify", "--field", "p=1000003,n=2", "--check", "stickelberger", "--all"],
     "an --all scope of F_1000003^2 would hold 1000006000009 entries"),
    (["spectrum", "--field", "p=3,n=14"],
     "an --all scope of F_3^14 would hold 4782969 entries"),
    (["verify", "--field", _BIG, "--check", "wt1", "--sample", "5000000"],
     "a --sample scope would hold 5000000 entries"),
])
def test_q_cap_exit_two(argv, refused, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {refused}, above the cap of 2^21\n"


@pytest.mark.parametrize("field,check,extra,size,refused", [
    # each check's own guard refuses the --all run; an empty sample called no check
    ("p=3,n=1", "thm1", [], 3, "conjugate-product check at p = 3 requires n > 1"),
    ("p=3,n=3", "identities", ["--precision", "301"], 27,
     "identity bundle requires precision <= 300, got 301"),
    ("p=3,n=3", "stickelberger", ["--precision", "40"], 25,
     "gamma_p needs p^K <= 2^27, got p^K = 3^40; lower the precision"),
    ("p=3,n=3", "fourier", ["--precision", "40"], 27,
     "gamma_p needs p^K <= 2^27, got p^K = 3^40; lower the precision"),
    ("p=3,n=3", "wt1", ["--precision", "40"], 25,
     "gamma_p needs p^K <= 2^27, got p^K = 3^40; lower the precision"),
], ids=["thm1", "identities", "stickelberger", "fourier", "wt1"])
def test_sample_scope_evaluates_at_least_one_witness(field, check, extra, size, refused,
                                                     capsys):
    argv = ["verify", "--field", field, "--check", check, *extra]
    for scope, message in [(["--sample", "0"], f"sample size 0 outside [1, {size}]"),
                           (["--sample", "1"], refused), (["--all"], refused)]:
        assert main(argv + scope) == 2, scope
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_fourier_refuses_q_cap_before_gauss_work(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("Gauss or lift work before the q cap")
    monkeypatch.setattr(ksum.padic, "gauss_square_mod27", refuse)
    monkeypatch.setattr(ksum.padic, "teichmuller", refuse)
    assert main(["verify", "--field", _BIG, "--check", "fourier", "--a", _BIG_A]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the field tables of F_3^30 would hold "
                            "205891132094649 entries, above the cap of 2^21\n")


def test_gamma_cap_comes_before_primality(capsys):
    # trial division of this p would run for minutes
    assert main(["gamma", "--p", "1000000000000000003", "--precision", "1",
                 "--x", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: gamma_p needs p^K <= 2^27, got p = "
                            "1000000000000000003, above the cap at every precision\n")


@pytest.mark.parametrize("argv,refused", [
    # each ran for minutes in trial division; now refused in about 2 s
    (["gauss", "--field", "p=3,n=43", "--j", "1"],
     "cannot factor q - 1 = 3^43 - 1: trial division stops at 2^24"),
    (["kloosterman", "--field", "p=1000000000000000003,n=1", "--a", "1"],
     "cannot factor 1000000000000000003: trial division stops at 2^24"),
    (["gauss", "--field", "p=3,n=2000", "--j", "1"],
     "fields need q = p^n <= 2^128, got p = 3, n = 2000"),
])
def test_field_construction_bounds_exit_two(argv, refused, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {refused}\n"


def test_gauss_json(capsys):
    rc = main(["gauss", "--field", "p=3,n=3", "--j", "1",
               "--format", "json-lines"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["weight"] == 1
    assert payload["pi_exponent"] == 1
    assert payload["unit"] == [13, 0, 0]
    assert payload["gammas"] == [1, 13, 1]


def test_spectrum_summary(capsys):
    rc = main(["spectrum", "--field", "p=3,n=2", "--jobs", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_one_field_build_per_run(monkeypatch, capsys):
    calls = []
    for module in (ksum.sweeps, ksum.cli):
        def counted(*args, _real=module.make_field):
            calls.append(args)
            return _real(*args)
        monkeypatch.setattr(module, "make_field", counted)
    for argv in (["spectrum", "--field", "p=3,n=3", "--jobs", "1"],
                 ["verify", "--field", "p=3,n=3", "--check", "fourier", "--all",
                  "--jobs", "1"]):
        calls.clear()
        assert main(argv) == 0
        assert len(calls) == 1, argv
    capsys.readouterr()


def test_gauss_computes_each_gamma_once(monkeypatch, capsys):
    calls = []

    def counted(x, _real=ksum.padic.gamma_p):
        calls.append(x.residue)
        return _real(x)

    monkeypatch.setattr(ksum.padic, "gamma_p", counted)
    assert main(["gauss", "--field", "p=3,n=3", "--j", "1"]) == 0
    assert len(calls) == 3
    capsys.readouterr()


def test_identities_lift_each_element_once(monkeypatch, capsys):
    # one Frobenius lift per element for teich-mult, one for the generator
    calls = []

    def counted(uctx, a, _real=ksum.padic.teichmuller):
        calls.append(a)
        return _real(uctx, a)

    monkeypatch.setattr(ksum.padic, "teichmuller", counted)
    assert main(["verify", "--field", "p=3,n=3", "--check", "identities", "--all",
                 "--jobs", "1"]) == 0
    assert len(calls) == 27 + 1
    capsys.readouterr()


def test_identities_sweep_builds_no_counting_table(monkeypatch, capsys):
    # identity_reports reads no Kloosterman counting row
    def refuse(ctx):
        raise AssertionError("the counting table was built")

    monkeypatch.setattr(ksum.kloos, "_count_table", refuse)
    assert main(["verify", "--field", "p=3,n=4", "--check", "identities", "--all",
                 "--jobs", "1"]) == 0
    capsys.readouterr()


def test_identities_precision_bound_exit_two(monkeypatch, capsys):
    # refused before any element is lifted; a lift at this K would not finish,
    # so the counter stops the run at the first one
    calls = []

    def counted(uctx, a):
        calls.append(a)
        raise AssertionError("an element was lifted")

    monkeypatch.setattr(ksum.padic, "teichmuller", counted)
    assert main(["verify", "--field", "p=3,n=3", "--check", "identities", "--all",
                 "--precision", "10000000", "--jobs", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: identity bundle requires precision <= 300, got 10000000\n"
    assert calls == []


def test_identities_corrupt_generator_lift_exit_three(monkeypatch, capsys):
    # the naive lift of g reduces to g but is not a root of unity; the power
    # table teich-mult reads must stop the sweep, not fail a congruence
    monkeypatch.setattr(ksum.padic.UnramCtx, "teich_generator", property(
        lambda uctx: uctx.element(uctx.field.generator.coeffs)))
    rc = main(["verify", "--field", "p=3,n=3", "--check", "identities", "--all",
               "--jobs", "1"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("(check identities, --a 1,0,0)\n")


# ----------------------------------------------------- output discipline

def test_jobs_flag_does_not_change_stdout(capsys):
    # thm1 at p = 5 sends the whole-field table to its workers with the context
    runs = [(["verify", "--field", "p=3,n=3", "--check", "mod27", "--all",
              "--format", "json-lines", "--records", "all"], "3"),
            (["spectrum", "--field", "p=3,n=4", "--format", "csv"], "2"),
            (["spectrum", "--field", "p=3,n=4", "--format", "summary"], "2"),
            (["verify", "--field", "p=5,n=3", "--check", "thm1", "--all",
              "--format", "json-lines", "--records", "all"], "2")]
    for args, jobs in runs:
        assert main(args + ["--jobs", "1"]) == 0
        first = capsys.readouterr().out
        assert main(args + ["--jobs", jobs]) == 0
        second = capsys.readouterr().out
        assert first == second, args


@pytest.mark.parametrize("argv,digest", [
    (["verify", "--field", "p=3,n=7", "--check", "mod27", "--all", "--format", "json-lines",
      "--records", "all", "--jobs", "1"],
     "bc61b6b6b47f66452711ca986aee7750d2ac94ffcb0e288aef82c56b6bcddcbf"),
    (["verify", "--field", "p=5,n=3", "--check", "moisio", "--all", "--format", "csv",
      "--jobs", "1"],
     "eb8b53f6d80ff8574b0169f4559849d6872d8c1c5bdab51c91cf4f0fcd6f489d"),
], ids=["mod27-json-lines", "moisio-csv"])
def test_orbit_sweep_stdout_is_pinned(argv, digest, capsys):
    # sha256 of stdout as written when every case was rendered on its own
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["verify", "--field", "p=3,n=4", "--check", "mod27", "--a", "1,2,0,1", "--jobs", "1"],
    ["verify", "--field", "p=3,n=4", "--check", "mod27", "--sample", "20", "--seed", "1",
     "--jobs", "1"],
    ["kloosterman", "--field", "p=3,n=4", "--a", "1,2,0,1"],
], ids=["a", "sample", "kloosterman"])
def test_one_witness_scopes_build_no_table(argv, monkeypatch, capsys):
    def refuse(ctx):
        raise AssertionError("a scoped run built the whole-field table")

    monkeypatch.setattr(ksum.kloos, "_count_table", refuse)
    assert main(argv) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["verify", "--field", "p=3,n=5", "--check", "mod27", "--all", "--jobs", "0"],
    ["spectrum", "--field", "p=3,n=5", "--jobs", "0"],
], ids=["verify", "spectrum"])
def test_bad_worker_count_refused_before_the_table(argv, monkeypatch, capsys):
    def refuse(ctx):
        raise AssertionError("the whole-field table was built for a refused job")

    monkeypatch.setattr(ksum.kloos, "_count_table", refuse)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: worker count must be positive, got 0\n"


def test_whole_field_table_is_built_once_in_the_parent(monkeypatch, capsys):
    pid = os.getpid()
    built = []

    def parent_only(ctx, _real=ksum.kloos._count_table):
        if os.getpid() != pid:
            raise AssertionError("a worker built the whole-field table")
        built.append(ctx.q)
        return _real(ctx)

    def refuse(ctx, k):
        raise AssertionError("a row was counted although the table was attached")

    monkeypatch.setattr(ksum.kloos, "_count_table", parent_only)
    monkeypatch.setattr(ksum.kloos, "_count_row", refuse)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    ksum.kloos._counts_by_index.cache_clear()    # cached rows would hide a counting worker
    assert main(["verify", "--field", "p=5,n=3", "--check", "thm1", "--all",
                 "--jobs", "2"]) == 0
    capsys.readouterr()
    assert built == [125]


def test_timing_goes_to_stderr_not_stdout(capsys):
    main(["verify", "--field", "p=3,n=2", "--check", "mod9", "--all",
          "--jobs", "1", "--format", "json-lines"])
    captured = capsys.readouterr()
    assert "elapsed" in captured.err
    assert "elapsed" not in captured.out
    for line in captured.out.splitlines():
        json.loads(line)  # every stdout line is machine-readable


def test_out_file_and_sample(tmp_path, capsys):
    target = tmp_path / "report.csv"
    rc = main(["verify", "--field", "p=3,n=4", "--check", "mod9",
               "--sample", "5", "--seed", "3", "--jobs", "1",
               "--format", "csv", "--out", str(target)])
    assert rc == 0
    capsys.readouterr()
    lines = target.read_text().splitlines()
    assert lines[0] == "subject,witness,lhs,rhs,modulus,pass"
    rc = main(["verify", "--field", "p=3,n=4", "--check", "mod9",
               "--sample", "5", "--seed", "3", "--jobs", "2",
               "--format", "csv", "--out", str(target)])
    assert rc == 0
    capsys.readouterr()
    assert target.read_text().splitlines() == lines


@pytest.mark.parametrize("argv", [
    ["verify", "--field", "p=3,n=10", "--check", "mod27", "--all"],
    ["spectrum", "--field", "p=3,n=11"],
])
def test_unwritable_out_fails_before_the_field(argv, tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a field was built for an unwritable --out")
    monkeypatch.setattr(ksum.sweeps, "make_field", refuse)
    target = tmp_path / "missing" / "report.txt"
    assert main(argv + ["--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


@pytest.mark.parametrize("argv, rc", [
    (["verify", "--field", "p=3,n=3", "--check", "mod27", "--a", "1,0,0,0,0"], 2),
    (["verify", "--field", "p=3,n=3", "--check", "fourier", "--all",
      "--precision", "2"], 2),
    (["verify", "--field", "p=3,n=2", "--check", "mod9", "--all", "--jobs", "1"], 3),
])
def test_failed_sweep_leaves_out_file_as_it_was(argv, rc, tmp_path, monkeypatch, capsys):
    def broken(ctx, a):
        raise InternalCheckError("trace counts do not cover the field")
    monkeypatch.setattr(ksum.kloos, "check_mod9", broken)
    old = tmp_path / "old.txt"
    old.write_text("an earlier report\n")
    assert main(argv + ["--out", str(old)]) == rc
    assert old.read_text() == "an earlier report\n"
    new = tmp_path / "new.txt"
    assert main(argv + ["--out", str(new)]) == rc
    assert not new.exists()
    assert capsys.readouterr().out == ""


def test_single_exponent_via_j(capsys):
    rc = main(["verify", "--field", "p=3,n=3", "--check", "wt1", "--j", "13",
               "--jobs", "1"])
    assert rc == 0
    assert "PASS total=1" in capsys.readouterr().out


def test_workers_bounded_by_cpus_and_witnesses(monkeypatch, capsys):
    created = []

    class InProcessPool:
        """Records the pool it was asked for and maps in this process."""

        def __init__(self, processes=None):
            created.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return [fn(x) for x in iterable]

        def imap(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    args = ["verify", "--field", "p=3,n=4", "--check", "mod27", "--all",
            "--format", "json-lines", "--records", "all"]
    assert main(args + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert created == []
    assert main(args + ["--jobs", "1000"]) == 0
    assert capsys.readouterr().out == serial
    assert created == [2]
    assert main(["verify", "--field", "p=3,n=4", "--check", "mod27",
                 "--a", "1,0,0,0", "--jobs", "1000"]) == 0
    capsys.readouterr()
    assert created == [2]


_START_METHOD_SCRIPT = """
import multiprocessing, sys
from ksum.cli import main
if __name__ == "__main__":
    if sys.argv[1] != "default":
        multiprocessing.set_start_method(sys.argv[1])
    sys.exit(main(sys.argv[2:]))
"""


def _src_env() -> dict:
    """The environment of a fresh interpreter that imports this ksum."""
    src = str(Path(ksum.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


# mod27 never imports padic, in the main process or in a spawned worker
@pytest.mark.parametrize("check", ["fourier", "mod27"])
def test_spawn_start_method_gives_same_stdout(check):
    env = _src_env()
    args = ["verify", "--field", "p=3,n=4", "--check", check, "--all",
            "--jobs", "2", "--format", "json-lines", "--records", "all"]
    outputs = {}
    for method in ("default", "spawn"):
        proc = subprocess.run(
            [sys.executable, "-c", _START_METHOD_SCRIPT, method, *args],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs[method] = proc.stdout
    assert outputs["spawn"] == outputs["default"]
    assert outputs["spawn"].count("\n") == 82


# ------------------------------------------------------ start-up imports

_LAZY_IMPORTS = ("multiprocessing", "ksum.padic", "fractions", "decimal", "random",
                 "dataclasses", "inspect", "ksum._product_tree", "json")
_IMPORTS_SCRIPT = """
import os, sys
import ksum.cli
rc = 0
if len(sys.argv) > 1:
    os.cpu_count = lambda: 2          # a --jobs 2 sweep starts its pool
    rc = ksum.cli.main(sys.argv[1:])
loaded = [m for m in %r if m in sys.modules]
import json                           # only now, for printing
print(json.dumps(loaded), file=sys.stderr)
sys.exit(rc)
""" % (_LAZY_IMPORTS,)


@pytest.mark.parametrize("argv, loaded", [
    ([], []),
    (["verify", "--field", "p=3,n=4", "--check", "mod27", "--all", "--jobs", "1"], []),
    (["verify", "--field", "p=3,n=4", "--check", "mod27", "--all", "--jobs", "1",
      "--format", "csv"], []),
    (["verify", "--field", "p=3,n=4", "--check", "mod27", "--all", "--jobs", "1",
      "--format", "json-lines"], ["json"]),
    (["kloosterman", "--field", "p=3,n=4", "--a", "1,2,0,1", "--format", "json-lines"],
     ["json"]),
    (["spectrum", "--field", "p=3,n=4", "--jobs", "2"], []),
    # padic loads fractions only for the gamma arguments that gauss prints
    (["verify", "--field", "p=3,n=4", "--check", "fourier", "--a", "1,0,0,0"],
     ["ksum.padic"]),
    (["gamma", "--p", "5", "--x", "1/3"], ["ksum.padic", "fractions", "decimal"]),
    # the pool loads random itself
    (["verify", "--field", "p=3,n=4", "--check", "fourier", "--all", "--jobs", "2"],
     ["multiprocessing", "ksum.padic", "random"]),
    (["verify", "--field", "p=3,n=4", "--check", "thm1", "--sample", "3", "--jobs", "1"],
     ["random"]),
    (["minpoly", "--field", "p=5,n=2", "--a", "0,1"], ["ksum._product_tree"]),
])
def test_a_run_imports_only_what_its_command_uses(argv, loaded):
    # -S: no site hook imports anything before ksum does
    proc = subprocess.run([sys.executable, "-S", "-c", _IMPORTS_SCRIPT, *argv],
                          capture_output=True, text=True, env=_src_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == loaded


def test_import_ksum_loads_no_submodule():
    # the package resolves its exports on first attribute access
    script = ("import json, sys, ksum; print(json.dumps(sorted("
              "m for m in sys.modules if m.split('.')[0] == 'ksum')))")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, env=_src_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["ksum"]


@pytest.mark.parametrize("argv, loaded", [
    (["kloosterman", "--field", "p=3,n=4", "--a", "1,2,0,1"], False),
    (["verify", "--field", "p=3,n=4", "--check", "mod27", "--a", "1,2,0,1"], False),
    (["spectrum", "--field", "p=3,n=4"], True),
], ids=["kloosterman", "a", "spectrum"])
def test_only_whole_field_sweeps_load_the_table_engine(argv, loaded):
    script = ("import sys, ksum.cli; rc = ksum.cli.main(sys.argv[1:]); "
              "print('ksum._kloos_table' in sys.modules, file=sys.stderr); sys.exit(rc)")
    proc = subprocess.run([sys.executable, "-S", "-c", script, *argv],
                          capture_output=True, text=True, env=_src_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == str(loaded)


_SUBMODULES = ("ff", "cyclo", "kloos", "padic", "sweeps", "cli")


def test_lazy_exports_are_the_submodule_objects():
    assert len(set(ksum.__all__)) == len(ksum.__all__) == 48
    for name in ksum.__all__:
        home = sys.modules[f"ksum.{ksum._HOME[name]}"]
        assert getattr(ksum, name) is getattr(home, name), name
    namespace: dict = {}
    exec("from ksum import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ksum.__all__)
    for name in _SUBMODULES:
        assert getattr(ksum, name) is sys.modules[f"ksum.{name}"]
    assert {*ksum.__all__, *_SUBMODULES} <= set(dir(ksum))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ksum.no_such_name


# ------------------------------------------------------- README examples

_README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks(heading: str) -> list[str]:
    """The fenced code blocks of one README section."""
    section = _README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```")[1::2]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line)[1:] for block in _readme_blocks("CLI")
                for line in block.splitlines() if line.startswith("ksum ")]
    assert len(commands) == 14
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert (tmp_path / "spectrum.csv").read_text().startswith("subject,")


def test_readme_library_snippet_runs(capsys):
    (block,) = _readme_blocks("Library")
    assert block.startswith("python\n")
    exec(block[len("python\n"):], {})
    assert capsys.readouterr().out
