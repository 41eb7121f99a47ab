"""Command-line interface: parsing, exit codes, output discipline."""

import json

import pytest

import ksum.cli
import ksum.kloos
import ksum.padic
import ksum.sweeps
from ksum.cli import FieldSpecError, main, parse_field_spec
from ksum.kloos import CongruenceReport, InternalCheckError


# ---------------------------------------------------------- field specs

def test_parse_field_spec_basic():
    assert parse_field_spec("p=3,n=5") == (3, 5, None)
    assert parse_field_spec("n=2,p=7") == (7, 2, None)


def test_parse_field_spec_with_modulus():
    assert parse_field_spec("p=3,n=3,mod=1,0,2,1") == (3, 3, (1, 0, 2, 1))


def test_parse_field_spec_errors():
    for bad in ("p=3", "n=2", "p=3,n=x", "p=3,p=4,n=2", "q=9,n=2",
                "p=3;n=2", "p=3,n=2,mod=1,a,1"):
        with pytest.raises(FieldSpecError):
            parse_field_spec(bad)


# ------------------------------------------------------------ exit codes

def test_verify_pass_exit_zero(capsys):
    rc = main(["verify", "--field", "p=3,n=3", "--check", "mod27", "--all",
               "--jobs", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "PASS total=27"


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
                            "(check spectrum, --a 0,0)\n")


def test_usage_errors_exit_two(capsys):
    assert main(["verify", "--field", "p=4,n=2", "--check", "mod9", "--all"]) == 2
    assert main(["verify", "--field", "p=3", "--check", "mod9", "--all"]) == 2
    assert main(["verify", "--field", "p=3,n=2", "--check", "mod27", "--all"]) == 2
    assert main(["verify", "--field", "p=3,n=3", "--check", "mod27"]) == 2
    assert main(["verify", "--field", "p=3,n=3", "--check", "mod27", "--all",
                 "--a", "1,0,0"]) == 2
    assert main(["kloosterman", "--field", "p=3,n=3", "--a", "1,0"]) == 2
    capsys.readouterr()


def test_unknown_check_rejected_by_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--field", "p=3,n=3", "--check", "bogus", "--all"])
    assert exc.value.code == 2


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


def test_gamma_requires_odd_prime(capsys):
    for p in (0, 1, 2, 4, 9, -3):
        assert main(["gamma", "--p", str(p), "--x", "3"]) == 2, p
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: p must be an odd prime, got {p}\n"


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


# ----------------------------------------------------- output discipline

def test_jobs_flag_does_not_change_stdout(capsys):
    args = ["verify", "--field", "p=3,n=3", "--check", "mod27", "--all",
            "--format", "json-lines", "--records", "all"]
    assert main(args + ["--jobs", "1"]) == 0
    first = capsys.readouterr().out
    assert main(args + ["--jobs", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second


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


def test_single_exponent_via_j(capsys):
    rc = main(["verify", "--field", "p=3,n=3", "--check", "wt1", "--j", "13",
               "--jobs", "1"])
    assert rc == 0
    assert "PASS total=1" in capsys.readouterr().out
