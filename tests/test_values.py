"""Value types: equality, hashing, repr, immutability and pickling.

Sweep results cross the worker pool as pickles, so a value type that does
not survive a round trip in this process would stall a `--jobs 2` run
instead of failing it.
"""

import pickle

import pytest

from ksum.cyclo import CycInt, IntPolynomial
from ksum.ff import ExponentSet, FFElem, FieldCtx, build_subset, make_field
from ksum.kloos import CongruenceReport, KloostermanValue, MinPolyResult, kloosterman, min_poly
from ksum.padic import (PadicInt, PiMonomial, UnramCtx, UnramElem, gauss_sum, lift_field,
                        teichmuller)
from ksum.sweeps import CHECKS, CheckDef, SweepReport, VerificationJob, run_verification

# every value type, with its fields in constructor order
FIELDS = {
    CycInt: ("p", "coords"),
    IntPolynomial: ("coeffs",),
    FFElem: ("coeffs",),
    FieldCtx: ("p", "n", "modulus", "generator"),
    ExponentSet: ("p", "q", "exponents", "kind"),
    KloostermanValue: ("counts", "value"),
    MinPolyResult: ("min_poly", "multiplicity", "char_poly"),
    CongruenceReport: ("subject", "lhs", "rhs", "modulus", "passed", "witness"),
    VerificationJob: ("p", "n", "check", "modulus", "scope", "jobs", "precision"),
    SweepReport: ("job", "total", "cases", "failures", "histogram", "wall_time"),
    CheckDef: ("domain", "evaluate", "p", "min_n", "precision", "histogram", "orbit", "rows"),
    PadicInt: ("p", "precision", "residue"),
    UnramCtx: ("field", "precision"),
    UnramElem: ("ctx", "coords"),
    PiMonomial: ("pi_exponent", "unit"),
}


def _instances():
    ctx = make_field(3, 3)
    a = ctx.element((1, 2, 0))
    uctx = lift_field(ctx, 3)
    subset = build_subset(ctx, "X")
    subset.orbits                       # a cached value is not pickled state
    job = VerificationJob(3, 3, "mod9", scope=("element", (1, 2, 0)), jobs=1)
    report = run_verification(job)
    return [
        CycInt(3, (1, -2)),
        IntPolynomial((1, 0, 2, 0)),
        a,
        ctx,
        subset,
        kloosterman(ctx, a),
        min_poly(ctx, a),
        report.cases[0],
        job,
        report,
        CHECKS["spectrum"],
        PadicInt(3, 4, -5),
        uctx,
        teichmuller(uctx, a),
        gauss_sum(uctx, 4),
    ]


def test_instances_cover_every_value_type():
    assert [type(x) for x in _instances()] == list(FIELDS)


@pytest.mark.parametrize("x", _instances(), ids=lambda x: type(x).__name__)
def test_value_semantics_and_pickle(x):
    fields = FIELDS[type(x)]
    assert repr(x) == f"{type(x).__name__}({', '.join(f'{f}={getattr(x, f)!r}' for f in fields)})"
    y = pickle.loads(pickle.dumps(x))
    assert type(y) is type(x) and y == x and y is not x
    assert [getattr(y, f) for f in fields] == [getattr(x, f) for f in fields]
    if type(x) is SweepReport:
        # its list and dict fields make it unhashable, not mutable
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)
    else:
        assert hash(y) == hash(x)
    for f in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{f}'"):
            setattr(x, f, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{f}'"):
            delattr(x, f)
    with pytest.raises(AttributeError):
        x.not_a_field = 1
    assert pickle.loads(pickle.dumps(x)) == y


@pytest.mark.parametrize("x", _instances(), ids=lambda x: type(x).__name__)
def test_constructor_takes_fields_by_position_or_name(x):
    cls, fields = type(x), FIELDS[type(x)]
    values = [getattr(x, f) for f in fields]
    assert cls(*values) == x
    assert cls(**dict(zip(fields, values))) == x
    assert cls(values[0], **dict(zip(fields[1:], values[1:]))) == x
    bad_calls = [
        lambda: cls(**dict(zip(fields[1:], values[1:]))),    # first field missing
        lambda: cls(*values, values[0]),                     # one value too many
        lambda: cls(*values, not_a_field=1),                 # unknown field
        lambda: cls(*values, **{fields[0]: values[0]}),      # a field given twice
    ]
    for call in bad_calls:
        with pytest.raises(TypeError, match=cls.__name__):
            call()


def test_reprs_read_as_constructor_calls():
    assert repr(CycInt(3, (1, -2))) == "CycInt(p=3, coords=(1, -2))"
    assert repr(IntPolynomial((1, 0, 2, 0))) == "IntPolynomial(coeffs=(1, 0, 2))"
    assert repr(PadicInt(3, 2, -1)) == "PadicInt(p=3, precision=2, residue=8)"
    assert repr(make_field(3, 2)) == (
        "FieldCtx(p=3, n=2, modulus=(2, 1, 1), generator=FFElem(coeffs=(0, 1)))")
    assert repr(VerificationJob(3, 3, "mod9")) == (
        "VerificationJob(p=3, n=3, check='mod9', modulus=None, scope=('all',), "
        "jobs=None, precision=None)")


def test_field_context_normalises_its_fields():
    # p and n as ints, the modulus as a tuple of residues mod p
    ctx = FieldCtx(3.0, "2", [-1, 4, 7], FFElem((0, 1)))
    assert ctx == make_field(3, 2) and hash(ctx) == hash(make_field(3, 2))
    assert (type(ctx.p), type(ctx.n), ctx.modulus, ctx.q) == (int, int, (2, 1, 1), 9)


def test_products_refuse_foreign_operands():
    uctx = lift_field(make_field(3, 3), 3)
    for x in (CycInt(3, (1, 0)), IntPolynomial((1, 1)), PadicInt(3, 2, 1), uctx.one(),
              PiMonomial.of(0, uctx.one())):
        with pytest.raises(TypeError, match="unsupported operand"):
            x * None
    assert SweepReport({}, 0, [], [], None, 0.0).cases != 0


def test_equality_needs_the_same_type():
    assert FFElem((1, 0)) != IntPolynomial((1, 0)).coeffs
    assert FFElem((1,)) != IntPolynomial((1,))
    assert FFElem((1, 0)) == FFElem((1, 0)) and {FFElem((1, 0)), FFElem((1, 0))} == {FFElem((1, 0))}
    assert hash(FFElem((1, 0))) == hash(((1, 0),))
