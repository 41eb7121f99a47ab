"""Exact Kloosterman sums over F_{p^n} and their p-adic congruences.

The package has two independent computation paths. The direct path counts
trace values over the field and assembles the sum as a cyclotomic integer;
the p-adic path rebuilds the same quantities from Teichmueller lifts and
p-adic gamma factors. Verification checks play the two against each other.

The submodules, and the names below, are imported on first use, so a
program that uses one path does not load the other.
"""

import sys

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "cyclo": ("CycInt", "IntPolynomial", "NonRationalCoefficient", "product_linear"),
    "ff": ("ExponentSet", "FFElem", "FieldCtx", "FieldError", "build_subset",
           "custom_subset", "legendre", "make_field", "power_sum"),
    "kloos": ("CongruenceReport", "InternalCheckError", "KloostermanValue",
              "MinPolyResult", "check_conjugate_product", "check_min_poly_degree",
              "check_min_poly_reduction", "check_mod9", "check_mod27",
              "check_weil_bound", "conjugate_family", "kloosterman", "min_poly"),
    "padic": ("PadicInt", "PiMonomial", "UnramCtx", "UnramElem",
              "check_fourier_mod27", "check_gauss_square_mod27",
              "check_stickelberger", "gamma_p", "gauss_sum", "gauss_square_mod27",
              "identity_reports", "lift_field", "lifted_power_sum", "p_weight",
              "padic_from_rational", "teichmuller"),
    "sweeps": ("CHECKS", "JobError", "SweepReport", "VerificationJob",
               "emit_report", "run_verification"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = sorted(_HOME)


def _submodule(name: str):
    # __import__, unlike importlib.import_module, shows in `python -X importtime`
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    """A submodule, or the object an exported name is bound to in its submodule."""
    if name in _SUBMODULES:
        return _submodule(name)
    if name in _HOME:
        return getattr(_submodule(_HOME[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
