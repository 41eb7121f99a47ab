"""Exact Kloosterman sums over F_{p^n} and their p-adic congruences.

The package has two independent computation paths. The direct path counts
trace values over the field and assembles the sum as a cyclotomic integer;
the p-adic path rebuilds the same quantities from Teichmueller lifts and
p-adic gamma factors. Verification checks play the two against each other.
"""

from .cyclo import CycInt, IntPolynomial, NonRationalCoefficient, product_linear
from .ff import ExponentSet, FFElem, FieldCtx, FieldError, build_subset, \
    custom_subset, legendre, make_field, power_sum
from .kloos import CongruenceReport, InternalCheckError, KloostermanValue, \
    MinPolyResult, check_conjugate_product, check_min_poly_degree, \
    check_min_poly_reduction, check_mod9, check_mod27, check_weil_bound, \
    conjugate_family, kloosterman, min_poly
from .padic import PadicInt, PiMonomial, UnramCtx, UnramElem, \
    check_fourier_mod27, check_gauss_square_mod27, check_stickelberger, \
    gamma_p, gauss_sum, gauss_square_mod27, identity_reports, lift_field, \
    lifted_power_sum, p_weight, padic_from_rational, teichmuller
from .sweeps import CHECKS, JobError, SweepReport, VerificationJob, \
    emit_report, run_verification

__version__ = "0.1.0"

__all__ = [
    "CHECKS", "CongruenceReport", "CycInt", "ExponentSet", "FFElem",
    "FieldCtx", "FieldError", "IntPolynomial",
    "InternalCheckError", "JobError", "KloostermanValue", "MinPolyResult",
    "NonRationalCoefficient", "PadicInt", "PiMonomial", "SweepReport",
    "UnramCtx", "UnramElem", "VerificationJob", "build_subset",
    "check_conjugate_product", "check_fourier_mod27",
    "check_gauss_square_mod27", "check_min_poly_degree",
    "check_min_poly_reduction", "check_mod9", "check_mod27",
    "check_stickelberger", "check_weil_bound", "conjugate_family",
    "custom_subset", "emit_report", "gamma_p", "gauss_square_mod27",
    "gauss_sum", "identity_reports", "kloosterman", "legendre", "lift_field",
    "lifted_power_sum", "make_field", "min_poly", "p_weight",
    "padic_from_rational", "power_sum", "product_linear", "run_verification",
    "teichmuller",
]
