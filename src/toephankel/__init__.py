"""Toeplitz plus shift-induced Hankel operators on Hardy spaces.

Exact kernel/cokernel bases, defect numbers and factorization signatures
for operators T(a) + H(b) built from an orientation-reversing circle
involution, cross-validated against a finite-section numerical oracle.
"""

from .errors import ToepHankelError
from .kernels import (
    DefectReport,
    KernelBasis,
    Regime,
    apply_P_alpha,
    coburn_class,
    defect_numbers,
    in_image_chi_power,
    kernel_cokernel_bases,
    phi_pm,
    toeplitz_kernel_split,
    transfer_U,
)
from .laurent import LaurentPolynomial
from .matching import (
    MatchingPair,
    adjoint_pair,
    alpha_signature,
    check_matching,
    generate_matching_function,
    generate_matching_pair,
    make_matching_pair,
    subordinated_pair,
)
from .oracle import (
    FiniteSection,
    dump_section,
    load_section,
    localized_null_dims,
    numerical_null_space,
    operator_section,
    pair_sections,
    residual_check,
)
from .pc import (
    JumpFactor,
    PCSymbol,
    PsiFactor,
    eval_pc,
    fredholm_symbol_check,
    nu_h,
    one_sided_limits,
    pc_alpha_signature,
)
from .rational import RationalSymbol, eval_symbol, symbol_algebra, winding_number
from .series import TruncatedSeries, fourier_coefficients, project_analytic
from .shift import (
    ShiftParams,
    apply_J_alpha,
    chi_power,
    compose_with_shift,
    eval_alpha,
    make_shift,
)
from .wiener_hopf import (
    WHFactorization,
    apply_one_sided_inverse,
    eval_gplus_inverse_at,
    factorize,
)

__version__ = "0.1.0"

__all__ = [
    "DefectReport",
    "FiniteSection",
    "JumpFactor",
    "KernelBasis",
    "LaurentPolynomial",
    "MatchingPair",
    "PCSymbol",
    "PsiFactor",
    "RationalSymbol",
    "Regime",
    "ShiftParams",
    "ToepHankelError",
    "TruncatedSeries",
    "WHFactorization",
    "adjoint_pair",
    "alpha_signature",
    "apply_J_alpha",
    "apply_P_alpha",
    "apply_one_sided_inverse",
    "check_matching",
    "chi_power",
    "coburn_class",
    "compose_with_shift",
    "defect_numbers",
    "dump_section",
    "eval_alpha",
    "eval_gplus_inverse_at",
    "eval_pc",
    "eval_symbol",
    "factorize",
    "fourier_coefficients",
    "fredholm_symbol_check",
    "generate_matching_function",
    "generate_matching_pair",
    "in_image_chi_power",
    "kernel_cokernel_bases",
    "load_section",
    "localized_null_dims",
    "make_matching_pair",
    "make_shift",
    "numerical_null_space",
    "nu_h",
    "one_sided_limits",
    "operator_section",
    "pair_sections",
    "pc_alpha_signature",
    "phi_pm",
    "project_analytic",
    "residual_check",
    "subordinated_pair",
    "symbol_algebra",
    "toeplitz_kernel_split",
    "transfer_U",
    "winding_number",
]
