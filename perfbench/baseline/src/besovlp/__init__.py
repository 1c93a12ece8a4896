"""Numerical toolkit for dyadic Littlewood-Paley analysis, vector-valued
Besov norms, operator-valued Fourier multipliers, Gaussian type/cotype
and gamma-bound estimation, and Calderon-Zygmund extrapolation on
periodic grids."""

from .spaces import (
    GridSpec,
    ValueSpace,
    GridFunction,
    DimensionMismatchError,
    SpectralTruncationError,
    lp_norm,
    weak_lp_norm,
    dft,
    idft,
)
from .dyadic import (
    DyadicPartition,
    BesovParams,
    build_partition,
    lp_block,
    lp_blocks,
    besov_norm,
    homogeneous_besov_norm,
)
from .sampling import GaussianSampler, MCEstimate, SearchBudget
from .gaussian import (
    MatrixFamily,
    gaussian_moment,
    type_constant_lower,
    cotype_constant_lower,
    gamma_bound_lower,
    gamma_bound_hilbert,
    gamma_bound_search,
    gamma_function_norm,
    check_gamma_multiplier,
    check_lemma42,
)
from .reports import VerificationReport
from .multiplier import (
    OperatorSymbol,
    apply_multiplier,
    blockwise_extension,
    estimate_multiplier_norm,
    multiplier_norm_l2_exact,
    besov_multiplier_norm_estimate,
    verify_prop43,
    verify_thm44,
    verify_thm45,
    verify_thm46,
    verify_prop34,
    identity_symbol,
    modulation_symbol,
    riesz_symbol,
    annulus_indicator_symbol,
    diagonal_symbol,
    hilbert_symbol,
    scalar_symbol,
)
from .extrapolation import (
    EtaZetaSystem,
    eta_zeta_system,
    Kernel,
    kernel_of_symbol,
    symbol_of_kernel,
    kernel_convolve,
    hilbert_kernel,
    hormander_constant,
    mihlin_check,
    CZResult,
    cz_decompose,
    weak_type_constant,
    verify_weak_type,
    extrapolation_sweep,
    sharpness_probe,
)

__version__ = "0.1.0"
