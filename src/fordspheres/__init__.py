"""Ford spheres over the Gaussian integers: exact enumeration of consecutive
fraction pairs on the unit square, lattice counts of their denominator
regions, and verification of the quadratic growth law for the first moment
of radius sums."""

__version__ = "0.1.0"

try:  # on glibc, keep freed numpy temporaries in the heap for reuse (README, "Set-up")
    import ctypes as _ctypes

    _ctypes.CDLL(None).mallopt(-3, 16 << 20)  # M_MMAP_THRESHOLD
    _ctypes.CDLL(None).mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD
except (AttributeError, OSError, TypeError):  # another C library: left as it is
    pass

from .gint import (
    DomainError,
    Factorization,
    GInt,
    ParseError,
    canonical,
    canonicalize,
    div_rem,
    factor,
    format_gint,
    gcd,
    is_coprime,
    norm,
    parse_gint,
)
from .arith import (
    CanonicalSieve,
    ZetaTruncation,
    divisor_sum_multiplicative,
    divisors,
    mobius_divisor_sum,
    mobius_inversion_check,
    mu_i,
    norm_coefficients,
    phi_i,
    phi_i_residues,
    r2,
    sum_phi_upto,
    sum_r2_weighted,
    zeta_i_truncated,
)
from .farey import (
    GFraction,
    Sphere,
    consecutive_denominator_conditions,
    consecutive_pairs,
    consecutive_pairs_for_denoms,
    consecutive_pairs_scan,
    enumerate_fq,
    enumerate_gs,
    generate_gs_by_mediants,
    gs_arrays,
    is_adjacent,
    is_consecutive,
    is_consecutive_fq,
    mediant_children,
    spheres_tangent,
)
from .region import (
    OmegaSpec,
    boundary_length_surrogate,
    coprime_count_prediction,
    omega_area,
    omega_area_bounds_check,
    omega_area_monte_carlo,
    omega_area_quadrature,
    omega_contains,
    omega_lattice_count,
    omega_lattice_count_bruteforce,
)
from .moment import (
    ConstantsBundle,
    MomentReport,
    constant_C,
    constants_bundle,
    direct_total,
    main_term,
    moment_first_counting,
    moment_first_direct,
    report_sweep,
    sum_A,
    sum_B,
    sum_B_band,
    sum_phi_over_norm2,
    sum_phi_over_norm4,
)

__all__ = [name for name in dir() if not name.startswith("_")]
