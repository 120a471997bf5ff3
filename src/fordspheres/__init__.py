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
    divisors,
    mu_i,
    norm_coefficients,
    phi_i,
    r2,
)
from .farey import (
    GFraction,
    Sphere,
    consecutive_denominator_conditions,
    consecutive_pairs,
    enumerate_gs,
    gs_arrays,
    is_adjacent,
    is_consecutive,
)
from .region import (
    OmegaSpec,
    boundary_length_surrogate,
    coprime_count_prediction,
    omega_area,
    omega_contains,
    omega_lattice_count,
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
    sum_phi_over_norm2,
    sum_phi_over_norm4,
)

__all__ = [name for name in dir() if not name.startswith("_")]
