"""First moment of radius sums over consecutive Ford sphere pairs.

Three routes to the same quantity:

  direct      enumerate the fractions at level S, solve for the
              adjacent partners with a denominator no larger than its
              own (farey._neighbour_blocks, each pair once, ties from
              both ends) of one fraction per orbit of the square's eight
              symmetries, weighted by the orbit size (farey._orbit_sizes,
              about 0.1 S^4 candidates), keep those with an escaping
              mediant, and add the radius sums 1/(2|s|^2) + 1/(2|s'|^2)
              per norm in exact rational arithmetic, compared with the
              quarter main term; the finds do not depend on S, and
              farey's one cache (farey._finds) is the table of their
              weighted pair ends per level and norm, grown shell by
              shell, so a call at a level already built reads one row
              of it and takes one exact sum;

  counting    2 * sum over canonical |s| <= S of N(s)/|s|^2, where N(s)
              counts consecutive partner denominators for s as lattice
              points of the consecutivity region coprime to s; under the
              'omega_full' normalization N(s) is the full-plane count,
              under 'omega_quarter' one representative per unit orbit
              (exactly a quarter of the full count), compared with the
              quarter main term.  The sum is taken by Moebius regrouping
              over the distinct bounds B = S^2 // |d|^2, as sum W(B) F(B)
              of one kernel pass, without forming any N(s);
              consecutive_partner_counts, its oracle, forms every N(s)
              as region.coprime_counts, the per-denominator Moebius sum
              over the squarefree divisors built from the primes of
              |s|^2 (gint.primes_above), and oracles.counting_total,
              the exact total of that oracle, sums them per norm;

  main_term   the asymptotic pi * zeta_i^{-1}(2) * (8C - 1) * S^2, with
              zeta_i(2) = zeta(2) * Catalan in closed form (arith.ZETA_I_2;
              the truncated lattice sums of oracles check it) and
              C = -int_0^{1/sqrt 2} ln(sqrt 2 u) sqrt(1 - u^2) du, summed
              from its termwise series (the quadratures of oracles
              check it).

direct_total, real_axis_correction and oracles.counting_total each turn
integer counts per norm into one exact rational through _exact_sum, a
binary splitting sum that returns its root unreduced, as an int pair
(num, den).  Each reader does only what it needs: the direct route
rounds num / den to a float, direct_total and real_axis_correction
reduce to a Fraction, and verify compares the oracle's pair by
cross-multiplying, with no gcd of the root.

The counting value under 'omega_full' converges to the main term.  The
direct value agrees with 'omega_quarter' up to the contribution of
denominator pairs on the real axis (which realize eight fraction pairs
instead of four), exactly direct_total(S) == counting_total(S) / 4 +
real_axis_correction(S), so the full/direct ratio drifts slowly toward 4;
the calibration helper measures that ratio on the exactly computable range.

evaluate(S, method, ...) is the one map from a method name to its route;
the CLI and report_sweep both call it.  The two capped routes refuse a
level through _check_level, and every route builds its row through _row.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .gint import DomainError
from . import arith, farey, region

DIRECT_CAP_DEFAULT = 24
COUNTING_CAP_DEFAULT = 1024

NORMALIZATIONS = ("omega_full", "omega_quarter")
METHODS = ("direct", "counting", "main_term")
PHI_NORM4_LADDER = (64, 128, 256, 512, 1024, 2048)  # fit levels of z2_estimate and verify's slope check


@dataclass(frozen=True)
class ConstantsBundle:
    """Numerical constants feeding the main term.

    main_coeff = pi * zeta_i_inv_2 * (8 C - 1);  z1 = (pi/8) zeta_i_inv_2.
    z2 is not one of them: it needs a large sieve, and z2_estimate() fits
    it on request.
    """

    C: float
    zeta_i_2: float
    zeta_i_inv_2: float
    main_coeff: float
    z1: float


@dataclass(frozen=True)
class MomentReport:
    """One row of a moment sweep."""

    S: int
    method: str
    value: float
    main_term: float
    residual: float
    normalization: str
    elapsed: float


def constant_C(terms: int = 60) -> float:
    """-int_0^{1/sqrt2} ln(sqrt2 u) sqrt(1-u^2) du from its series.

    Expanding sqrt(1-u^2) = sum a_k u^(2k) and integrating termwise gives
    C = sum a_k 2^(-k-1/2) / (2k+1)^2; the terms shrink like 2^-k, so 60
    of them reach double precision (40 and 80 give the same float).
    """
    total = 0.0
    a_k = 1.0
    for k in range(terms):
        total += a_k * 2.0 ** (-k - 0.5) / (2 * k + 1) ** 2
        a_k *= (2 * k - 1) / (2 * k + 2)
    return total


@functools.cache
def constants_bundle() -> ConstantsBundle:
    """Compute (and cache) the constants used by every main-term evaluation."""
    C = constant_C()
    zeta_i_inv_2 = 1.0 / arith.ZETA_I_2
    return ConstantsBundle(
        C=C,
        zeta_i_2=arith.ZETA_I_2,
        zeta_i_inv_2=zeta_i_inv_2,
        main_coeff=math.pi * zeta_i_inv_2 * (8.0 * C - 1.0),
        z1=math.pi / 8.0 * zeta_i_inv_2,
    )


def main_term(S: int) -> float:
    """pi * zeta_i^{-1}(2) * (8C - 1) * S^2; an S whose main term is
    beyond the float range (S above about 4.4e153) raises DomainError,
    so no row carries an inf main term or a nan residual."""
    if S < 0:
        raise DomainError("S must be >= 0")
    fS = float(min(S, 1 << 1000))  # float(S) overflows from 2^1024; the product long before
    value = constants_bundle().main_coeff * fS * fS
    if not math.isfinite(value):
        raise DomainError("S too large: its main term is beyond the float range")
    return value


def _exact_sum(norms: Sequence[int], counts: Sequence[int]) -> tuple[int, int]:
    """sum of c/n over the norms n > 0 and the counts c, Python ints,
    exactly, as an unreduced pair (num, den) of ints with den > 0 (the
    product of the norms; (0, 1) for no terms): the one place where counts
    per norm become a rational.

    Binary splitting: the terms are added pairwise in a balanced tree,
    p/q + r/s = (p s + r q)/(q s), unreduced, and the root stays unreduced.
    Its gcd would cost more than the tree at large sizes (for
    oracles.counting_total at S = 1024, 226,419 norms and a 4.19-million
    bit root: 13.6 s against 2.4 s for the tree on a 2-core shared host),
    and no reader needs it: num / den is already the correctly rounded
    float, and an equality or a ratio is a comparison of cross products.
    Over one common denominator L, the lcm of the norms, every term would
    cost a division and a product of the full-size L, so the work would
    grow like the number of norms times the size of L; in the tree the
    partial denominators stay small until the last levels, where few
    products remain, each of two halves of equal size.  The tree is built
    in place, level by level (the partial sum at i takes in the one at
    i + step), with no tuple or list per node, so a warm direct_total at
    S <= 12, with a few dozen norms, costs no more than a common
    denominator would; a new list of pairs per level cost about 15 % more
    on the benchmark's direct ladder.
    """
    nums, dens = list(counts), list(norms)
    step = 1
    while step < len(dens):
        for i in range(0, len(dens) - step, 2 * step):
            j = i + step
            nums[i], dens[i] = nums[i] * dens[j] + nums[j] * dens[i], dens[i] * dens[j]
        step *= 2
    return (nums[0], dens[0]) if dens else (0, 1)


def _direct_pair(S: int) -> tuple[int, int]:
    """M(S) as the unreduced pair (num, den) of direct_total: the nonzero
    entries of row S of farey's table, summed over norms by _exact_sum and
    halved.  The row is read as one list, and its nonzero entries and
    their norms are picked in C (filter, compress): at S <= 12, a row of
    at most 145 entries, that costs about a quarter less than flatnonzero
    and a fancy index when the caches are cold, as in the benchmark's
    direct ladder."""
    row = farey._finds(S)[S].tolist()
    num, den = _exact_sum(list(itertools.compress(range(len(row)), row)), list(filter(None, row)))
    return num, 2 * den


def direct_total(S: int) -> Fraction:
    """M(S) exactly, from the consecutive pairs of the neighbour solve.

    Each unordered pair contributes 1/(2|s|^2) + 1/(2|s'|^2), so
    M(S) = sum over norms n of c(n) / (2n), where c(n) counts the pair
    ends with denominator norm n.  The neighbour solve finds each pair
    from its end with the larger norm (farey._neighbour_blocks): a find
    counts 1 at norm(s), and 1 at norm(s') when norm(s') < norm(s); a tie
    is found from both ends and counts 1 at its norm each time.  The
    eight symmetries of the unit square map each fraction's finds onto
    those of its image, with the same norms (farey._orbit_sizes), so the
    solve runs only on the representatives 0 <= y <= x <= 1/2, about an
    eighth of G_S and 0.1 S^4 candidates, and each of their finds counts
    the size of its orbit (8, 4 on a mirror, 1 at the centre) instead of
    1.  Only the escape test depends on S, M > S^2 for the largest
    mediant norm M (is_consecutive), so each find counts at an interval
    of levels; farey's one cache (farey._finds) is the table of the
    weighted counts per level and norm, which a sweep over S builds once,
    shell by shell, while G_S is built block by block and not kept.
    farey._finds(S)[S] reads c(n) at level S as one int64 row, so a call
    at a level already built runs no scan.  The nonzero entries of the
    row go to the one exact sum over norms (_exact_sum), halved
    (_direct_pair, which the route rounds), and the pair is reduced once
    here.
    """
    return Fraction(*_direct_pair(S))


def real_axis_correction(S: int) -> Fraction:
    """extra(S) = 2 * sum of (1/q^2 + 1/q'^2) over the coprime denominator
    pairs 1 <= q < q' <= S with q + q' > S, exactly.

    These are the consecutive denominators of the classical Farey sequence
    of order S: pairs on the real axis, which realize eight consecutive
    fraction pairs instead of the four the quarter counting route assumes,
    so direct_total(S) == quarter count + extra(S) (verify's
    reconciliation check).  The sum is taken per q, as an integer count
    c(q) of the partners p != q with gcd(p, q) = 1 and S - q < p <= S.
    That interval holds q consecutive integers, one of each residue class
    mod q, so c(q) = phi(q), Euler's totient, for every q <= S; only at
    S = 1 is the one candidate p = q = 1 no pair.  So
    extra(S) = 2 * sum over q <= S of phi(q)/q^2 for S >= 2, the exact
    sum over norms (_exact_sum) of the counts phi(q) at the norms q^2,
    doubled and reduced.
    """
    if S < 1:
        raise DomainError("S must be >= 1")
    if S == 1:
        return Fraction(0)
    phi = np.arange(S + 1)
    for p in range(2, S + 1):
        if phi[p] == p:  # p is prime: no smaller prime has touched it
            phi[p::p] -= phi[p::p] // p
    num, den = _exact_sum([q * q for q in range(1, S + 1)], phi[1:].tolist())
    return Fraction(2 * num, den)


def _check_level(S: int, cap: int, method: str, advice: str = "") -> None:
    """The refusals of the two capped routes: S >= 1, cap >= 1, S <= cap."""
    if S < 1:
        raise DomainError("S must be >= 1")
    if cap < 1:
        raise DomainError("cap must be >= 1")
    if S > cap:
        raise DomainError(f"{method} method capped at S = {cap}; {advice}raise cap= explicitly")


def _row(S: int, method: str, normalization: str, value: float, mt: float, t0: float) -> MomentReport:
    """The report row of every route: residual = value - mt, and elapsed
    the time since t0, which each route takes after the main term's
    constants are built."""
    return MomentReport(S, method, value, mt, value - mt, normalization, time.perf_counter() - t0)


def moment_first_direct(S: int, cap: int = DIRECT_CAP_DEFAULT) -> MomentReport:
    """Exact direct evaluation: every consecutive fraction pair, found by
    the neighbour solve of farey._neighbour_blocks from its end with the
    larger denominator norm, for one fraction per orbit of the square's
    symmetries and weighted by the orbit size.

    Rational accumulation throughout (_direct_pair, the unreduced pair of
    direct_total); the float conversion happens once at the end, as the
    integer true division num / den, which CPython rounds correctly (it
    is what float(Fraction(num, den)) computes, without the gcd), so the
    value is the correctly rounded M(S), the float of direct_total(S).
    The work grows like S^4 (about 0.1 S^4 candidate denominators, about
    pi per scanned fraction, one fraction in eight scanned), hence the
    cap; use the counting route beyond it.
    The counts of the scan's pair ends per level and norm are farey's
    cached table, so in a sweep over S only the first call at each new
    level builds the representatives of the shell of new denominators and
    scans them once, solving and checking their inverses as it goes; a
    call at a level already built reads one row of the table and sums
    it.
    The row is compared with the quarter main term main_term(S) / 4, the
    one-per-unit-orbit normalization the direct sum follows (real-axis
    denominator pairs, which realize eight fraction pairs instead of four,
    add a lower-order excess).  elapsed excludes the main-term constants,
    which are built (once per process) beforehand.
    """
    _check_level(S, cap, "direct", "use method='counting' for larger S, or ")
    mt = main_term(S) / 4
    t0 = time.perf_counter()
    num, den = _direct_pair(S)
    return _row(S, "direct", "omega_quarter", num / den, mt, t0)


def consecutive_partner_counts(S: int) -> np.ndarray:
    """N(s) for every canonical |s| <= S in sieve order (full-plane counts),
    as an int64 array aligned with arith.canonical_cells(S * S).

    The per-denominator oracle of moment_first_counting, which needs only
    sum N(s)/|s|^2: region.coprime_counts over every s, each a Moebius sum
    over the squarefree divisors of s, built on ints from the rational
    primes of |s|^2 and the Gaussian primes above them (gint.primes_above).
    It shares only the lattice kernel with the route, not the sieve or the
    bound regrouping.  It is the one oracle that lives here and not in
    oracles, because benchmarks/layers.py wraps it by name.
    """
    if S < 1:
        raise DomainError("S must be >= 1")
    re, im, _ = arith.canonical_cells(S * S)
    return region.coprime_counts(re, im, S)


def moment_first_counting(
    S: int,
    normalization: str = "omega_full",
    threads: int = 1,
    cap: int = COUNTING_CAP_DEFAULT,
) -> MomentReport:
    """Counting evaluation 2 * sum over |s| <= S of N(s) / |s|^2.

    N(s) is the number of lattice points of the consecutivity region
    coprime to s, full-plane or one-per-unit-orbit depending on the
    normalization; the row is compared with main_term(S) under
    'omega_full' and with main_term(S) / 4 under 'omega_quarter'.

    The per-denominator counts are never formed.  Since s = canonical(d t)
    runs once over the pairs (squarefree d, canonical t) of the Moebius
    regrouping, and |s|^2 = |d|^2 |t|^2,

        sum N(s)/|s|^2 = sum over B of W(B) F(B),
        W(B) = sum over squarefree d with S^2 // |d|^2 = B of mu(d)/|d|^2,
        F(B) = sum over t = a + bi, a >= b >= 0, |t|^2 <= B of
               w(t) L(t, B)/|t|^2,

    with w(t) = 2 when a > b > 0 (b + ai is canonical too) and 1 otherwise.
    B depends on d only through |d|, so one kernel call covers the O(S)
    distinct bounds, each with the octant t of norm <= B, and mu(d) comes
    from the sieve, with no factorization.  The route hands the kernel
    what it already knows.  The sieve's norms ascend, so S^2 // |d|^2
    does not increase along the squarefree d: the distinct bounds and each
    d's bound are its runs (region._sorted_runs), with no sort or hash.
    The t of bound B are the first k(B) octant cells, so they already have
    a >= b >= 0 and come grouped by ascending bound: the route calls the
    kernel's array core region._escape_core directly, with each t's bound
    index w = repeat(arange, k), instead of escape_counts, which would
    fold the t and find the bounds again.  Every such t has
    0 < |t|^2 <= B, the core's precondition.
    Each quotient is correctly rounded, F(B) and W(B) are float sums, and
    the outer sum over bounds is exactly rounded (math.fsum); the value
    agrees with oracles.counting_total, the exact rational of the
    per-denominator oracle consecutive_partner_counts, to a few ulps.  N(s) is divisible
    by 4, so the 'omega_quarter' value is the full one divided by 4,
    exactly.
    threads is accepted and ignored, for callers that still pass it: the
    route runs in the calling process and starts no workers.  elapsed
    excludes the main-term constants, which are built (once per process)
    beforehand.
    """
    _check_level(S, cap, "counting")
    if normalization not in NORMALIZATIONS:
        raise DomainError(f"unknown normalization {normalization!r}")
    mt = main_term(S) / 4 if normalization == "omega_quarter" else main_term(S)
    t0 = time.perf_counter()
    re, im, nrm, _, mu = arith.get_sieve(S)
    squarefree = mu != 0
    dnrm = nrm[squarefree]
    # S^2 // |d|^2 does not increase along the sieve's ascending norms, so
    # its runs are the distinct bounds, largest first
    bounds, d_bound = region._sorted_runs((S * S) // dnrm)
    bounds = bounds[::-1]
    W = np.bincount(d_bound, weights=mu[squarefree] / dnrm)[::-1]
    # the t of bound B are the first k cells of the octant, as norms ascend
    octant = re >= im
    onrm = nrm[octant]
    k = np.searchsorted(onrm, bounds, side="right")
    first = np.cumsum(k) - k
    t = np.arange(k.sum()) - np.repeat(first, k)
    a, b = re[octant][t], im[octant][t]
    L = region._escape_core(a, b, np.repeat(np.arange(len(bounds)), k), bounds)
    L[(a > b) & (b > 0)] *= 2
    F = np.add.reduceat(L / onrm[t], first)
    value = 2.0 * math.fsum(W * F)
    if normalization == "omega_quarter":
        value /= 4
    return _row(S, "counting", normalization, value, mt, t0)


def moment_main_term_report(S: int) -> MomentReport:
    """The main term as a report row; elapsed excludes the constants build,
    as in the other routes."""
    constants_bundle()
    t0 = time.perf_counter()
    mt = main_term(S)
    return _row(S, "main_term", "none", mt, mt, t0)


def evaluate(
    S: int,
    method: str = "counting",
    normalization: str = "omega_full",
    direct_cap: int = DIRECT_CAP_DEFAULT,
    counting_cap: int = COUNTING_CAP_DEFAULT,
) -> MomentReport:
    """One moment row by the named route; the normalization applies to
    the counting route only (direct rows are always 'omega_quarter'), but
    an unknown one is refused for every method."""
    if normalization not in NORMALIZATIONS:
        raise DomainError(f"unknown normalization {normalization!r}")
    if method == "direct":
        return moment_first_direct(S, cap=direct_cap)
    if method == "counting":
        return moment_first_counting(S, normalization, cap=counting_cap)
    if method == "main_term":
        return moment_main_term_report(S)
    raise DomainError(f"unknown method {method!r}")


def calibration_ratios(S_values: Iterable[int]) -> dict[int, float]:
    """counting(omega_full) / direct per S; the measured normalization gap."""
    out = {}
    for S in S_values:
        d = moment_first_direct(S).value
        c = moment_first_counting(S).value
        out[S] = c / d
    return out


# ---------------------------------------------------------------------------
# the intermediate sums behind the main-term derivation
# ---------------------------------------------------------------------------


def sum_A(S: int) -> tuple[float, float]:
    """(sum over |s| <= S of phi_i(s)/|s|^4 * area(s, S), prediction).

    The area is region.area_closed_form, which depends on s only through
    |s|, so terms of equal norm share one evaluation: the norms ascend
    along the sieve, and their runs group the terms.  The prediction is
    main_term(S) / 2.
    """
    sieve = arith.get_sieve(S)
    uniq, inverse = region._sorted_runs(sieve.norms)
    phi_by_norm = np.bincount(inverse, weights=sieve.phi.astype(np.float64))
    fn = uniq.astype(np.float64)
    exact = float(np.sum(phi_by_norm / (fn * fn) * region.area_closed_form(uniq, S)))
    return exact, main_term(S) / 2


def sum_B(S: int, epsilon: float = 0.1) -> float:
    """sum over |s| <= S of surrogate_boundary_length / |s|^(2 - epsilon),
    with the constant surrogate region.boundary_length_surrogate(S) = 8 pi S."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must be in (0, 1)")
    if S < 1:
        raise DomainError("S must be >= 1")
    _, _, nrm = arith.canonical_cells(S * S)
    weights = nrm.astype(np.float64) ** (-(1.0 - epsilon / 2.0))
    return region.boundary_length_surrogate(S) * float(np.sum(weights))


def sum_phi_over_norm2(S: int) -> tuple[float, float]:
    """(sum of phi_i(s)/|s|^2 over |s| <= S, prediction (pi/4) zeta_i^{-1}(2) S^2)."""
    sieve = arith.get_sieve(S)
    fn = sieve.norms.astype(np.float64)
    exact = float(np.sum(sieve.phi.astype(np.float64) / fn))
    return exact, math.pi / 4.0 / arith.ZETA_I_2 * S * S


def sum_phi_over_norm4(S: int) -> float:
    """sum of phi_i(s)/|s|^4 over canonical |s| <= S; grows like
    4 z1 ln S + (z1 + z2)."""
    sieve = arith.get_sieve(S)
    fn = sieve.norms.astype(np.float64)
    return float(np.sum(sieve.phi.astype(np.float64) / (fn * fn)))


def fit_phi_over_norm4(ladder: Sequence[int]) -> tuple[float, float]:
    """Least-squares fit a*ln(S) + b of sum_phi_over_norm4 over the ladder."""
    arith.get_sieve(max(ladder))  # one build for the whole ladder
    xs = np.log(np.array(ladder, dtype=np.float64))
    ys = np.array([sum_phi_over_norm4(S) for S in ladder])
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(intercept)


def z2_estimate() -> float:
    """z2, the fitted intercept of sum_phi_over_norm4 over PHI_NORM4_LADDER
    minus z1: the one body behind constants --with-z2 and the detail of
    verify's slope check."""
    _, intercept = fit_phi_over_norm4(PHI_NORM4_LADDER)
    return intercept - constants_bundle().z1


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    reports: list[MomentReport]
    errors: list[tuple[int, str, str]]  # (S, method, message)


def report_sweep(
    S_values: Sequence[int],
    methods: Sequence[str] = ("direct", "counting"),
    normalization: str = "omega_full",
    direct_cap: int = DIRECT_CAP_DEFAULT,
    counting_cap: int = COUNTING_CAP_DEFAULT,
) -> SweepResult:
    """Evaluate every (S, method) cell, collecting per-row failures
    instead of aborting the sweep; an unknown method or normalization or
    a cap below 1 refuses the whole sweep."""
    for m in methods:
        if m not in METHODS:
            raise DomainError(f"unknown method {m!r}")
    if normalization not in NORMALIZATIONS:
        raise DomainError(f"unknown normalization {normalization!r}")
    if min(direct_cap, counting_cap) < 1:
        raise DomainError("cap must be >= 1")
    reports: list[MomentReport] = []
    errors: list[tuple[int, str, str]] = []
    for S in S_values:
        for m in methods:
            try:
                reports.append(evaluate(S, m, normalization, direct_cap, counting_cap))
            except Exception as exc:  # noqa: BLE001 - row failures are data
                errors.append((S, m, str(exc)))
    return SweepResult(reports=reports, errors=errors)
