"""The oracles: the reference routes and the helpers that only checks use.

Every ingredient of the three routes of moment is checked against an
independent recomputation, and those recomputations live here, apart from
the code they check: the brute-force scans (phi_i_residues, r2_direct,
consecutive_pairs_scan, escape_counts_rows,
omega_lattice_count_bruteforce), the exact counting total
(counting_total), the quadratures (omega_area_quadrature, constant_C_quad,
constant_C_tanh_sinh), sampling (omega_area_monte_carlo), the mediant
closure of G_S, the real Farey picture and the proven band of B(S)
(sum_B_band).  No CLI route, report or set-up calls them; verify and the
tests do.

No production module (gint, arith, farey, region, moment or the package
root) imports this one, so `import fordspheres` does not load it; it is
reached as fordspheres.oracles.  An oracle reads what it shares with
production through the production module, as arith.canonical_cells or
region.BLOCK_ELEMENTS, so a monkeypatch or a benchmark wrapper of that
name sees its calls too; plain gint types and values (GInt, norm, UNITS,
ONE, ZERO, DomainError) are imported by name.  Each docstring names the
production names it shares, and tests/test_boundary.py declares the whole
list: a new dependency of an oracle on production fails that test until
it is declared there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd, inf, isqrt, pi
from random import Random
from typing import Callable, Mapping

import numpy as np

from . import arith, farey, gint, moment, region
from .gint import ONE, UNITS, ZERO, DomainError, GInt, norm


# ---------------------------------------------------------------------------
# arith: Moebius and phi identities, r2, truncated zeta sums
# ---------------------------------------------------------------------------


def phi_i_residues(q: GInt) -> int:
    """phi_i by brute force: count residues in a fundamental domain of (q)
    that are coprime to q.  Reference implementation, O(norm(q)) per call.

    Shared with production: arith._as_canonical, gint.is_coprime."""
    q = arith._as_canonical(q)
    n = norm(q)
    qc = q.conj()
    bound = q.re + q.im  # |z| <= |q|sqrt(2) box
    count = 0
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            w = GInt(x, y) * qc
            if 0 <= w.re < n and 0 <= w.im < n:
                # z = 0 is handled by gcd(0, q) = q, coprime only for q = 1
                if gint.is_coprime(GInt(x, y), q):
                    count += 1
    return count


def mobius_divisor_sum(q: GInt) -> int:
    """sum of mu_i(d) over d | q; equals 1 exactly when q is a unit, else 0.

    Shared with production: arith.divisors, arith.mu_i."""
    return sum(arith.mu_i(d) for d in arith.divisors(q))


def mobius_inversion_check(f_table: Mapping[GInt, Fraction | int | float], q: GInt) -> bool:
    """Verify Moebius inversion for f on the divisor lattice of q.

    With g(e) := sum_{d | e} mu_i(e/d) f(d), checks f(q) == sum_{e | q} g(e).
    The table must cover every divisor of q.

    Shared with production: arith._as_canonical, arith.divisors, arith.mu_i,
    gint.exact_div."""
    q = arith._as_canonical(q)
    divs = arith.divisors(q)
    missing = [d for d in divs if d not in f_table]
    if missing:
        raise DomainError(f"f_table missing divisors: {missing[:3]}")

    def g(e: GInt) -> Fraction | int | float:
        return sum(arith.mu_i(gint.exact_div(e, d)) * f_table[d] for d in arith.divisors(e))

    return sum(g(e) for e in divs) == f_table[q]


def divisor_sum_multiplicative(f: Callable[[GInt], int | float | Fraction], q: GInt):
    """sum_{d | q} f(d) for multiplicative f, computed factor by factor:
    prod_i (f(1) + f(p_i) + ... + f(p_i^a_i)).

    Shared with production: arith._as_canonical, gint.canonical, gint.factor."""
    q = arith._as_canonical(q)
    result = None
    for p, a in gint.factor(q).factors:
        term = f(ONE)
        pk = ONE
        for _ in range(a):
            pk = pk * p
            term = term + f(gint.canonical(pk))
        result = term if result is None else result * term
    return f(ONE) if result is None else result


def r2_direct(n: int) -> int:
    """r2 by scanning a for a^2 + b^2 = n.  Cross-check oracle."""
    if n == 0:
        return 1
    count = 0
    for a in range(-isqrt(n), isqrt(n) + 1):
        b2 = n - a * a
        b = isqrt(b2)
        if b * b == b2:
            count += 1 if b == 0 else 2
    return count


@dataclass(frozen=True)
class ZetaTruncation:
    """Truncated zeta_i(s) and its Moebius-weighted (inverse) companion."""

    s: float
    radius: float
    value: float
    inverse_value: float


def zeta_i_truncated(s: float, radius: float) -> ZetaTruncation:
    """Sum norm(q)^-s and mu_i(q) * norm(q)^-s over canonical |q| <= radius,
    grouped by norm n <= radius^2 through :func:`norm_coefficients`.

    Shared with production: arith.norm_coefficients."""
    if s <= 1:
        raise DomainError("need s > 1 for convergence")
    if not 1 <= radius < inf:  # also refuses nan
        raise DomainError(f"zeta radius must be a finite number >= 1, got {radius}")
    a, b = arith.norm_coefficients(int(radius * radius))
    n = np.flatnonzero(a)  # b(n) = 0 wherever a(n) = 0
    weights = n.astype(np.float64) ** (-float(s))
    value = float(np.sum(a[n] * weights))
    inverse = float(np.sum(b[n] * weights))
    return ZetaTruncation(s=float(s), radius=float(radius), value=value, inverse_value=inverse)


def zeta_tail_allowance(radius: float) -> float:
    """Allowed gap of the truncation at radius R, 20 / R^2: for
    |value * inverse_value - 1| and for the distance of either series from
    its limit.  At s = 2 each truncated series omits a tail of about
    (pi/4) / R^2."""
    return 20.0 / (radius * radius)


def zeta_tail(s: float, lo_radius: float, hi_radius: float) -> float:
    """Sum of norm(q)^-s over canonical lo_radius <= |q| <= hi_radius.

    Shared with production: arith.canonical_cells."""
    max_norm = int(hi_radius * hi_radius)
    rex, imy, nrm = arith.canonical_cells(max_norm)
    mask = nrm >= lo_radius * lo_radius
    return float(np.sum(nrm[mask].astype(np.float64) ** (-float(s))))


def sum_r2_weighted(N: int, a: float) -> tuple[float, float]:
    """(sum_{n <= N} n^a r2(n), pi N^(a+1) / (a+1)).

    The exact sum is 4 * sum of norm^a over canonical cells, since every
    unit orbit has size four.

    Shared with production: arith.canonical_cells."""
    if N < 1:
        raise DomainError("N must be >= 1")
    _, _, nrm = arith.canonical_cells(N)
    fn = nrm.astype(np.float64)
    exact = 4.0 * float(np.sum(fn**a)) if a else 4.0 * len(nrm)
    return exact, pi * float(N) ** (a + 1) / (a + 1)


def sum_phi_upto(Q: int) -> tuple[int, float]:
    """(exact sum of phi_i(q) over canonical |q| <= Q, main term).

    The main term is (pi/8) * zeta_i^{-1}(2) * Q^4.

    Shared with production: arith.ZETA_I_2, arith.get_sieve."""
    exact = int(np.sum(arith.get_sieve(Q).phi))
    return exact, pi / 8 / arith.ZETA_I_2 * Q**4


# ---------------------------------------------------------------------------
# farey: tangency, mediants, the all-pairs scan, real Farey fractions
# ---------------------------------------------------------------------------


def spheres_tangent(f1: farey.GFraction, f2: farey.GFraction) -> bool:
    """Geometric tangency test on the spheres themselves, in exact rationals:
    squared center distance equals squared radius sum.

    Shared with production: farey.GFraction."""
    if f1 == f2:
        raise DomainError("tangency needs distinct fractions")
    x1, y1 = f1.value()
    x2, y2 = f2.value()
    r1 = Fraction(1, 2 * norm(f1.den))
    r2_ = Fraction(1, 2 * norm(f2.den))
    dist2 = (x1 - x2) ** 2 + (y1 - y2) ** 2 + (r1 - r2_) ** 2
    return dist2 == (r1 + r2_) ** 2


def _mirror_values(num: GInt, den: GInt) -> list[tuple[GInt, GInt]]:
    """Reflections of the value num/den across the four edge lines of the
    unit square: conj(v), conj(v)+2i, -conj(v), 2-conj(v)."""
    rc, sc = num.conj(), den.conj()
    two_i = GInt(0, 2)
    two = GInt(2, 0)
    return [(rc, sc), (rc + two_i * sc, sc), (-rc, sc), (two * sc - rc, sc)]


def mediant_children(f1: farey.GFraction, f2: farey.GFraction) -> list[farey.GFraction]:
    """The complex mediants (r + u r')/(s + u s') of an adjacent pair that
    land in the unit square, reduced and deduplicated.

    A mediant with zero denominator is dropped.  When a mediant falls
    outside the square (possible only with both parents on the boundary),
    its mirror image across an edge is kept instead, provided the mirror
    is in the square and still adjacent to both parents.

    Shared with production: farey.GFraction, farey.is_adjacent."""
    if not farey.is_adjacent(f1, f2):
        raise DomainError("parents are not adjacent")
    kids: set[farey.GFraction] = set()
    for u in UNITS:
        den = f1.den + u * f2.den
        if not den:
            continue
        num = f1.num + u * f2.num
        child = farey.GFraction.make(num, den)
        if child.in_unit_square():
            kids.add(child)
            continue
        for mnum, mden in _mirror_values(child.num, child.den):
            mirror = farey.GFraction.make(mnum, mden)
            if (
                mirror.in_unit_square()
                and farey.is_adjacent(mirror, f1)
                and farey.is_adjacent(mirror, f2)
            ):
                kids.add(mirror)
    return sorted(kids, key=farey.GFraction.sort_key)


# shared with production: farey.GFraction
SEED_FRACTIONS = (
    farey.GFraction(ZERO, ONE),
    farey.GFraction(ONE, ONE),
    farey.GFraction(GInt(0, 1), ONE),
    farey.GFraction(GInt(1, 1), ONE),
)


def generate_gs_by_mediants(S: int) -> set[farey.GFraction]:
    """Close the seed set {0, 1, i, 1+i} under mediants of adjacent pairs,
    keeping denominators of modulus <= S, until nothing new appears.

    Shared with production: farey.GFraction."""
    if S < 1:
        raise DomainError("S must be >= 1")
    S2 = S * S
    current: set[farey.GFraction] = set(SEED_FRACTIONS)
    frontier = sorted(current, key=farey.GFraction.sort_key)
    processed: set[frozenset[farey.GFraction]] = set()
    while frontier:
        items = sorted(current, key=farey.GFraction.sort_key)
        rx = np.array([f.num.re for f in items], dtype=np.int64)
        ry = np.array([f.num.im for f in items], dtype=np.int64)
        sx = np.array([f.den.re for f in items], dtype=np.int64)
        sy = np.array([f.den.im for f in items], dtype=np.int64)
        new: list[farey.GFraction] = []
        for f in frontier:
            a, b = f.num.re, f.num.im
            c, d = f.den.re, f.den.im
            cx = rx * c - ry * d - (a * sx - b * sy)
            cy = rx * d + ry * c - (a * sy + b * sx)
            adjacent = np.nonzero(cx * cx + cy * cy == 1)[0]
            for j in adjacent:
                g = items[int(j)]
                key = frozenset((f, g))
                if key in processed:
                    continue
                processed.add(key)
                for child in mediant_children(f, g):
                    if norm(child.den) <= S2 and child not in current:
                        current.add(child)
                        new.append(child)
        frontier = sorted(set(new), key=farey.GFraction.sort_key)
    return current


def _offset_range(p: int, n: int) -> range:
    """All integers t with 0 <= p + t*n <= n."""
    # ceil(-p/n) <= t <= floor((n-p)/n)
    lo = -(p // n)
    hi = (n - p) // n
    return range(lo, hi + 1)


def consecutive_pairs_for_denoms(
    s: GInt, s_prime: GInt, S: int
) -> list[tuple[farey.GFraction, farey.GFraction]]:
    """All unordered consecutive fraction pairs with denominators (s, s').

    For each unit u one solves r s' - r' s = u; the solution is unique up
    to r -> r + k s, r' -> r' + k s', and the Gaussian integers k that put
    both fractions in the unit square are read off exactly.  Generic
    denominator pairs produce four pairs; pairs with both denominators on
    the real axis produce eight (their fraction pairs ride the horizontal
    edges of the square and reappear translated by i).

    Shared with production: farey.GFraction, farey._UNIT_INV,
    farey.consecutive_denominator_conditions, gint.xgcd."""
    if not farey.consecutive_denominator_conditions(s, s_prime, S):
        raise DomainError("denominators fail the consecutivity conditions")
    g, x, y = gint.xgcd(s_prime, s)  # x*s' + y*s == g, a unit
    g_inv = farey._UNIT_INV[g]
    found: set[tuple[farey.GFraction, farey.GFraction]] = set()
    n = norm(s)
    npr = norm(s_prime)
    for u in UNITS:
        # r0*s' - r0'*s == u
        r0 = x * u * g_inv
        r0p = -(y * u * g_inv)
        w = r0 * s.conj()
        wp = r0p * s_prime.conj()
        # k = t1 + t2 i shifts the first value by k; both fractions must land
        # in the square, so intersect the exact offset ranges per axis
        for t1 in _offset_range(w.re, n):
            for t2 in _offset_range(w.im, n):
                k = GInt(t1, t2)
                f1 = farey.GFraction.make(r0 + k * s, s)
                f2 = farey.GFraction.make(r0p + k * s_prime, s_prime)
                if f1.in_unit_square() and f2.in_unit_square():
                    pair = tuple(sorted((f1, f2), key=farey.GFraction.sort_key))
                    found.add(pair)
    return sorted(found, key=lambda p: (p[0].sort_key(), p[1].sort_key()))


def consecutive_pairs_scan(S: int) -> list[tuple[farey.GFraction, farey.GFraction]]:
    """Oracle for farey.consecutive_pairs: the determinant test on all
    |G_S|^2 fraction pairs (vectorized per row), keeping those with an
    escaping mediant.  Its cost grows like S^8.

    Shared with production: farey.GFraction, farey._fractions, farey.gs_arrays,
    farey.is_consecutive."""
    cols = farey.gs_arrays(S)
    _, sx, sy, rx, ry = cols
    fractions = farey._fractions(cols)
    n = len(fractions)
    out: list[tuple[farey.GFraction, farey.GFraction]] = []
    for i in range(n - 1):
        a, b = int(rx[i]), int(ry[i])
        c, d = int(sx[i]), int(sy[i])
        jx = slice(i + 1, n)
        cx = rx[jx] * c - ry[jx] * d - (a * sx[jx] - b * sy[jx])
        cy = rx[jx] * d + ry[jx] * c - (a * sy[jx] + b * sx[jx])
        for j0 in np.nonzero(cx * cx + cy * cy == 1)[0]:
            j = i + 1 + int(j0)
            if farey.is_consecutive(fractions[i], fractions[j], S):
                out.append((fractions[i], fractions[j]))
    return out


def enumerate_fq(Q: int) -> list[Fraction]:
    """The Farey fractions of order Q on [0, 1], in increasing order."""
    if Q < 1:
        raise DomainError("Q must be >= 1")
    out = {Fraction(0), Fraction(1)}
    for q in range(2, Q + 1):
        for p in range(1, q):
            if int_gcd(p, q) == 1:
                out.add(Fraction(p, q))
    return sorted(out)


def is_consecutive_fq(f1: Fraction, f2: Fraction, Q: int) -> bool:
    """Adjacent (|bc - ad| == 1 for a/b and c/d) with denominator sum > Q."""
    b, d = f1.denominator, f2.denominator
    return abs(b * f2.numerator - f1.numerator * d) == 1 and b + d > Q


# ---------------------------------------------------------------------------
# region: quadrature, sampling, the row kernel, the point scan
# ---------------------------------------------------------------------------


@functools.cache  # the n-node rule; numpy.polynomial loads on first use, not on import
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _gauss_legendre(f, a: float, b: float, tol: float) -> float:
    """int_a^b f by the 64-node Gauss-Legendre rule, f vectorized.

    The gap to the 32-node rule is the error estimate: above tol times the
    value, the rule does not resolve f, and ArithmeticError is raised."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    coarse, fine = (half * float(w @ f(half * x + mid)) for x, w in map(_leggauss, (32, 64)))
    if abs(fine - coarse) > tol * abs(fine):
        raise ArithmeticError(f"Gauss-Legendre error estimate {abs(fine - coarse):.2e} above tolerance")
    return fine


def omega_area_quadrature(spec: region.OmegaSpec) -> float:
    """Area by Gauss-Legendre quadrature of the polar double integral

        8 * int_0^{pi/4} int_{r_t}^{S} r dr dt,
        r_t = -|s| cos t + sqrt(S^2 - |s|^2 sin^2 t),

    kept as an independent check on the closed form.  The inner integral
    (S^2 - r_t^2)/2 is analytic on [0, pi/4], as |s| <= S.

    Shared with production: region.OmegaSpec."""
    S = float(spec.S)
    s_abs = math.sqrt(float(norm(spec.s)))

    def gap(theta: np.ndarray) -> np.ndarray:
        r_t = -s_abs * np.cos(theta) + np.sqrt(S * S - s_abs**2 * np.sin(theta) ** 2)
        return 0.5 * (S * S - r_t * r_t)

    return 8.0 * _gauss_legendre(gap, 0.0, math.pi / 4.0, 1e-13)


def omega_contains_float(x: np.ndarray, y: np.ndarray, spec: region.OmegaSpec) -> np.ndarray:
    """Float membership of the points x + yi, for the sampling oracles:
    |z|^2 <= S^2 and |z|^2 + |s|^2 + 2 max(|a x + b y|, |a y - b x|) > S^2
    (s = a + bi), the largest of the four |z + u s|^2 written out.  Points
    within rounding of the boundary may be misclassified;
    region.omega_contains is the exact test on lattice points.

    Shared with production: region.OmegaSpec."""
    a, b = spec.s.re, spec.s.im
    S2 = float(spec.S * spec.S)
    n = x * x + y * y
    reach = np.maximum(np.abs(a * x + b * y), np.abs(a * y - b * x))
    return (n <= S2) & (n + float(a * a + b * b) + 2.0 * reach > S2)


def omega_area_monte_carlo(spec: region.OmegaSpec, samples: int = 200_000, seed: int = 0) -> float:
    """Area by membership sampling on the bounding square, fixed seed.

    The points are Random(seed).uniform(-S, S) pairs, x before y, drawn in
    steps of region.BLOCK_ELEMENTS and tested together.

    Shared with production: region.BLOCK_ELEMENTS, region.OmegaSpec."""
    if samples < 1:
        raise DomainError("samples must be >= 1")
    rng = Random(seed)
    S = spec.S
    hits = 0
    for start in range(0, samples, region.BLOCK_ELEMENTS):
        n = min(region.BLOCK_ELEMENTS, samples - start)
        # uniform(a, b) is a + (b - a) * random(); the same floats, in order
        xy = -S + (2 * S) * np.array([rng.random() for _ in range(2 * n)])
        hits += int(np.count_nonzero(omega_contains_float(xy[0::2], xy[1::2], spec)))
    return hits / samples * (2.0 * S) ** 2


def escape_counts_rows(t_re, t_im, bounds) -> np.ndarray:
    """L(t, B) row by row, kept as the oracle of escape_counts (same
    arguments, same values).

    Each t visits the staircase of rows x = 0 ... R - reach, with
    R = isqrt(B) and reach = max(|Re t|, |Im t|): beyond it one translate
    is empty, and within it every shifted row x + p, |p| <= reach, stays in
    [-R, R] of the flat half-width table.  Row x of the translate by
    u t = p + qi is |y + q| <= H(x + p), and I is the sum of the lengths of
    the intersections of all four intervals, clipped at 0.  The (t, row)
    elements go through in steps of region.BLOCK_ELEMENTS, one t across
    several steps if need be: O(sqrt B) work per t.

    Shared with production: region.BLOCK_ELEMENTS, region._bound_tables,
    region.flat_blocks."""
    t_re = np.asarray(t_re, dtype=np.int64)
    t_im = np.asarray(t_im, dtype=np.int64)
    bounds = np.broadcast_to(np.asarray(bounds, dtype=np.int64), t_re.shape)
    out = np.empty(len(t_re), dtype=np.int64)
    if not len(t_re):
        return out
    uB = np.unique(bounds)
    R, half, _, centre = region._bound_tables(uB.tolist(), int(uB[-1]))  # depth B >= R: rows -R ... R
    R, centre = np.array(R, dtype=np.int64), np.array(centre, dtype=np.int64)
    disc = np.add.reduceat(2 * half + 1, centre - R, dtype=np.int64)
    half = half.astype(np.int32)  # halves the row loop's memory traffic; values stay below 2^28
    for s in range(0, len(out), region.BLOCK_ELEMENTS):  # the per-t arrays in steps too
        a, b = t_re[s : s + region.BLOCK_ELEMENTS], t_im[s : s + region.BLOCK_ELEMENTS]
        which = np.searchsorted(uB, bounds[s : s + region.BLOCK_ELEMENTS])
        out[s : s + region.BLOCK_ELEMENTS] = disc[which]
        rows = R[which] - np.maximum(np.abs(a), np.abs(b)) + 1
        live = np.flatnonzero(rows > 0)
        for items, c, x in region.flat_blocks(rows[live]):
            t = live[items]
            pa = np.repeat(a[t].astype(np.int32), c)
            pb = np.repeat(b[t].astype(np.int32), c)
            X = np.repeat(centre[which[t]], c) + x
            r = half[X + pa]
            low, hi = r + pb, r - pb  # the row of the translate by t is [-low, hi]
            for p, q in ((-pb, pa), (-pa, -pb), (pb, -pa)):  # u t for u = i, -1, -i
                r = half[X + p]
                low = np.minimum(low, r + q)
                hi = np.minimum(hi, r - q)
            lengths = np.maximum(hi + low + 1, 0)
            lengths <<= x > 0  # rows x and -x, row 0 once
            out[s + t] -= np.add.reduceat(lengths, np.cumsum(c) - c, dtype=np.int64)
    return out


def omega_lattice_count_bruteforce(spec: region.OmegaSpec, coprime_filter: bool = False) -> int:
    """Reference implementation: scan the disc point by point with the
    scalar membership test and a gcd per point.

    Shared with production: gint.is_coprime, region.OmegaSpec,
    region.omega_contains."""
    S = spec.S
    count = 0
    for x in range(-S, S + 1):
        for y in range(-S, S + 1):
            z = GInt(x, y)
            if not region.omega_contains(z, spec):
                continue
            if coprime_filter and not (z and gint.is_coprime(z, spec.s)):
                continue
            count += 1
    return count


def omega_area_bounds_check(spec: region.OmegaSpec) -> bool:
    """Lower bounds on the closed-form area, by regime:
    area >= 2|s|^2 when S <= 2|s|, else area >= 2(sqrt(7)-1) S |s|.

    Shared with production: region.OmegaSpec, region.omega_area."""
    area = region.omega_area(spec)
    ns = norm(spec.s)
    s_abs = math.sqrt(ns)
    if spec.S <= 2 * s_abs:
        return area >= 2.0 * ns - 1e-9
    return area >= 2.0 * (math.sqrt(7.0) - 1.0) * spec.S * s_abs - 1e-9


# ---------------------------------------------------------------------------
# moment: quadratures of C, the band of B(S), the exact counting total
# ---------------------------------------------------------------------------


def constant_C_quad() -> float:
    """The integral of moment.constant_C by Gauss-Legendre quadrature
    (_gauss_legendre), an independent scheme.  The logarithmic singularity at u = 0 would
    leave a plain rule about 1e-4 off, so the rule runs in v, u = v^6/sqrt 2,
    where the integrand -36/sqrt2 v^5 ln v sqrt(1 - v^12/2) on [0, 1] has
    four continuous derivatives; the rule's error estimate must be below
    1e-10."""
    return _gauss_legendre(
        lambda v: -36.0 / math.sqrt(2.0) * v**5 * np.log(v) * np.sqrt(1.0 - v**12 / 2.0), 0.0, 1.0, 1e-10
    )


def constant_C_tanh_sinh() -> float:
    """The integral of moment.constant_C by tanh-sinh quadrature (mpmath)
    at 25 digits, an independent scheme."""
    import mpmath

    with mpmath.workdps(25):
        val = mpmath.quad(
            lambda u: -mpmath.log(mpmath.sqrt(2) * u) * mpmath.sqrt(1 - u * u),
            [0, 1 / mpmath.sqrt(2)],
        )
        return float(val)


def counting_total(S: int) -> Fraction:
    """2 * sum over canonical |s| <= S of N(s)/|s|^2 exactly, the
    'omega_full' counting value, from the per-denominator oracle
    consecutive_partner_counts.

    The one exact total of the per-denominator counts: it uses neither
    the sieve nor the bound regrouping of moment_first_counting, so it
    stays an independent oracle of that route.  The norms come from
    arith.canonical_cells(S * S), in the counts' cell order.  They ascend,
    so the cells of one norm are one run; the counts of each run are added
    in int64, exactly, and the one exact sum over norms (_exact_sum) takes
    the distinct norms (60,108 of the 205,868 cells at S = 512), doubled.
    The region is invariant under the units and never contains 0, so
    every unit orbit in it has four points and each N(s) is a multiple of
    4 ('omega_quarter' is exactly a quarter of the total); a count that
    is not raises ArithmeticError.  With it,
    direct_total(S) == counting_total(S) / 4 + real_axis_correction(S).

    Shared with production: arith.canonical_cells, moment._exact_sum,
    moment.consecutive_partner_counts."""
    counts = moment.consecutive_partner_counts(S)
    re, im, nrm = arith.canonical_cells(S * S)
    i = int(np.argmax(counts % 4 != 0))  # the first count off the multiple of 4, if any
    if counts[i] % 4:
        raise ArithmeticError(f"N(s) = {counts[i]} is not a multiple of 4 for s = {re[i]}+{im[i]}i at S = {S}")
    norms, first = np.unique(nrm, return_index=True)
    return 2 * moment._exact_sum(norms.tolist(), np.add.reduceat(counts, first).tolist())


def sum_B_band(S: int, epsilon: float = 0.1) -> tuple[float, float]:
    """(lower, upper) bounds on B(S)/S^(1+epsilon), valid for every S >= 1.

    With f(z) = |z|^(-2+epsilon), decreasing in |z|, B(S) = 8 pi S * T(S)
    where T(S) sums f over the canonical cells a+bi (a >= 1, b >= 0) with
    |a+bi| <= S.  Compare T with the quarter-disc integral
    I(R) = int_{x,y >= 0, |z| <= R} f = (pi/2) R^epsilon / epsilon using
    unit squares:

      upper  for b >= 1 the square [a-1, a] x [b-1, b] lies in the quarter
             disc and f(a+bi) is at most its mean there; these squares are
             disjoint, so their part of T is at most I(S).  The real-axis
             cells add sum_{a <= S} a^(-2+epsilon) <= 1 + 1/(1 - epsilon);

      lower  f(a+bi) is at least its mean on [a, a+1] x [b, b+1]; these
             squares cover {x >= 1, y >= 0, |z| <= S}, which contains the
             quarter annulus sqrt2 <= |z| <= S minus the strip 0 <= x < 1,
             y >= 1, where the integral is at most 1/(1 - epsilon).

    Hence (pi/2 epsilon)(S^epsilon - 2^(epsilon/2)) - 1/(1 - epsilon)
    <= T(S) <= (pi/2 epsilon) S^epsilon + 1 + 1/(1 - epsilon); multiplying
    by 8 pi S^(-epsilon) gives the band.  Both ends tend to 4 pi^2/epsilon,
    so B(S) = O(S^(1+epsilon)) and B(S)/S^(1+epsilon) has a finite limit.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must be in (0, 1)")
    if S < 1:
        raise DomainError("S must be >= 1")
    decay = float(S) ** (-epsilon)
    half = math.pi / (2.0 * epsilon)
    lower = 8.0 * math.pi * (half * (1.0 - 2.0 ** (epsilon / 2.0) * decay) - decay / (1.0 - epsilon))
    upper = 4.0 * math.pi**2 / epsilon + 8.0 * math.pi * (1.0 + 1.0 / (1.0 - epsilon)) * decay
    return lower, upper
