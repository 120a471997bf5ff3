"""Gaussian Farey fractions on the unit square and their Ford spheres.

A fraction r/s lives in the closed unit square exactly when both
Re(r * conj(s)) and Im(r * conj(s)) lie in [0, norm(s)], which keeps every
membership decision in integer arithmetic.  Fractions are stored reduced
with a canonical denominator; that normal form is unique, so equality and
hashing are structural.

Two fractions are adjacent when their Ford spheres (radius 1/(2|s|^2),
tangent to the plane at the fraction) are tangent, i.e. when
|r's - rs'| = 1.  They are consecutive at level S when additionally some
sphere smaller than 1/(2 S^2) is tangent to both, which happens exactly
when one of the four complex mediants (r + u r')/(s + u s') has
denominator of modulus > S.

G_S is built in sort_key order, shell by shell: _shell(lo, S) yields
the fractions with lo < |s| <= S in blocks of columns, and gs_arrays(S)
concatenates the blocks of _shell(0, S) anew on each call.  Since the
order starts with norm(s), G_S is a prefix of G_S' for S <= S'.

The consecutive pairs of G_S come from a neighbour solve: the partners of
r/s have denominators s' = x + k s in one residue class modulo s.  Each
pair is found from its end with the larger denominator norm, so r/s
visits only the partners with |s'| <= |s|, a disc of k whose rows and
columns are exact integer intervals: about pi candidates per fraction
(_neighbour_blocks, in int64 arrays), where x = r^-1 mod s is solved
and checked for each fraction as it is scanned.  A pair with |s'| < |s| is found
once, a tie |s'| = |s| from both ends.  The partner r'/s' lies in the
square when both parts of r conj(s) |s'|^2 - conj(s s') lie in
[0, |s|^2 |s'|^2], a test with no division; r' itself is divided out
only in consecutive_pairs, which needs the partner's index.  Only the
escape test depends on S: the scan yields each find with its largest
mediant norm M, and the consecutive ones are those with M > S^2.  The
eight symmetries of the unit square map G_S onto itself and each
fraction's partners onto its image's, with the same norms, so
moment.direct_total scans only one fraction per orbit (_orbit_sizes,
those in 0 <= y <= x <= 1/2, about an eighth of G_S, which
_shell(lo, S, triangle=True) builds alone) and weights its finds by the
orbit size: about 0.1 S^4 candidates in all, against 0.8 S^4 for the
full scan that consecutive_pairs runs.  Those finds are not kept:
farey's one cache (_finds) is a table of the weighted counts c_L(n) of
the pair ends of norm n that M(L) sums over, for every level L up to
the level built.  A find of a representative of norm N counts at the
levels L with N <= L^2 < M, an interval that ends below 2 ceil(sqrt N),
so the table grows shell by shell, in O(S^3) entries, and each
representative is scanned once, when its shell enters it.  A call at a
level already built reads one row of it.  G_S itself is not kept.  The
all-pairs determinant scan is kept as the oracle consecutive_pairs_scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd

import numpy as np

from . import arith, region
from .gint import (
    DomainError,
    GInt,
    ONE,
    UNITS,
    ZERO,
    canonicalize,
    exact_div,
    gcd,
    is_coprime,
    norm,
    xgcd,
)

# below this S every quantity of gs_arrays and the neighbour solve stays
# inside int64: the largest are at most S^4 < 2^52 (the disc bound |s|^4
# and (n m + Re y)^2 of the row intervals, and the products r conj(s) |s'|^2
# and |s|^2 |s'|^2 of the square test) and the partner keys, below
# 4 (S + 1)^4; every root taken is of an integer below S^4, where
# region._floor_sqrt is exact
INT64_S_LIMIT = 1 << 13

_UNIT_INV = {u: v for u, v in zip(UNITS, (UNITS[0], UNITS[3], UNITS[2], UNITS[1]))}


def _operand_str(q: GInt) -> str:
    text = str(q)
    return f"({text})" if ("+" in text[1:] or "-" in text[1:]) else text


@dataclass(frozen=True, slots=True)
class GFraction:
    """Reduced fraction num/den with canonical denominator."""

    num: GInt
    den: GInt

    @classmethod
    def make(cls, num: GInt, den: GInt) -> "GFraction":
        """Reduce and normalize so the denominator is canonical."""
        if not den:
            raise DomainError("zero denominator")
        g = gcd(num, den) if num else den
        if norm(g) > 1:
            num = exact_div(num, g)
            den = exact_div(den, g)
        unit, cden = canonicalize(den)
        # num/den == (num * unit^-1) / canonical(den)
        return cls(num * _UNIT_INV[unit], cden)

    def value(self) -> tuple[Fraction, Fraction]:
        n = norm(self.den)
        w = self.num * self.den.conj()
        return Fraction(w.re, n), Fraction(w.im, n)

    def in_unit_square(self) -> bool:
        n = norm(self.den)
        w = self.num * self.den.conj()
        return 0 <= w.re <= n and 0 <= w.im <= n

    def sphere(self) -> "Sphere":
        re, im = self.value()
        return Sphere(base_re=re, base_im=im, radius=Fraction(1, 2 * norm(self.den)))

    def sort_key(self):
        return (norm(self.den), self.den.re, self.den.im, self.num.re, self.num.im)

    def __str__(self) -> str:
        return f"{_operand_str(self.num)}/{_operand_str(self.den)}"


@dataclass(frozen=True)
class Sphere:
    """Ford sphere data: tangency point and radius, all exact rationals."""

    base_re: Fraction
    base_im: Fraction
    radius: Fraction


def _shell(lo: int, S: int, triangle: bool = False):
    """The fractions r/s of G_S with |s| > lo, as (5, k) int64 blocks of
    the columns of gs_arrays, in sort_key order; with triangle=True only
    the orbit representatives among them (_orbit_sizes).

    For the denominator s = a+bi the candidate numerators x+iy satisfy
    0 <= ax+by <= norm(s) and 0 <= ay-bx <= norm(s), a tilted square with
    corners at x in [-b, a], y in [0, a+b].  With X + iY = r conj(s), the
    representatives are those with 0 <= Y <= X and 2X <= norm(s), the
    triangle 0, s/2, (1 + i) s/2 inside that square (so X and Y lie in
    [0, norm(s)] there too), whose bounding box is
    min(0, floor((a-b)/2)) <= x <= ceil(a/2), 0 <= y <= ceil((a+b)/2):
    with triangle=True only that box is expanded, an eighth to a quarter
    of the square but for the smallest s.  r/s is reduced exactly when the ideal (r, s) is the whole
    ring, i.e. when its index gcd(norm(s), norm(r), Re(r conj(s)),
    Im(r conj(s))) is 1, taken only on the candidates kept; for r = 0
    that leaves only 0/1.
    The denominators come from arith.canonical_cells in (norm, re, im)
    order and each box is expanded in (x, y) order, so the output is in
    sort_key order as built.  The boxes of consecutive denominators are
    expanded together, whole, at most region.BLOCK_ELEMENTS candidates at
    a time (region.flat_blocks).  S is checked when _shell is called, not
    when its first block is drawn, so a caller can check it before it
    allocates anything for the blocks.
    """
    if S < 1:
        raise DomainError("S must be >= 1")
    if S >= INT64_S_LIMIT:
        raise ArithmeticError(f"G_S arrays are exact in int64 for S < {INT64_S_LIMIT}; got {S}")
    return _shell_blocks(lo, S, triangle)


def _shell_blocks(lo: int, S: int, triangle: bool):
    """The blocks of _shell(lo, S, triangle), which has checked S."""
    a, b, norms = arith.canonical_cells(S * S)
    first = int(np.searchsorted(norms, lo * lo, side="right"))
    a, b, norms = a[first:], b[first:], norms[first:]
    if triangle:  # the bounding box of the triangle 0, s/2, (1 + i) s/2
        x_lo, x_hi, y_hi = np.minimum(0, (a - b) // 2), (a + 1) // 2, (a + b + 1) // 2
    else:
        x_lo, x_hi, y_hi = -b, a, a + b
    side = y_hi + 1
    for items, c, local in region.flat_blocks((x_hi - x_lo + 1) * side):
        owner = np.repeat(np.arange(items.start, items.stop), c)
        sa, sb, n, w = a[owner], b[owner], norms[owner], side[owner]
        x = local // w + x_lo[owner]
        y = local % w
        px = sa * x + sb * y
        qy = sa * y - sb * x
        edges = (qy <= px) & (2 * px <= n) if triangle else (px >= 0) & (px <= n) & (qy <= n)
        inside = np.flatnonzero(edges & (qy >= 0))
        n, sa, sb, x, y, px, qy = (v[inside] for v in (n, sa, sb, x, y, px, qy))
        keep = np.gcd(np.gcd(n, x * x + y * y), np.gcd(px, qy)) == 1
        yield np.stack((n[keep], sa[keep], sb[keep], x[keep], y[keep]))


def gs_arrays(S: int) -> tuple[np.ndarray, ...]:
    """G_S as int64 arrays (norm(s), Re s, Im s, Re r, Im r), one entry per
    fraction r/s, in sort_key order, built anew from the blocks of _shell
    on each call."""
    return tuple(np.concatenate(list(_shell(0, S)), axis=1))


def _fractions(cols) -> list[GFraction]:
    """The GFractions of the columns of gs_arrays, in their order."""
    _, s_re, s_im, r_re, r_im = (c.tolist() for c in cols)
    return [GFraction(GInt(x, y), GInt(a, b)) for a, b, x, y in zip(s_re, s_im, r_re, r_im)]


def enumerate_gs(S: int) -> list[GFraction]:
    """All reduced fractions in the closed unit square with canonical
    denominator of modulus <= S, sorted by (norm(s), s, r): the fractions
    of gs_arrays(S)."""
    return _fractions(gs_arrays(S))


def is_adjacent(f1: GFraction, f2: GFraction) -> bool:
    """Tangent Ford spheres: |r's - rs'| == 1, evaluated as norm == 1."""
    return norm(f2.num * f1.den - f1.num * f2.den) == 1


def spheres_tangent(f1: GFraction, f2: GFraction) -> bool:
    """Geometric tangency test on the spheres themselves, in exact rationals:
    squared center distance equals squared radius sum."""
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


def mediant_children(f1: GFraction, f2: GFraction) -> list[GFraction]:
    """The complex mediants (r + u r')/(s + u s') of an adjacent pair that
    land in the unit square, reduced and deduplicated.

    A mediant with zero denominator is dropped.  When a mediant falls
    outside the square (possible only with both parents on the boundary),
    its mirror image across an edge is kept instead, provided the mirror
    is in the square and still adjacent to both parents.
    """
    if not is_adjacent(f1, f2):
        raise DomainError("parents are not adjacent")
    kids: set[GFraction] = set()
    for u in UNITS:
        den = f1.den + u * f2.den
        if not den:
            continue
        num = f1.num + u * f2.num
        child = GFraction.make(num, den)
        if child.in_unit_square():
            kids.add(child)
            continue
        for mnum, mden in _mirror_values(child.num, child.den):
            mirror = GFraction.make(mnum, mden)
            if (
                mirror.in_unit_square()
                and is_adjacent(mirror, f1)
                and is_adjacent(mirror, f2)
            ):
                kids.add(mirror)
    return sorted(kids, key=GFraction.sort_key)


SEED_FRACTIONS = (
    GFraction(ZERO, ONE),
    GFraction(ONE, ONE),
    GFraction(GInt(0, 1), ONE),
    GFraction(GInt(1, 1), ONE),
)


def generate_gs_by_mediants(S: int) -> set[GFraction]:
    """Close the seed set {0, 1, i, 1+i} under mediants of adjacent pairs,
    keeping denominators of modulus <= S, until nothing new appears."""
    if S < 1:
        raise DomainError("S must be >= 1")
    S2 = S * S
    current: set[GFraction] = set(SEED_FRACTIONS)
    frontier = sorted(current, key=GFraction.sort_key)
    processed: set[frozenset[GFraction]] = set()
    while frontier:
        items = sorted(current, key=GFraction.sort_key)
        rx = np.array([f.num.re for f in items], dtype=np.int64)
        ry = np.array([f.num.im for f in items], dtype=np.int64)
        sx = np.array([f.den.re for f in items], dtype=np.int64)
        sy = np.array([f.den.im for f in items], dtype=np.int64)
        new: list[GFraction] = []
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
        frontier = sorted(set(new), key=GFraction.sort_key)
    return current


def is_consecutive(f1: GFraction, f2: GFraction, S: int) -> bool:
    """Adjacent, and some mediant denominator escapes modulus S, i.e. a
    sphere of radius < 1/(2 S^2) is tangent to both."""
    if not is_adjacent(f1, f2):
        return False
    S2 = S * S
    return any(norm(f1.den + u * f2.den) > S2 for u in UNITS)


def consecutive_denominator_conditions(s: GInt, s_prime: GInt, S: int) -> bool:
    """The arithmetic classification of consecutive denominator pairs:
    both moduli <= S, coprime, and |s' + u s| > S for some unit u."""
    S2 = S * S
    if norm(s) > S2 or norm(s_prime) > S2:
        return False
    if not is_coprime(s, s_prime):
        return False
    return any(norm(s_prime + u * s) > S2 for u in UNITS)


def _offset_range(p: int, n: int) -> range:
    """All integers t with 0 <= p + t*n <= n."""
    # ceil(-p/n) <= t <= floor((n-p)/n)
    lo = -(p // n)
    hi = (n - p) // n
    return range(lo, hi + 1)


def consecutive_pairs_for_denoms(
    s: GInt, s_prime: GInt, S: int
) -> list[tuple[GFraction, GFraction]]:
    """All unordered consecutive fraction pairs with denominators (s, s').

    For each unit u one solves r s' - r' s = u; the solution is unique up
    to r -> r + k s, r' -> r' + k s', and the Gaussian integers k that put
    both fractions in the unit square are read off exactly.  Generic
    denominator pairs produce four pairs; pairs with both denominators on
    the real axis produce eight (their fraction pairs ride the horizontal
    edges of the square and reappear translated by i).
    """
    if not consecutive_denominator_conditions(s, s_prime, S):
        raise DomainError("denominators fail the consecutivity conditions")
    g, x, y = xgcd(s_prime, s)  # x*s' + y*s == g, a unit
    g_inv = _UNIT_INV[g]
    found: set[tuple[GFraction, GFraction]] = set()
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
                f1 = GFraction.make(r0 + k * s, s)
                f2 = GFraction.make(r0p + k * s_prime, s_prime)
                if f1.in_unit_square() and f2.in_unit_square():
                    pair = tuple(sorted((f1, f2), key=GFraction.sort_key))
                    found.add(pair)
    return sorted(found, key=lambda p: (p[0].sort_key(), p[1].sort_key()))


def _round_div(p: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Nearest integer to p/n for n > 0, halves rounded up."""
    return (2 * p + n) // (2 * n)


def _inverse_mod(r_re, r_im, s_re, s_im) -> tuple[np.ndarray, np.ndarray]:
    """x with r x == 1 mod s for each lane, reduced so that both parts of
    x/s lie in [-1/2, 1/2], by a vectorized Gaussian Euclid on (s, r).

    The invariant a == xa r (mod s) holds for both rows of the remainder
    sequence; at the end a is gcd(r, s), which must be a unit u, and
    x = xa conj(u).
    """
    a_re, a_im, b_re, b_im = s_re.copy(), s_im.copy(), r_re.copy(), r_im.copy()
    xa_re = np.zeros_like(r_re)
    xa_im = np.zeros_like(r_re)
    xb_re = np.ones_like(r_re)
    xb_im = np.zeros_like(r_re)
    live = np.flatnonzero(b_re | b_im)
    while len(live):
        ar, ai, br, bi = a_re[live], a_im[live], b_re[live], b_im[live]
        nb = br * br + bi * bi
        q_re = _round_div(ar * br + ai * bi, nb)
        q_im = _round_div(ai * br - ar * bi, nb)
        xar, xai, xbr, xbi = xa_re[live], xa_im[live], xb_re[live], xb_im[live]
        a_re[live], a_im[live] = br, bi
        b_re[live] = ar - (q_re * br - q_im * bi)
        b_im[live] = ai - (q_re * bi + q_im * br)
        xa_re[live], xa_im[live] = xbr, xbi
        xb_re[live] = xar - (q_re * xbr - q_im * xbi)
        xb_im[live] = xai - (q_re * xbi + q_im * xbr)
        live = live[(b_re[live] | b_im[live]) != 0]
    if np.any(a_re * a_re + a_im * a_im != 1):
        raise ArithmeticError("numerator and denominator are not coprime")
    x_re = xa_re * a_re + xa_im * a_im
    x_im = xa_im * a_re - xa_re * a_im
    n = s_re * s_re + s_im * s_im
    k_re = _round_div(x_re * s_re + x_im * s_im, n)
    k_im = _round_div(x_im * s_re - x_re * s_im, n)
    return x_re - (k_re * s_re - k_im * s_im), x_im - (k_re * s_im + k_im * s_re)


def _inverse_columns(n, s_re, s_im, r_re, r_im) -> tuple[np.ndarray, np.ndarray]:
    """x = r^-1 mod s for each fraction r/s (_inverse_mod), checked once
    per fraction as (r x - 1) conj(s) == 0 mod n, n = norm(s): then every
    r s' - 1 = r x - 1 + r k s of the neighbour solve is divisible by s.
    A fraction that is not reduced has no inverse and is refused."""
    x_re, x_im = _inverse_mod(r_re, r_im, s_re, s_im)
    w_re = r_re * x_re - r_im * x_im - 1
    w_im = r_re * x_im + r_im * x_re
    if np.any((w_re * s_re + w_im * s_im) % n) or np.any((w_im * s_re - w_re * s_im) % n):
        raise ArithmeticError("r s' - 1 is not divisible by s")
    return x_re, x_im


def _orbit_sizes(n, s_re, s_im, r_re, r_im) -> np.ndarray:
    """For each fraction r/s of the given columns of gs_arrays, the size of
    its orbit under the eight symmetries of the unit square if it is the
    orbit's representative, and 0 otherwise, as an int8 array: the
    weights of the finds of _finds, whose shells (_shell with
    triangle=True) hold only representatives.

    The symmetries are generated by x -> 1 - x, y -> 1 - y and x <-> y.
    On r/s they are (r, s) -> (conj s - conj r, conj s),
    (conj r + i conj s, conj s) and (i conj r, conj s), each followed by
    the unit that makes s canonical.  Each keeps |s| and reducedness; each
    turns r s' - r' s into a unit times its conjugate, so it keeps
    adjacency; and each turns the mediant denominators s + u s' into
    associates of conj(s + conj(u) s'), so it keeps the norms over the four
    units and with them the escape test.  So each maps G_S onto itself and
    the finds of f in _neighbour_blocks (its partners with |s'| <= |s|) onto
    the finds of its image, with the same norms.

    The closed triangle 0 <= y <= x <= 1/2 meets every orbit exactly once.
    With X + iY = r conj(s) and n = norm(s), so that r/s = (X + iY)/n, its
    fractions are those with Y <= X and 2X <= n (Y >= 0 throughout G_S).
    Two of its sides lie on mirrors: a fraction on the diagonal X = Y or
    on the midline 2X = n is fixed by one reflection and has an orbit of
    4, the centre, on both, is fixed by all eight maps, and every other
    fraction has an orbit of 8.  Over G_S the sizes sum to |G_S|.
    """
    X = r_re * s_re + r_im * s_im
    Y = r_im * s_re - r_re * s_im
    diag, mid = (X == Y).astype(np.int8), (2 * X == n).astype(np.int8)
    return np.where((Y <= X) & (2 * X <= n), 8 >> (diag + mid + (diag & mid)), 0).astype(np.int8)


def _neighbour_blocks(cols):
    """The neighbour solve, one block at a time: yields (i, Re s', Im s', M)
    for the adjacent partners r'/s' with |s'| <= |s| of the fractions
    r/s = cols[:, i] of the block, with r s' - r' s = 1 (s' not yet
    canonical), and M = max over units u of |s + u s'|^2, the largest
    mediant norm.  cols holds the columns of gs_arrays of the fractions
    to scan: all of G_S for consecutive_pairs, one fraction per symmetry
    orbit for the finds of moment.direct_total (_finds).  The finds of a
    fraction come out together, and the fractions in their order in cols.

    For f = r/s, scaling a partner r'/s' by a unit makes r s' - r' s = 1,
    and exactly one of the four associates of (r', s') does so.  Then
    s' = x + k s with x = r^-1 mod s and k a Gaussian integer, and
    r' = (r s' - 1)/s exactly; x is solved and checked for the fractions
    of each block as the block is scanned (_inverse_columns), so once per
    scanned fraction.  With
    n = norm(s) and y = x conj(s), |s'| <= |s| is |n k + y|^2 <= n^2, a
    disc of k whose rows and columns are exact integer intervals:
    Re k = m for |n m + Re y| <= n, and in row m, Im k = j for
    |n j + Im y| <= isqrt(n^2 - (n m + Re y)^2).  The rows of a block of
    fractions, then the points of the rows, go through region.flat_blocks,
    so each step visits exactly the s' with |s'| <= |s|, about pi per
    fraction.  A candidate is kept when s' != 0 and r'/s' lies in the
    closed unit square, the test of in_unit_square.  It needs no r':
    r'/s' = r/s - 1/(s s'), so with P = r conj(s), r'/s' is in the square
    exactly when both parts of P norm(s') - conj(s s') lie in
    [0, n norm(s')].  None of this depends on S beyond |s| <= S: the
    escape test of is_consecutive, M > S^2, is left to the caller
    (consecutive_pairs, _finds).
    """
    step = max(region.BLOCK_ELEMENTS // 4, 1)  # a point holds about a dozen int64 temporaries
    # the per-fraction set-up below (x, y, P, the row bounds) is taken for
    # step fractions at a time, so that it stays small
    for lo in range(0, len(cols[0]), step):
        n, s_re, s_im, r_re, r_im = (c[lo : lo + step] for c in cols)
        x_re, x_im = _inverse_columns(n, s_re, s_im, r_re, r_im)
        y_re = x_re * s_re + x_im * s_im  # y = x conj(s)
        y_im = x_im * s_re - x_re * s_im
        p_re = r_re * s_re + r_im * s_im  # P = r conj(s)
        p_im = r_im * s_re - r_re * s_im
        disc = n * n
        # the rows run from m_lo = ceil((-n - Re y)/n) to floor((n - Re y)/n)
        m_lo = -((n + y_re) // n)
        for rows, per_fraction, m in region.flat_blocks((n - y_re) // n - m_lo + 1, step):
            f = np.repeat(np.arange(rows.start, rows.stop), per_fraction)
            nf = n[f]
            m += m_lo[f]
            u = nf * m + y_re[f]
            e = region._floor_sqrt(disc[f] - u * u)  # the columns: |n j + Im y| <= e
            j_lo = -((e + y_im[f]) // nf)
            # s' = x + m s + j i s along the row
            base_re = x_re[f] + m * s_re[f]
            base_im = x_im[f] + m * s_im[f]
            for pts, per_row, j in region.flat_blocks((e - y_im[f]) // nf - j_lo + 1, step):
                row = np.repeat(np.arange(pts.start, pts.stop), per_row)
                i = f[row]
                j += j_lo[row]
                sr, si, ns = s_re[i], s_im[i], nf[row]
                sp_re = base_re[row] - j * si
                sp_im = base_im[row] + j * sr
                nsp = sp_re * sp_re + sp_im * sp_im
                # s s' = (a - b) + (c + d) i and conj(s) s' = (a + b) + (c - d) i
                a, b, c, d = sr * sp_re, si * sp_im, sr * sp_im, si * sp_re
                # the square test on P norm(s') - conj(s s')
                q_re = p_re[i] * nsp - (a - b)
                q_im = p_im[i] * nsp + (c + d)
                top = ns * nsp
                keep = np.flatnonzero((q_re >= 0) & (q_re <= top) & (q_im >= 0) & (q_im <= top) & (nsp > 0))
                ns, nsp, a, b, c, d = (v[keep] for v in (ns, nsp, a, b, c, d))
                # max over units of |s + u s'|^2 is norm(s) + norm(s') +
                # 2 max(|Re z|, |Im z|), z = conj(s) s'
                mediant = ns + nsp + 2 * np.maximum(np.abs(a + b), np.abs(c - d))
                yield lo + i[keep], sp_re[keep], sp_im[keep], mediant


# farey's one cache, behind moment.direct_total: (B, the read-only int64
# table of _finds, 2B + 1 rows and B^2 + 1 columns).  It grows shell by
# shell and lives, at the largest B asked for, for the rest of the process
# ((2B + 1)(B^2 + 1) entries: 4.2 MB at B = 64, 34 MB at B = 128)
_finds_cache: list[tuple[int, np.ndarray]] = []


def _finds(S: int) -> np.ndarray:
    """The table c_L(n) for the levels L = 0 .. S and the norms n = 0 .. S^2,
    a read-only int64 view of the one cached table: the pair ends of norm n
    of the consecutive pairs at level L, each weighted by the orbit size of
    its find.

    A find is one adjacent partner r'/s' with |s'| <= |s| of an orbit
    representative r/s (_shell with triangle=True), found by
    _neighbour_blocks; it has an end at norm(s), and one at norm(s') when
    |s'| < |s| (a tie is found from both ends, so each of its ends is
    counted once).  With N = norm(s) and M the largest mediant norm of its
    pair, a find is in the scan of G_L when N <= L^2 and consecutive there
    when M > L^2 (is_consecutive), so its ends count at the levels
    ceil(sqrt N) <= L <= floor(sqrt(M - 1)).  Since |s'| <= |s|, M <= 4N,
    and those levels end below 2 ceil(sqrt N).  So the finds of the
    representatives with |s| <= B give the final rows L <= B of the table,
    and partial rows up to 2B - 1 that later shells complete.

    When S is beyond the level B built, the representatives of the shell
    between B and S are built block by block, each block is scanned, once,
    and its ends are added as difference rows (the weight at the first
    level, minus it one past the last) into an array held aside; one
    cumulative sum over L turns that into counts, and the old table is
    added in last, so a build that raises leaves the cache as it was.
    """
    if S < 1:
        raise DomainError("S must be >= 1")
    built, table = _finds_cache[0] if _finds_cache else (0, np.zeros((1, 1), np.int64))
    if S > built:
        shells = _shell(built, S, triangle=True)  # checks S before the table is allocated
        width = S * S + 1
        grown = np.zeros((2 * S + 1, width), np.int64)
        flat = grown.reshape(-1)
        for shell in shells:
            sizes = _orbit_sizes(*shell)
            for i, sp_re, sp_im, mediant in _neighbour_blocks(shell):
                norms = shell[0, i]
                first = region._floor_sqrt(norms - 1) + 1  # ceil(sqrt N)
                stop = region._floor_sqrt(mediant - 1) + 1  # one past floor(sqrt(M - 1))
                live = first < stop
                w = sizes[i].astype(np.int64)
                partner = sp_re * sp_re + sp_im * sp_im
                for end, k in ((norms, live), (partner, live & (partner < norms))):
                    np.add.at(flat, first[k] * width + end[k], w[k])
                    np.add.at(flat, stop[k] * width + end[k], -w[k])
        np.cumsum(grown, axis=0, out=grown)
        grown[: table.shape[0], : table.shape[1]] += table
        grown.flags.writeable = False
        _finds_cache[:] = [(S, grown)]
        table = grown
    return table[: S + 1, : S * S + 1]


def consecutive_pairs(S: int) -> list[tuple[GFraction, GFraction]]:
    """Every unordered consecutive pair of fractions at level S, each as
    (f, f') with f first in sort_key order, sorted by (f, f'): the same
    list as consecutive_pairs_scan.

    G_S is built once (gs_arrays), and the finds of the neighbour solve on
    all of it (_neighbour_blocks) whose largest mediant escapes, M > S^2,
    are turned into indices (i, j) into its columns: the partner r'/s' is
    found in G_S by its numerator r' = (r s' - 1)/s, an exact division,
    after rotating s' to its canonical associate.  Each pair is taken
    once, as the find whose partner j comes before i: sort_key order
    starts with the norm, so that is every find with norm(s_j) < norm(s_i)
    and one of the two finds of each tie."""
    cols = gs_arrays(S)
    n, s_re, s_im, r_re, r_im = cols
    # every fraction has a key that increases along the sort_key order:
    # the rank of its denominator, then its numerator offset in the box
    # -S <= Re r <= S, 0 <= Im r <= 2S
    width = 2 * S + 1
    den_start = np.flatnonzero(np.r_[True, (np.diff(s_re) != 0) | (np.diff(s_im) != 0)])
    den_rank = np.full((S + 1) * (S + 1), -1, dtype=np.int64)
    den_rank[s_re[den_start] * (S + 1) + s_im[den_start]] = np.arange(len(den_start))
    keys = (den_rank[s_re * (S + 1) + s_im] * width + r_re + S) * width + r_im
    first, second = [], []
    for i, sp_re, sp_im, mediant in _neighbour_blocks(cols):
        escape = mediant > S * S
        i, sp_re, sp_im = i[escape], sp_re[escape], sp_im[escape]
        # r' = (r s' - 1) conj(s) / norm(s)
        sr, si, rr, ri, ns = s_re[i], s_im[i], r_re[i], r_im[i], n[i]
        w_re = rr * sp_re - ri * sp_im - 1
        w_im = rr * sp_im + ri * sp_re
        rp_re = (w_re * sr + w_im * si) // ns
        rp_im = (w_im * sr - w_re * si) // ns
        # rotate (r', s') by the unit that makes s' canonical
        q1 = (sp_re <= 0) & (sp_im > 0)  # times -i
        q2 = (sp_re < 0) & (sp_im <= 0)  # times -1
        q3 = (sp_re >= 0) & (sp_im < 0)  # times i
        for q, rot in ((q1, lambda u, v: (v, -u)), (q2, lambda u, v: (-u, -v)), (q3, lambda u, v: (-v, u))):
            sp_re[q], sp_im[q] = rot(sp_re[q], sp_im[q])
            rp_re[q], rp_im[q] = rot(rp_re[q], rp_im[q])
        key = (den_rank[sp_re * (S + 1) + sp_im] * width + rp_re + S) * width + rp_im
        j = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        if np.any(keys[j] != key):
            raise ArithmeticError("a consecutive partner is missing from G_S")
        earlier = j < i
        first.append(j[earlier])
        second.append(i[earlier])
    first, second = np.concatenate(first), np.concatenate(second)
    order = np.lexsort((second, first))
    fractions = _fractions(cols)
    return [(fractions[a], fractions[b]) for a, b in zip(first[order].tolist(), second[order].tolist())]


def consecutive_pairs_scan(S: int) -> list[tuple[GFraction, GFraction]]:
    """Oracle for consecutive_pairs: the determinant test on all |G_S|^2
    fraction pairs (vectorized per row), keeping those with an escaping
    mediant.  Its cost grows like S^8."""
    cols = gs_arrays(S)
    _, sx, sy, rx, ry = cols
    fractions = _fractions(cols)
    n = len(fractions)
    out: list[tuple[GFraction, GFraction]] = []
    for i in range(n - 1):
        a, b = int(rx[i]), int(ry[i])
        c, d = int(sx[i]), int(sy[i])
        jx = slice(i + 1, n)
        cx = rx[jx] * c - ry[jx] * d - (a * sx[jx] - b * sy[jx])
        cy = rx[jx] * d + ry[jx] * c - (a * sy[jx] + b * sx[jx])
        for j0 in np.nonzero(cx * cx + cy * cy == 1)[0]:
            j = i + 1 + int(j0)
            if is_consecutive(fractions[i], fractions[j], S):
                out.append((fractions[i], fractions[j]))
    return out


# ---------------------------------------------------------------------------
# real Farey fractions, the one-dimensional reference picture
# ---------------------------------------------------------------------------


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
