"""Independent recomputation of the values the benchmark asks of fordspheres.

Nothing here imports the package.  Every test is written from the
definitions, on integer norms:

  region    z lies in the consecutivity region of s at level S when
            |z|^2 <= S^2 and |z + u s|^2 > S^2 for some unit u;
  coprime   z and s are coprime when the ideal (z, s) is the whole ring.
            Its index in Z[i] is gcd(N(s), N(z), Re(conj(s) z), Im(conj(s) z)),
            the gcd of the 2x2 minors of the Z-basis s, is, z, iz.

The program reaches the same numbers by other means (a Moebius sum over
the divisors of s for the counts, a geometric scan of the Farey fractions
for the direct moment), so agreement is evidence for both.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

import numpy as np

REL_TOL = Fraction(1, 10**12)
UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _times(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def canonical_denominators(S: int) -> list[tuple[int, int]]:
    """Canonical a + bi (a >= 1, b >= 0) with a^2 + b^2 <= S^2."""
    return [(a, b) for a in range(1, S + 1) for b in range(isqrt(S * S - a * a) + 1)]


def random_canonical(rng, S: int) -> tuple[int, int]:
    """A canonical denominator of modulus <= S, uniform over the lattice cells."""
    while True:
        a, b = rng.randint(1, S), rng.randint(0, S)
        if a * a + b * b <= S * S:
            return a, b


def ideal_index(s: tuple[int, int], z: tuple[int, int]) -> int:
    """Index of the ideal (s, z) in Z[i]; 1 exactly when s and z are coprime."""
    a, b = s
    x, y = z
    return gcd(a * a + b * b, x * x + y * y, a * x + b * y, a * y - b * x)


def escapes(s: tuple[int, int], z: tuple[int, int], S: int) -> bool:
    """|z + u s|^2 > S^2 for some unit u."""
    S2 = S * S
    for u in UNITS:
        us = _times(u, s)
        if (z[0] + us[0]) ** 2 + (z[1] + us[1]) ** 2 > S2:
            return True
    return False


# ---------------------------------------------------------------------------
# lattice counts of the region
# ---------------------------------------------------------------------------


def quadrant_points(S: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, x^2 + y^2) over x >= 1, y >= 0, x^2 + y^2 <= S^2.

    Multiplication by i maps the region of s onto itself and keeps
    coprimality, and it permutes the nonzero lattice points in orbits of
    four with exactly one point in this quadrant; z = 0 is never in the
    region (|0 + s| <= S).  So a full-plane count is four times the count
    over these points.
    """
    xs = np.arange(1, S + 1, dtype=np.int64)
    ys = np.arange(0, S + 1, dtype=np.int64)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    N = X * X + Y * Y
    keep = N <= S * S
    return X[keep], Y[keep], N[keep]


def partner_count(s: tuple[int, int], S: int, points=None) -> int:
    """Full-plane count of lattice points in the region of s at level S that
    are coprime to s, by the ideal-index test on every candidate point."""
    X, Y, N = quadrant_points(S) if points is None else points
    a, b = s
    S2 = S * S
    inside = np.zeros(len(X), dtype=bool)
    for u in UNITS:
        p, q = _times(u, s)
        inside |= (X + p) ** 2 + (Y + q) ** 2 > S2
    x, y, n = X[inside], Y[inside], N[inside]
    index = np.gcd(np.gcd(a * x + b * y, a * y - b * x), np.gcd(n, a * a + b * b))
    return 4 * int(np.count_nonzero(index == 1))


def region_count_rows(s: tuple[int, int], S: int) -> int:
    """Full-plane count of lattice points in the region of s, no coprime
    filter, row by row: the disc row minus the part of it that lies in
    all five discs of radius S centred at 0 and at -u s (the points none
    of whose translates escape).  Exact integer square roots throughout."""
    S2 = S * S
    centres = [(-p, -q) for p, q in (_times(u, s) for u in UNITS)]
    total = 0
    for x in range(-S, S + 1):
        h = isqrt(S2 - x * x)
        lo, hi = -h, h
        for cx, cy in centres:
            r2 = S2 - (x - cx) ** 2
            if r2 < 0:
                lo, hi = 1, 0
                break
            t = isqrt(r2)
            lo, hi = max(lo, cy - t), min(hi, cy + t)
        total += 2 * h + 1 - max(0, hi - lo + 1)
    return total


# ---------------------------------------------------------------------------
# the two moments
# ---------------------------------------------------------------------------


def counting_moment(S: int) -> tuple[Fraction, int]:
    """(M_full(S) = 2 * sum over canonical |s| <= S of N(s)/|s|^2 as an exact
    rational, sum of N(s)): the 'omega_full' counting route, recounted."""
    points = quadrant_points(S)
    by_norm: dict[int, int] = {}
    pairs = 0
    for s in canonical_denominators(S):
        c = partner_count(s, S, points)
        n = s[0] * s[0] + s[1] * s[1]
        by_norm[n] = by_norm.get(n, 0) + c
        pairs += c
    total = sum((Fraction(c, n) for n, c in by_norm.items()), Fraction(0))
    return 2 * total, pairs


def direct_moment(S: int) -> tuple[Fraction, int]:
    """(sum of radius sums 1/(2|s|^2) + 1/(2|s'|^2) over the unordered
    consecutive fraction pairs at level S, number of those pairs).

    Works on denominator pairs: {s, s'} (canonical, |s|, |s'| <= S) carries
    consecutive fraction pairs exactly when s and s' are coprime and
    |s' + u s| > S for some unit u.  Such a pair carries four fraction
    pairs in the unit square, eight when s and s' are distinct and both
    real (those pairs lie on the horizontal edges and reappear shifted by i).
    """
    dens = canonical_denominators(S)
    total = Fraction(0)
    pairs = 0
    for i, s in enumerate(dens):
        ns = s[0] * s[0] + s[1] * s[1]
        for t in dens[i:]:
            if ideal_index(s, t) != 1 or not escapes(s, t, S):
                continue
            mult = 8 if s[1] == 0 and t[1] == 0 and s != t else 4
            nt = t[0] * t[0] + t[1] * t[1]
            total += mult * (Fraction(1, 2 * ns) + Fraction(1, 2 * nt))
            pairs += mult
    return total, pairs


# ---------------------------------------------------------------------------
# checks: each returns None when the program's output is right, else a message
# ---------------------------------------------------------------------------


def close(value: float, exact: Fraction) -> bool:
    """value within a relative 1e-12 of exact, compared as rationals."""
    return abs(Fraction(value) - exact) <= REL_TOL * abs(exact)


def check_moment(label: str, S: int, value: float, exact: Fraction) -> str | None:
    if close(value, exact):
        return None
    return f"{label} S={S}: program {value!r}, independent {float(exact)!r}"


def check_region(
    s: tuple[int, int], S: int, plain: int, coprime: int, plain_ref: int, coprime_ref: int
) -> str | None:
    spec = f"region s={s[0]}+{s[1]}i S={S}"
    if plain != plain_ref:
        return f"{spec}: unfiltered count {plain}, row count {plain_ref}"
    if coprime % 4:
        return f"{spec}: coprime count {coprime} is not a multiple of 4"
    if coprime > plain:
        return f"{spec}: coprime count {coprime} exceeds unfiltered {plain}"
    if coprime != coprime_ref:
        return f"{spec}: coprime count {coprime}, ideal-index count {coprime_ref}"
    return None
