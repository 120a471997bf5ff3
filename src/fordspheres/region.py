"""The consecutivity region for a fixed denominator s at level S.

A lattice point z is a possible consecutive partner denominator for s
exactly when |z| <= S and at least one of the four translates z + u*s
(u a unit) leaves the disc of radius S.  Geometrically: inside the circle
of radius S about the origin and outside at least one of the four circles
of radius S centred at -s, -is, s, is.  Membership is decided purely on
integer norms, so boundary points are never misclassified.

The closed form of the area (obtained by integrating the polar gap
between the central circle and a translated one over an eighth of the
region, then simplifying int cos^2 = (t + sin t cos t)/2) is

    area = 4 S^2 t* + 2 sqrt(2) S |s| sqrt(1 - |s|^2/(2S^2)) - 2 |s|^2,
    t*   = arcsin(|s| / (sqrt(2) S)),

which collapses to pi S^2 at |s| = S and to ~ 4 sqrt(2) S |s| as
|s|/S -> 0.  It is coded once, vectorized over norms, in
area_closed_form; omega_area and moment.sum_A both evaluate it.  It is
validated against direct quadrature of the polar double integral and
against Monte Carlo sampling.

Lattice counts go through one kernel,

    L(t, B) = #{w : |w|^2 <= B, max_u |w + u t|^2 > B},

the number of points of the disc of norm bound B that leave at least one
of the four translated discs about -u t.  It is counted row by row: in
row x the disc is the integer interval |y| <= isqrt(B - x^2), the
translate about -u t = -(p + qi) is |y + q| <= isqrt(B - (x + p)^2), and
L adds the disc row lengths and subtracts the length of the intersection
of the five intervals.  The intersection is symmetric under w -> -w, so
only rows x >= 0 are visited; the row half-widths come from one table of
exact integer square roots, so a call costs O(sqrt B) per t, not O(B).
The table takes a float square root and corrects it by one either way,
which is exact while B < 2^52 (the float carries every integer of the
table exactly); beyond that the kernel raises ArithmeticError.

Scaling by a divisor d turns the coprime count into kernel calls: d w
lies in the region of (s, S) exactly when w lies in the region of s/d at
the integer bound floor(S^2/|d|^2), because norms are integers.  Moebius
inclusion-exclusion over the squarefree divisors of s then gives

    #{z in region : gcd(z, s) = 1} = sum_{d | s} mu(d) L(s/d, floor(S^2/|d|^2)),

and the unfiltered count is L(s, S^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isqrt
from random import Random

import numpy as np

from .gint import DomainError, GInt, ONE, UNITS, exact_div, is_coprime, norm


@dataclass(frozen=True)
class OmegaSpec:
    """Region parameters: the denominator s (canonical) and the level S."""

    s: GInt
    S: int

    def __post_init__(self):
        if not (self.s.re >= 1 and self.s.im >= 0):
            raise DomainError("s must be canonical (re >= 1, im >= 0)")
        if self.S < 1:
            raise DomainError("S must be >= 1")
        if norm(self.s) > self.S * self.S:
            raise DomainError("need |s| <= S")


def omega_contains(z: GInt, spec: OmegaSpec) -> bool:
    """Exact membership: norm(z) <= S^2 and norm(z + u s) > S^2 for some unit."""
    S2 = spec.S * spec.S
    if norm(z) > S2:
        return False
    return any(norm(z + u * spec.s) > S2 for u in UNITS)


def area_closed_form(norms: np.ndarray, S: int) -> np.ndarray:
    """Closed-form area of the region at level S for each denominator norm
    |s|^2 in norms (the area depends on s only through |s|)."""
    fS = float(S)
    fn = np.asarray(norms, dtype=np.float64)
    s_abs = np.sqrt(fn)
    t_star = np.arcsin(s_abs / (math.sqrt(2.0) * fS))
    return (
        4.0 * fS * fS * t_star
        + 2.0 * math.sqrt(2.0) * fS * s_abs * np.sqrt(1.0 - fn / (2.0 * fS * fS))
        - 2.0 * fn
    )


def omega_area(spec: OmegaSpec) -> float:
    """Closed-form area of the region."""
    return float(area_closed_form(norm(spec.s), spec.S))


def omega_area_quadrature(spec: OmegaSpec) -> float:
    """Area by numerical quadrature of the polar double integral

        8 * int_0^{pi/4} int_{r_t}^{S} r dr dt,
        r_t = -|s| cos t + sqrt(S^2 - |s|^2 sin^2 t),

    kept as an independent check on the closed form."""
    from scipy.integrate import quad

    S = float(spec.S)
    s_abs = math.sqrt(float(norm(spec.s)))

    def gap(theta: float) -> float:
        r_t = -s_abs * math.cos(theta) + math.sqrt(S * S - s_abs**2 * math.sin(theta) ** 2)
        return 0.5 * (S * S - r_t * r_t)

    val, _ = quad(gap, 0.0, math.pi / 4.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    return 8.0 * val


def omega_area_monte_carlo(spec: OmegaSpec, samples: int = 200_000, seed: int = 0) -> float:
    """Area by membership sampling on the bounding square, fixed seed."""
    rng = Random(seed)
    S = spec.S
    a, b = spec.s.re, spec.s.im
    S2 = float(S * S)
    hits = 0
    for _ in range(samples):
        x = rng.uniform(-S, S)
        y = rng.uniform(-S, S)
        if x * x + y * y > S2:
            continue
        p = abs(a * x + b * y)
        q = abs(a * y - b * x)
        if x * x + y * y + (a * a + b * b) + 2.0 * max(p, q) > S2:
            hits += 1
    return hits / samples * (2.0 * S) ** 2


KERNEL_BOUND_LIMIT = 1 << 52  # float square roots of smaller integers are exact to within 1
BLOCK_ELEMENTS = 1 << 18  # elements per vectorized step, which keeps peak memory flat


def _half_widths(bound: int, reach: int) -> np.ndarray:
    """isqrt(bound - x^2) for x in [-reach, reach], -1 where x^2 > bound."""
    x = np.arange(-reach, reach + 1, dtype=np.int64)
    n = bound - x * x
    r = np.sqrt(np.maximum(n, 0).astype(np.float64)).astype(np.int64)
    r -= r * r > n
    r += (r + 1) * (r + 1) <= n
    return r


def escape_counts(t_re: np.ndarray, t_im: np.ndarray, bound: int) -> np.ndarray:
    """L(t, bound) for each nonzero t = t_re + t_im i: the lattice points w
    with |w|^2 <= bound and |w + u t|^2 > bound for at least one unit u.

    Rows x >= 0 are counted and the rest follow from the symmetry
    w -> -w of the four-disc intersection.  Beyond row
    R - max(|Re t|, |Im t|) one of the translated discs has no points, so
    each block of t stops at the last row any of its t can use.
    """
    if bound >= KERNEL_BOUND_LIMIT:
        raise ArithmeticError(
            f"lattice kernel is exact for norm bounds below 2^52; got {bound}"
        )
    t_re = np.asarray(t_re, dtype=np.int64)
    t_im = np.asarray(t_im, dtype=np.int64)
    R = isqrt(bound)
    reach = np.maximum(np.abs(t_re), np.abs(t_im))
    # rows run up to R - min(reach) and the translates shift them by up to
    # max(reach), so the table must cover |x| <= R + pad
    pad = int(reach.max() - reach.min()) if len(reach) else 0
    half = _half_widths(bound, R + pad)
    origin = R + pad  # index of x = 0 in half
    disc = int(np.sum(2 * half[pad : pad + 2 * R + 1] + 1))
    out = np.empty(len(t_re), dtype=np.int64)
    t_step = max(1, BLOCK_ELEMENTS // (R + 1))
    for i in range(0, len(t_re), t_step):
        a = t_re[i : i + t_step, None]
        b = t_im[i : i + t_step, None]
        inside = np.zeros(len(a), dtype=np.int64)
        last_row = R - int(reach[i : i + t_step].min())
        row_step = max(1, BLOCK_ELEMENTS // len(a))
        for x0 in range(0, last_row + 1, row_step):
            X = np.arange(origin + x0, origin + min(x0 + row_step, last_row + 1))[None, :]
            hi = low = half[X]  # the disc row is [-low, hi]
            for p, q in ((a, b), (-b, a), (-a, -b), (b, -a)):  # u t for u = 1, i, -1, -i
                r = half[X + p]
                low = np.minimum(low, r + q)
                hi = np.minimum(hi, r - q)
            lengths = np.maximum(hi + low + 1, 0)
            inside += 2 * lengths.sum(axis=1)
            if x0 == 0:
                inside -= lengths[:, 0]
        out[i : i + t_step] = disc - inside
    return out


def omega_lattice_count(spec: OmegaSpec, coprime_filter: bool = False) -> int:
    """Exact count of lattice points in the region (full plane, all four
    quadrants), optionally restricted to points coprime to s.

    Unfiltered this is L(s, S^2); the coprime restriction is the Moebius
    sum over the squarefree divisors d of s of mu(d) L(s/d, S^2 // |d|^2).
    """
    S2 = spec.S * spec.S
    if not coprime_filter:
        return int(escape_counts([spec.s.re], [spec.s.im], S2)[0])
    from .gint import factor

    square_free = [(ONE, 1)]
    for p, _a in factor(spec.s).factors:
        square_free += [(d * p, -m) for d, m in square_free]
    total = 0
    for d, sign in square_free:
        t = exact_div(spec.s, d)
        total += sign * int(escape_counts([t.re], [t.im], S2 // norm(d))[0])
    return total


def omega_lattice_count_bruteforce(spec: OmegaSpec, coprime_filter: bool = False) -> int:
    """Reference implementation: scan the disc point by point with the
    scalar membership test and a gcd per point."""
    S = spec.S
    count = 0
    for x in range(-S, S + 1):
        for y in range(-S, S + 1):
            z = GInt(x, y)
            if not omega_contains(z, spec):
                continue
            if coprime_filter and not (z and is_coprime(z, spec.s)):
                continue
            count += 1
    return count


def coprime_count_prediction(spec: OmegaSpec) -> float:
    """Expected coprime count: density phi_i(s)/|s|^2 times the area."""
    from .arith import phi_i

    return phi_i(spec.s) / norm(spec.s) * omega_area(spec)


def omega_area_bounds_check(spec: OmegaSpec) -> bool:
    """Lower bounds on the closed-form area, by regime:
    area >= 2|s|^2 when S <= 2|s|, else area >= 2(sqrt(7)-1) S |s|."""
    area = omega_area(spec)
    ns = norm(spec.s)
    s_abs = math.sqrt(ns)
    if spec.S <= 2 * s_abs:
        return area >= 2.0 * ns - 1e-9
    return area >= 2.0 * (math.sqrt(7.0) - 1.0) * spec.S * s_abs - 1e-9


def boundary_length_surrogate(spec: OmegaSpec) -> float:
    """Upper-bound surrogate 8 pi S for the boundary length; the region's
    boundary is made of arcs of five circles of radius S, so its length is
    at most a small multiple of S.  The constant is recorded in artifact
    metadata wherever this feeds a sum."""
    return 8.0 * math.pi * spec.S
