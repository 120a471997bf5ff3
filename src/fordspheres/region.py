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
against Monte Carlo sampling (oracles.omega_area_quadrature and
oracles.omega_area_monte_carlo).

Lattice counts go through one kernel,

    L(t, B) = #{w : |w|^2 <= B, max_u |w + u t|^2 > B},

the number of points of the disc of norm bound B that leave at least one
of the four translated discs about -u t: the disc's point count minus the
points I of the intersection of the four translates (which lies inside
the disc).  In row x the translate about -u t = -(p + qi) is the integer
interval |y + q| <= H(x + p), H(x) = isqrt(B - x^2).  The intersection
is symmetric under w -> -w and L is invariant under units and
conjugation of t, so t is taken as a + bi with a >= b >= 0 and only rows
x = 0 ... isqrt(B) - a are visited; past them one translate is empty.
On those rows two translates bind at each end, and each end is two runs
of one shifted H: the upper end switches where the upper arcs of the
circles about -t and -i t cross, at x = (a - b) q, and the lower end at
the vertex ((a + b) q, (b - a) q) of the circles about -t and i t,
q = sqrt((2B - |t|^2) / (4 |t|^2)) - 1/2, or the rows end there when that
vertex is the intersection's tip.  Every run is a difference of two
entries of one prefix sum of the H table, so each t costs O(1), not
O(sqrt B) rows.  Each float boundary is rounded to its nearest row, and
one comparison of two table entries decides that row: an end is the
floor of the smaller of two real arcs, so it switches exactly at their
crossing, which the float locates to far within half a row; so the
count is exact.  Each t carries its own bound; one flat table of exact
integer square roots, one segment per distinct bound and no pad, serves
them all.  A t reads only the rows -b ... R of its bound, so each call
builds the rows -min(b_max, R) ... R, b_max the largest Im t of the
call's a + bi, and takes the disc's point count from the half x >= 0 by
symmetry.  The closed form is one body in two modes,
and the caller that knows its batch picks the mode.  The per-t mode,
_escape_counts_per_t, runs it once per t on Python ints: for the one t
of a plain per-spec count, and for a Moebius batch of at most
PER_T_BATCH t, where numpy's per-call cost would dominate (at the
constant, a Moebius batch, the per-spec calls run as fast either way).
The array mode, _escape_core, runs it on int64 arrays in fixed-size
steps and owns the table set-up: the counting route of moment, whose
octant t already have a >= b >= 0 and whose bounds are already runs,
calls it directly, and escape_counts, the array mode for any t, folds t
to a >= b >= 0, takes the distinct bounds from the runs of np.sort of
the bounds (_sorted_runs) and each t's index among them by
np.searchsorted, and calls it for a larger Moebius batch.  Both modes
answer only 0 < |t|^2 <= B, the t every caller sends (L(0, B) = 0 and
L(t, B) = disc(B) when |t|^2 > B are never asked for); escape_counts,
the public entry, refuses any other t and any call without exactly one
bound per t.  The table takes one truncated float square root per row,
with no correction: it is exact for every argument below 2^52
(_half_widths).  The kernel stops at B < 2^52, where its table is exact
and its float boundaries are still far within half a row, and beyond that
raises ArithmeticError.  The row-by-row kernel, O(sqrt B)
rows per t, is kept as oracles.escape_counts_rows, beside the
point-by-point scan oracles.omega_lattice_count_bruteforce.

Scaling by a divisor d turns the coprime count into kernel values: d w
lies in the region of (s, S) exactly when w lies in the region of s/d at
the integer bound floor(S^2/|d|^2), because norms are integers.  Moebius
inclusion-exclusion over the squarefree divisors of s then gives

    #{z in region : gcd(z, s) = 1} = sum_{d | s} mu(d) L(s/d, floor(S^2/|d|^2)),

and the unfiltered count is L(s, S^2).  coprime_counts, the one home of
this sum, for omega_lattice_count and moment.consecutive_partner_counts
alike, builds the squarefree divisors of each s on ints from the primes
of |s|^2 (gint._factor_int, lifted by gint.primes_above), with no
factorization object, and sends the pairs of every s and divisor in one
kernel call as list columns: a batch of at most PER_T_BATCH pairs goes
to the per-t mode as it is, with no array or copy on the way, and a
larger one to escape_counts; the unfiltered count of one s goes to the
per-t mode too.  It refuses an s = 0 or |s| > S before any kernel call,
so every t = s/d it sends has 0 < |t|^2 <= S^2 // |d|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .arith import phi_i
from .gint import DomainError, GInt, UNITS, _factor_int, is_canonical, norm, primes_above


@dataclass(frozen=True)
class OmegaSpec:
    """Region parameters: the denominator s (canonical) and the level S."""

    s: GInt
    S: int

    def __post_init__(self):
        if not is_canonical(self.s):
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


KERNEL_BOUND_LIMIT = 1 << 52  # truncated float roots of smaller integers are exact (_half_widths)
BLOCK_ELEMENTS = 1 << 16  # elements per vectorized step: flat peak memory, cache-sized steps
# calls up to this many t run per t, on ints: the modes break even near 16 t
# at S = 512, and the per-spec rounds are flat from 8 to 64 (README)
PER_T_BATCH = 32


def _floor_sqrt(n: np.ndarray) -> np.ndarray:
    """isqrt(n) for each 0 <= n < 2^52: the truncated float root, with no
    correction, exact by the argument of _half_widths.  farey's roots are
    all of integers below S^4 < 2^52 (farey.INT64_S_LIMIT)."""
    return np.sqrt(n.astype(np.float64)).astype(np.int64)


def _half_widths(bounds: list, depth: list, reach: list):
    """isqrt(B - x^2) for x = -D ... R, for each bound 0 <= B < 2^52 with
    its depth D and reach R (both at most isqrt(B)) in turn, concatenated
    into one flat int64 table, and the index of x = 0 in each segment (a
    list).  The work per bound stays on lists and each list becomes an
    array once: the calls of the per-t mode have one to a few dozen
    bounds, where a numpy call costs more than a list comprehension.

    Each entry is the truncated float root of n = B - x^2, with no
    correction: exact for every 0 <= n < 2^52.  x, x^2, B and n are
    integers below 2^52, so float64 holds each exactly, and
    sqrt(n) >= k = isqrt(n), so the rounded root is at least k.  And
    (k + 1) - sqrt(n) = ((k + 1)^2 - n) / (k + 1 + sqrt(n)) > 1/(2k + 2)
    >= 2^-27, at least the spacing of the floats just below k + 1 <= 2^26,
    so the rounded root stays below k + 1."""
    sizes = [D + R + 1 for D, R in zip(depth, reach)]
    centre = [end - R - 1 for end, R in zip(accumulate(sizes), reach)]
    x = np.arange(centre[-1] + reach[-1] + 1, dtype=np.float64)
    x -= np.array(centre, dtype=np.float64).repeat(sizes)
    x *= x  # x^2, exact
    return np.sqrt(np.array(bounds, dtype=np.float64).repeat(sizes) - x).astype(np.int64), centre


def flat_blocks(counts: np.ndarray, step: int | None = None):
    """Cut the elements (i, k), 0 <= k < counts[i], taken in order, into
    steps of at most step elements (default BLOCK_ELEMENTS).  Each step
    yields (items, c, k): it holds c[j] elements of the j-th item of the
    slice items, and k gives each element's k.  The elements of one item
    may span several steps."""
    step = step or BLOCK_ELEMENTS
    ends = np.cumsum(counts, dtype=np.int64)
    starts = ends - counts
    total = int(ends[-1]) if len(ends) else 0
    for e0 in range(0, total, step):
        e1 = min(e0 + step, total)
        lo = int(np.searchsorted(ends, e0, side="right"))
        hi = int(np.searchsorted(starts, e1, side="left"))
        c = np.minimum(ends[lo:hi], e1) - np.maximum(starts[lo:hi], e0)
        yield slice(lo, hi), c, np.arange(e0, e1, dtype=np.int64) - np.repeat(starts[lo:hi], c)


def _bound_tables(uB: list, depth: int):
    """The set-up both kernels share, for the distinct bounds uB of a call
    (a nonempty ascending list) and a depth: R = isqrt(B) for each (a
    list); one flat table of half-widths isqrt(B - x^2) (_half_widths)
    over the rows x = -min(depth, R) ... R, one segment per bound and no
    pad; its prefix sum P, P[i] = half[0] + ... + half[i - 1],
    written in place after a zero; and the index of x = 0 in each segment
    (a list).  A bound of 2^52 or more raises ArithmeticError before
    anything is built: the table's float roots are exact below it.  A
    negative bound, which only oracles.escape_counts_rows can pass,
    raises ValueError from isqrt."""
    if uB[-1] >= KERNEL_BOUND_LIMIT:
        raise ArithmeticError(
            f"lattice kernel is exact for norm bounds below 2^52; got {uB[-1]}"
        )
    R = [math.isqrt(B) for B in uB]
    half, centre = _half_widths(uB, [min(depth, r) for r in R], R)
    P = np.empty(len(half) + 1, dtype=np.int64)
    P[0] = 0
    np.cumsum(half, out=P[1:])
    return R, half, P, centre


def _sorted_runs(v: np.ndarray):
    """The distinct values of v, a nonempty sorted array (ascending or
    descending), in v's order, and the index of each element's run among
    them: what np.unique(v, return_inverse=True) gives for an ascending v,
    from one scan of neighbours instead of a sort or a hash."""
    new = np.empty(len(v), dtype=bool)
    new[0] = True
    np.not_equal(v[1:], v[:-1], out=new[1:])
    return v[new], np.cumsum(new) - 1


def _disc(R, c, half, P):
    """The points of the disc |w|^2 <= B, 2R + 1 + 2 H(0) + 4 (H(1) + ... +
    H(R)) by its symmetry, from the rows x >= 0 of B's segment (x = 0 at
    c) of the table and its prefix sum: ints or int64 arrays alike."""
    return 2 * R + 1 + 2 * half[c] + 4 * (P[c + R + 1] - P[c + 1])


# the elementwise operations _intersection is handed: (min, max, select,
# truncate, sqrt) on Python ints and floats, and on int64 / float64 arrays
_ON_INTS = (min, max, lambda ok, x, y: x if ok else y, int, math.sqrt)
_ON_ARRAYS = (np.minimum, np.maximum, np.where, lambda v: v.astype(np.int64), np.sqrt)


def _intersection(a, b, B, R, c, half, P, ops):
    """I(t, B), the points of the intersection of the four translated
    discs, for t = a + bi with a >= b >= 0 and 0 < |t|^2 <= B, as
    escape_counts derives it; R = isqrt(B) and the row x = 0 of B's
    segment of the table half (and of its prefix sum P) is at c.  The one
    body of the closed form: a, b, B, R and c are Python ints (half and P
    memoryviews, ops _ON_INTS) or int64 arrays of one length (half and P
    arrays, ops _ON_ARRAYS), and every operation is an operator or one of
    ops."""
    mn, mx, select, trunc, sqrt = ops
    n = a * a + b * b
    top = R - a + 1  # rows x = 1 ... top - 1 follow row 0
    q = sqrt((2 * B - n) / (4 * n)) - 0.5
    upper = (a - b) * q
    j1 = trunc(upper + 0.5)  # the row nearest the upper end's switch
    j2 = trunc((a + b) * q + 0.5)  # the row nearest the vertex
    x1, x2 = c + mn(j1, top - 1), c + mn(j2, top - 1)
    Ha, Lb = half[x2 + a], half[x2 + b] - a
    # rows j1 and j2 stay in the run before their switch when its end is
    # the smaller (a tie counts either way); at a tip the rows end after
    # j2 unless row j2 is past the vertex (length < 0)
    u = j1 + (half[x1 - b] - a <= half[x1 + a] - b)
    l = j2 + (Lb <= Ha + b)
    length = mn(half[x2 - b] - a, Ha - b) + mn(Lb, Ha + b) + 1
    tip = upper < b
    end = mx(mn(select(tip, j2 + (length >= 0), top), top), 1)
    u = mx(mn(u, end), 1)
    l = mx(mn(select(tip, top, l), end), 1)
    # rows [1, u) of H(x - b) - a, [u, end) of H(x + a) - b, [1, l) of
    # H(x + b) - a and [l, end) of H(x + a) + b, plus row 0's H(b) - a
    cm, cp, ca = c - b, c + b, c + a
    rows = (
        P[cm + u] - P[cm + 1] + 2 * P[ca + end] - P[ca + u] - P[ca + l] + P[cp + l] - P[cp]
        + b * (u - l) - a * (u + l - 1) + end - 1
    )
    return 2 * rows + 1


def escape_counts(t_re, t_im, bounds) -> np.ndarray:
    """L(t, B) for each t = t_re + t_im i and its own norm bound B, with
    0 < |t|^2 <= B: the lattice points w with |w|^2 <= B and
    |w + u t|^2 > B for at least one unit u.

    L = disc(B) - I, where I counts the points of the intersection of the
    four translated discs |w + u t|^2 <= B; the intersection lies inside
    the disc (|w + t|^2 + |w - t|^2 = 2|w|^2 + 2|t|^2), is symmetric under
    w -> -w, and is empty when n = |t|^2 > B.  L(t) = L(u t) = L(conj t),
    so t is taken as a + bi with a >= b >= 0.  With R = isqrt(B) and
    H(x) = isqrt(B - x^2), row x = 0 ... R - a of the intersection is the
    integer interval [-Lo(x), U(x)] with

        U  = min(H(x - b) - a, H(x + a) - b),
        Lo = min(H(x + b) - a, H(x + a) + b):

    the other two translates never bind for x >= 0, where their arcs stay
    beyond a binding one (the upper arcs about t and -t, the lower arcs
    about t and i t and about -i t and -t, cross only at x <= 0).  Each
    end is two runs of one shifted H.  The upper arcs of the
    circles about -t and -i t cross at x = (a - b) q, the lower arcs of
    those about -t and i t at the vertex ((a + b) q, (b - a) q), with

        q = sqrt((2B - n) / (4n)) - 1/2.

    If (a - b) q >= b, the end (sqrt(B) - a, -b) of the disc about -t lies
    in the intersection: every row is non-empty, and Lo switches at the
    vertex.  Otherwise Lo = H(x + b) - a on every row and the vertex is
    the intersection's tip, past which the rows are empty.  So row 0 holds
    2 (H(b) - a) + 1 points, and the rows x > 0 (counted twice, for x and
    -x) are four runs, two per end, each summed as a difference of two
    entries of one int64 prefix sum of the flat half-width table.

    One table row decides each float boundary.  min(floor f, floor g) =
    floor(min(f, g)), so each end takes the run of the smaller real arc
    and switches exactly at the real crossing.  q is a float whose error
    is far below half a row while B < 2^52 (beyond that the kernel raises
    ArithmeticError), so with each crossing rounded to its nearest row j
    (j1 for the upper end, j2 for the lower end or the tip), the rows
    below j take one run and the rows above j the other; at row j the two
    table entries are compared and the smaller gives its run.  At a tip,
    a row before the vertex has real U + Lo >= 0, so its length
    floor(U) + floor(Lo) + 1 > U + Lo - 1 >= -1 is >= 0; a row past it
    has U + Lo < 0 and length <= 0.  So the rows end after j2 exactly when
    row j2's length is >= 0, no run needs clipping, and L is exact.

    A t reads only the rows x = -b ... R of its bound: the runs start at
    row 1 - b, the decision rows min(j, R - a) are at least 0, so x - b
    stays at least -b, and x + a stays at most R.  So the set-up builds, for
    each distinct bound, the rows x = -min(b_max, R) ... R, b_max the
    largest min(|Re t|, |Im t|) of the call, not -R ... R, and takes
    disc(B) from the half x >= 0 of the prefix sum by the disc's symmetry
    (_disc).  The closed form is one body, _intersection, evaluated in one
    of two modes, and the caller that knows its batch picks the mode: the
    per-t mode _escape_counts_per_t runs the body once per t on Python
    ints, and the array mode _escape_core on int64 arrays.  escape_counts
    is the array mode for any t: it folds t to a >= b >= 0, takes the
    distinct bounds from the runs of np.sort of the bounds (_sorted_runs)
    and each t's index among them from np.searchsorted, which on the few
    thousand distinct bounds of a Moebius batch is faster than a hash
    np.unique or a full argsort, and calls the core.  The counting route
    of moment calls the core directly, with the octant t and the bounds
    it already holds.  The modes give the same integers; the row kernel
    oracles.escape_counts_rows is the oracle of both.

    t_re, t_im and bounds have one length, one bound per t, and every t
    has 0 < |t|^2 <= B after the fold: anything else raises ValueError, so
    the core is never handed a t it does not answer.  coprime_counts is
    the one production caller, with the t = s/d of a Moebius batch, whose
    |t|^2 = |s|^2/|d|^2 <= S^2/|d|^2 is an integer and so at most its
    bound S^2 // |d|^2.
    """
    n = len(t_re)
    if not n == len(t_im) == len(bounds):
        raise ValueError(f"{n} real parts, {len(t_im)} imaginary parts and {len(bounds)} bounds")
    if not n:
        return np.empty(0, dtype=np.int64)
    a = np.abs(np.asarray(t_re, dtype=np.int64))
    b = np.abs(np.asarray(t_im, dtype=np.int64))
    a, b = np.maximum(a, b), np.minimum(a, b)
    bounds = np.asarray(bounds, dtype=np.int64)
    norms = a * a + b * b
    if not np.all((norms > 0) & (norms <= bounds)):
        raise ValueError("escape_counts needs 0 < |t|^2 <= B for every t and its bound B")
    uB = _sorted_runs(np.sort(bounds))[0]
    return _escape_core(a, b, np.searchsorted(uB, bounds), uB)


def _escape_core(a: np.ndarray, b: np.ndarray, w: np.ndarray, uB: np.ndarray) -> np.ndarray:
    """L(a + bi, uB[w]) for each t = a + bi, on int64 arrays: the array
    mode.  a, b and w have one nonzero length, a >= b >= 0, w indexes uB,
    the call's distinct bounds (a nonempty ascending int64 array), and
    every t has 0 < |t|^2 <= uB[w].  Its two callers guarantee that:
    escape_counts checks it, and the counting route of moment sends the
    first k(B) octant cells of each bound B, whose norms are at most B.
    It builds the tables once, for b_max = max b, and runs _intersection
    in steps of BLOCK_ELEMENTS / 4 t, so that the five table reads of a
    step stay near BLOCK_ELEMENTS elements."""
    R, half, P, centre = _bound_tables(uB.tolist(), int(b.max()))
    R, centre = np.array(R, dtype=np.int64), np.array(centre, dtype=np.int64)
    disc = _disc(R, centre, half, P)
    out = np.empty(len(a), dtype=np.int64)
    step = max(BLOCK_ELEMENTS // 4, 1)  # each t reads five table rows
    for s in range(0, len(out), step):
        at, bt, wt = a[s : s + step], b[s : s + step], w[s : s + step]
        out[s : s + step] = disc[wt] - _intersection(at, bt, uB[wt], R[wt], centre[wt], half, P, _ON_ARRAYS)
    return out


def _escape_counts_per_t(t_re: list, t_im: list, bounds: list) -> list:
    """L(t, B) for each t = t_re + t_im i and its bound B, lists of Python
    ints of one nonzero length, on ints, one t at a time: the per-t mode.
    Every t has 0 < |t|^2 <= B.  Its two callers guarantee that:
    coprime_counts sends the short batch of an s with 0 < |s| <= S, and
    omega_lattice_count the one s of an OmegaSpec at the bound S^2."""
    ab = [(max(abs(x), abs(y)), min(abs(x), abs(y))) for x, y in zip(t_re, t_im)]
    uB = sorted(set(bounds))
    R, half, P, centre = _bound_tables(uB, max(b for _, b in ab))
    half, P = memoryview(half), memoryview(P)  # items read as Python ints, no copy
    which = {B: w for w, B in enumerate(uB)}
    out = []
    for (a, b), B in zip(ab, bounds):
        w = which[B]
        out.append(_disc(R[w], centre[w], half, P) - _intersection(a, b, B, R[w], centre[w], half, P, _ON_INTS))
    return out


def omega_lattice_count(spec: OmegaSpec, coprime_filter: bool = False) -> int:
    """Exact count of lattice points in the region (full plane, all four
    quadrants), optionally restricted to points coprime to s.

    Unfiltered this is L(s, S^2), one t in the per-t mode; the coprime
    restriction is coprime_counts of the one s.
    """
    if not coprime_filter:
        return _escape_counts_per_t([spec.s.re], [spec.s.im], [spec.S * spec.S])[0]
    return int(coprime_counts([spec.s.re], [spec.s.im], spec.S)[0])


def _int_list(v) -> list:
    """The elements of a sequence or an array as Python ints."""
    return v.tolist() if isinstance(v, np.ndarray) else [int(x) for x in v]


def coprime_counts(s_re, s_im, S: int) -> np.ndarray:
    """The region's lattice points coprime to s, for each s = s_re + s_im i
    (at least one, each with 0 < |s| <= S) at level S, as an int64
    array: the sum over the squarefree divisors d of s of
    mu(d) L(s/d, S^2 // |d|^2), every (s, d) pair in one kernel call.

    The divisors come straight from the norm's primes, on ints: each
    rational prime of |s|^2 (gint._factor_int) is lifted to the Gaussian
    primes above it (gint.primes_above), and each of those that divides s
    doubles the list of (Re d, Im d, mu(d)).  The call's t, bound and mu
    columns are lists.  This is the one reader of PER_T_BATCH: a call of
    at most PER_T_BATCH pairs (one s of at most five prime factors) goes
    to the per-t mode as they are, and its sums are taken on ints; a
    larger one becomes arrays once, in escape_counts.  An s = 0 or
    |s| > S raises DomainError before any kernel call: the kernel answers
    only 0 < |t|^2 <= B, and every t = s/d of an s with 0 < |s| <= S has
    |t|^2 = |s|^2/|d|^2 <= S^2/|d|^2, an integer, so at most its bound
    S^2 // |d|^2."""
    t_re, t_im, bounds, mu, starts = [], [], [], [], []  # Re s/d, Im s/d, S^2 // |d|^2, mu(d)
    S2 = S * S
    for a, b in zip(_int_list(s_re), _int_list(s_im)):
        if not 0 < a * a + b * b <= S2:
            raise DomainError(f"coprime_counts needs 0 < |s| <= S; got s = {a}{b:+d}i at S = {S}")
        square_free = [(1, 0, 1)]  # (Re d, Im d, mu(d))
        for p in _factor_int(a * a + b * b):
            for c, d, n in primes_above(p):
                if not ((a * c + b * d) % n or (b * c - a * d) % n):  # c + di divides s
                    square_free += [(x * c - y * d, x * d + y * c, -m) for x, y, m in square_free]
        starts.append(len(mu))
        for x, y, m in square_free:
            k = x * x + y * y  # s / d = s conj(d) / |d|^2, an exact division
            t_re.append((a * x + b * y) // k)
            t_im.append((b * x - a * y) // k)
            bounds.append(S2 // k)
            mu.append(m)
    if 0 < len(mu) <= PER_T_BATCH:
        terms = [m * L for m, L in zip(mu, _escape_counts_per_t(t_re, t_im, bounds))]
        return np.array([sum(terms[i:j]) for i, j in zip(starts, starts[1:] + [len(mu)])], dtype=np.int64)
    return np.add.reduceat(np.array(mu) * escape_counts(t_re, t_im, bounds), starts)


def coprime_count_prediction(spec: OmegaSpec) -> float:
    """Expected coprime count: density phi_i(s)/|s|^2 times the area."""
    return phi_i(spec.s) / norm(spec.s) * omega_area(spec)


def boundary_length_surrogate(S: int) -> float:
    """Upper-bound surrogate 8 pi S for the boundary length of the region
    of any s at level S: the boundary is made of arcs of five circles of
    radius S, so its length is at most a small multiple of S, whatever s
    is.  moment.sum_B weights every s by it, and the boundary-sum artifact
    records it in its metadata."""
    return 8.0 * math.pi * S
