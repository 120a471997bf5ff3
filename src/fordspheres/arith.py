"""Multiplicative arithmetic over the canonical Gaussian integers.

The Moebius and Euler-phi analogues used here are

    mu_i(q)  = 1 for q = 1, (-1)^k for a product of k distinct canonical
               primes, 0 when any prime repeats;
    phi_i(q) = number of units of Z[i]/(q)
             = prod over prime powers p^a || q of (|p|^2a - |p|^(2a-2)).

Single values go through :func:`fordspheres.gint.factor`.  Bulk sweeps
read :func:`get_sieve`: arrays of phi_i and mu_i on the canonical q with
|q| <= radius (the level S), cut from the one cached
:class:`CanonicalSieve`.  That builds them from n = norm(q) and
g = gcd(re q, im q), with phi*, mu* and D multiplicative in n:

    phi_i(q) = phi*(n) * prod over p | g, p = 1 (mod 4) of (1 - 1/p),
    mu_i(q)  = mu*(n) * [D(n) divides g].

This holds one rational prime p at a time: the p-part of n fixes that of
q unless p = 1 (mod 4) splits as pi conj(pi), and then both pi and
conj(pi) divide q exactly when p | g.  One pass over the rational primes
fills the tables over n here and the zeta coefficients below.

zeta_i(2) is the closed form :data:`ZETA_I_2` = zeta(2) * L(2, chi_-4)
= (pi^2/6) * Catalan.  Its oracles are the truncated lattice sums

    zeta_i(s)      ~ sum of norm(q)^-s   over canonical q, |q| <= radius,
    zeta_i^{-1}(s) ~ same sum weighted by mu_i(q),

whose tails die off like radius^(-2(s-1)).  Both summands depend on q only
through its norm, so they are taken per norm n from the Dirichlet
coefficients of :func:`norm_coefficients`: a(n) canonical q of norm n and
b(n) their Moebius sum, from one sieve over the rational primes up to
radius with no per-point table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, isqrt, pi
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .gint import (
    DomainError,
    GInt,
    ONE,
    canonical,
    factor,
    is_canonical,
    is_coprime,
    norm,
)

CATALAN = 0.9159655941772190150546  # L(2, chi_-4) = sum of (-1)^k / (2k+1)^2
ZETA_I_2 = pi**2 / 6 * CATALAN  # Dedekind zeta of Q(i): zeta_i(s) = zeta(s) L(s, chi_-4)


def _as_canonical(q: GInt) -> GInt:
    if not q:
        raise DomainError("expected a nonzero Gaussian integer")
    return q if is_canonical(q) else canonical(q)


def mu_i(q: GInt) -> int:
    """Moebius value of the canonical associate of q."""
    q = _as_canonical(q)
    fac = factor(q)
    if any(a > 1 for _, a in fac.factors):
        return 0
    return -1 if len(fac.factors) % 2 else 1


def phi_i(q: GInt) -> int:
    """Unit count of Z[i]/(q), from the factorization of q."""
    q = _as_canonical(q)
    out = 1
    for p, a in factor(q).factors:
        npw = norm(p) ** (a - 1)
        out *= npw * (norm(p) - 1) if a == 1 else npw * norm(p) - npw
    return out


def phi_i_residues(q: GInt) -> int:
    """phi_i by brute force: count residues in a fundamental domain of (q)
    that are coprime to q.  Reference implementation, O(norm(q)) per call."""
    q = _as_canonical(q)
    n = norm(q)
    qc = q.conj()
    bound = q.re + q.im  # |z| <= |q|sqrt(2) box
    count = 0
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            w = GInt(x, y) * qc
            if 0 <= w.re < n and 0 <= w.im < n:
                # z = 0 is handled by gcd(0, q) = q, coprime only for q = 1
                if is_coprime(GInt(x, y), q):
                    count += 1
    return count


def divisors(q: GInt) -> list[GInt]:
    """All canonical divisors of q, sorted by (norm, re, im)."""
    q = _as_canonical(q)
    divs = [ONE]
    for p, a in factor(q).factors:
        pk = ONE
        powers = []
        for _ in range(a):
            pk = pk * p
            powers.append(pk)
        divs = [d * pw for d in divs for pw in [ONE] + powers]
    divs = [canonical(d) for d in divs]
    divs.sort(key=lambda d: (norm(d), d.re, d.im))
    return divs


def mobius_divisor_sum(q: GInt) -> int:
    """sum of mu_i(d) over d | q; equals 1 exactly when q is a unit, else 0."""
    return sum(mu_i(d) for d in divisors(q))


def mobius_inversion_check(f_table: Mapping[GInt, Fraction | int | float], q: GInt) -> bool:
    """Verify Moebius inversion for f on the divisor lattice of q.

    With g(e) := sum_{d | e} mu_i(e/d) f(d), checks f(q) == sum_{e | q} g(e).
    The table must cover every divisor of q.
    """
    q = _as_canonical(q)
    divs = divisors(q)
    missing = [d for d in divs if d not in f_table]
    if missing:
        raise DomainError(f"f_table missing divisors: {missing[:3]}")

    def g(e: GInt) -> Fraction | int | float:
        from .gint import exact_div

        return sum(mu_i(exact_div(e, d)) * f_table[d] for d in divisors(e))

    return sum(g(e) for e in divs) == f_table[q]


def divisor_sum_multiplicative(f: Callable[[GInt], int | float | Fraction], q: GInt):
    """sum_{d | q} f(d) for multiplicative f, computed factor by factor:
    prod_i (f(1) + f(p_i) + ... + f(p_i^a_i))."""
    q = _as_canonical(q)
    result = None
    for p, a in factor(q).factors:
        term = f(ONE)
        pk = ONE
        for _ in range(a):
            pk = pk * p
            term = term + f(canonical(pk))
        result = term if result is None else result * term
    return f(ONE) if result is None else result


def r2(n: int) -> int:
    """Number of ways to write n as an ordered sum of two integer squares.

    Multiplicative formula: zero when some prime p == 3 (mod 4) divides n
    to an odd power, else 4 * prod (e_p + 1) over primes p == 1 (mod 4).
    """
    if n < 0:
        raise DomainError("r2 needs n >= 0")
    if n == 0:
        return 1
    from .gint import _factor_int

    out = 4
    for p, e in _factor_int(n).items():
        if p % 4 == 3:
            if e % 2:
                return 0
        elif p % 4 == 1:
            out *= e + 1
    return out


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


# ---------------------------------------------------------------------------
# canonical lattice cells and the phi/mu sieve
# ---------------------------------------------------------------------------


def canonical_cells(max_norm: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(re, im, norm) int64 arrays of all canonical q with norm(q) <= max_norm,
    sorted by (norm, re, im).  This fixed order is the iteration order of
    every sweep in the package."""
    if max_norm < 1:
        raise DomainError("max_norm must be >= 1")
    R = isqrt(max_norm)
    counts = np.array([isqrt(max_norm - x * x) + 1 for x in range(1, R + 1)], dtype=np.int64)
    rex = np.repeat(np.arange(1, R + 1, dtype=np.int64), counts)
    imy = np.arange(len(rex), dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    nrm = rex * rex + imy * imy
    # generation order is already (re, im)-ascending, so a stable sort on
    # the norm alone yields (norm, re, im) order; the arrays are permuted
    # one at a time, so that one old copy at a time is alive
    order = np.argsort(nrm, kind="stable")
    nrm = nrm[order]
    rex = rex[order]
    return rex, imy[order], nrm


def _rational_prime_pass(max_norm: int):
    """The pass over the rational primes behind the multiplicative tables
    on n = 0..max_norm of :func:`norm_coefficients` and :class:`CanonicalSieve`.

    For each prime p <= isqrt(max_norm) it yields (p, k, exps), k = 0..top
    the exponents of p that occur and exps[j - 1] the one in n = p*j: a
    table whose factor on p^k is local[k] takes it by table[p::p] *=
    local[exps].  What is left of n is 1 or one prime above isqrt(max_norm),
    to the first power; the last item is (0, None, that cofactor per n).
    """
    root = isqrt(max_norm)
    is_prime = np.ones(root + 1, dtype=bool)
    is_prime[:2] = False
    for i in range(2, isqrt(root) + 1):
        if is_prime[i]:
            is_prime[i * i :: i] = False
    small_part = np.ones(max_norm + 1, dtype=np.int32)  # the p-parts for p <= root
    for p in np.flatnonzero(is_prime).tolist():
        exps = np.ones(max_norm // p, dtype=np.intp)
        top, pk = 1, p * p
        while pk <= max_norm:
            exps[pk // p - 1 :: pk // p] += 1
            top, pk = top + 1, pk * p
        k = np.arange(top + 1, dtype=np.int32)
        yield p, k, exps
        small_part[p::p] *= (np.int32(p) ** k)[exps]
    n = np.arange(max_norm + 1, dtype=np.int32)
    yield 0, None, np.floor_divide(n, small_part, out=small_part)


class CanonicalSieve:
    """phi_i and mu_i over the canonical q with norm(q) <= max_norm, as
    arrays aligned with the cells of :func:`canonical_cells`, from
    n = norm(q) and g = gcd(re q, im q):

        phi_i(q) = phi*(n) * prod over p | g, p = 1 (mod 4) of (1 - 1/p),
        mu_i(q)  = mu*(n) * [D(n) divides g],

        phi*(2^k) = 2^(k-1);  phi*(p^k) = p^k - p^(k-2), p = 3 (mod 4);
                              phi*(p^k) = p^k - p^(k-1), p = 1 (mod 4);
        mu*(p) = -1;  mu*(p^2) = -1 for p = 3 (mod 4), +1 for p = 1 (mod 4),
                      0 for p = 2;  mu*(p^k) = 0 for k >= 3;
        D(n) = product of the primes p = 1 (mod 4) with p^2 | n.

    Why, one rational prime p at a time: the p-part of q is (1+i)^k of
    norm 2^k for p = 2, p^j of norm p^2j for an inert p = 3 (mod 4), and
    pi^a conj(pi)^b of norm p^k, k = a + b, for a split p = pi conj(pi)
    = 1 (mod 4).  The first two are fixed by the norm.  For a split p,
    a and b are both >= 1 exactly when p | q, that is p | g; then phi_i of
    the p-part is p^(k-2) (p - 1)^2 = phi*(p^k) (1 - 1/p), and otherwise
    the part is pi^k or conj(pi)^k, with phi_i = phi*(p^k).  mu_i is -1
    at k = 1; at k = 2 it is +1 on pi conj(pi) = p but 0 on pi^2; at
    k >= 3 mu* is 0.  A split p | g has p^2 | n, so p <= isqrt(max_norm)
    and p divides phi*(n): the same pass fills the factors over g.

    The tables over n are int32 and int8, so max_norm must lie in
    [1, 2^31); that is checked before anything is allocated.  This class
    only builds the arrays; readers take them through :func:`get_sieve`,
    which caches one sieve and cuts it to a radius.
    """

    def __init__(self, max_norm: int):
        if not 1 <= max_norm < 2**31:
            raise DomainError("max_norm must be in [1, 2^31): the tables are int32")
        self.max_norm = max_norm
        self.re, self.im, self.norms = canonical_cells(max_norm)
        phi_star = np.ones(max_norm + 1, dtype=np.int32)
        mu_star = np.ones(max_norm + 1, dtype=np.int8)
        split_square = np.ones(max_norm + 1, dtype=np.int32)  # D(n)
        root = isqrt(max_norm)
        split_rad = np.ones(root + 1, dtype=np.int32)  # product of split p | g
        split_phi = np.ones(root + 1, dtype=np.int32)  # ... of p - 1
        for p, k, exps in _rational_prime_pass(max_norm):
            if not p:  # exps is the cofactor: a prime q has phi* = q - 1, mu* = -1
                large = exps > 1
                phi_star[large] *= exps[large] - 1
                mu_star[large] = -mu_star[large]
                break
            pk = np.int32(p) ** k
            phi_pk = pk - pk // (p * p if p % 4 == 3 else p)
            phi_pk[0] = 1
            mu_pk = np.zeros(len(k), dtype=np.int8)
            mu_pk[:3] = (1, -1, 0) if p == 2 else (1, -1, 1 if p % 4 == 1 else -1)
            phi_star[p::p] *= phi_pk[exps]
            mu_star[p::p] *= mu_pk[exps]
            if p % 4 == 1:
                split_square[p * p :: p * p] *= p
                split_rad[p::p] *= p
                split_phi[p::p] *= p - 1
        n = self.norms
        d = split_square[n]
        # a split p | g has p^2 | n, so g matters only where D(n) > 1
        sel = np.flatnonzero(d > 1)
        g = np.gcd(self.re[sel], self.im[sel])
        self.phi = phi_star[n].astype(np.int64)
        self.phi[sel] = self.phi[sel] // split_rad[g] * split_phi[g]
        self.mu = mu_star[n]
        self.mu[sel[g % d[sel] != 0]] = 0


class SieveCells(NamedTuple):
    """phi_i and mu_i on the canonical q with |q| <= radius: views of the
    cached :class:`CanonicalSieve`, in its (norm, re, im) cell order."""

    re: np.ndarray
    im: np.ndarray
    norms: np.ndarray
    phi: np.ndarray
    mu: np.ndarray


_sieve_cache: list[CanonicalSieve] = []


def get_sieve(radius: int) -> SieveCells:
    """The cells with |q| <= radius: the one door to per-cell phi_i and mu_i.

    radius < 1 is refused before the cache is looked at.  One sieve is
    cached, and it is rebuilt to norm radius^2 when that is beyond it.
    """
    if radius < 1:
        raise DomainError(f"radius must be >= 1, got {radius}")
    max_norm = radius * radius
    if not _sieve_cache or _sieve_cache[0].max_norm < max_norm:
        _sieve_cache[:] = [CanonicalSieve(max_norm)]
    sieve = _sieve_cache[0]
    k = int(np.searchsorted(sieve.norms, max_norm, side="right"))
    return SieveCells(sieve.re[:k], sieve.im[:k], sieve.norms[:k], sieve.phi[:k], sieve.mu[:k])


# ---------------------------------------------------------------------------
# truncated zeta values (the oracles of ZETA_I_2) and lattice sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZetaTruncation:
    """Truncated zeta_i(s) and its Moebius-weighted (inverse) companion."""

    s: float
    radius: float
    value: float
    inverse_value: float


def norm_coefficients(max_norm: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) int32 arrays indexed by n = 0..max_norm, the Dirichlet
    coefficients of zeta_i(s) and 1/zeta_i(s):

        a(n) = number of canonical q with norm(q) = n  (= r2(n) / 4),
        b(n) = sum of mu_i(q) over those q;  a(0) = b(0) = 0.

    Both are multiplicative in n, and their values on p^k follow from how
    the rational prime p splits in Z[i]:

        p = 2            one ramified prime of norm 2:   a = 1,     b = 1, -1, 0, ...
        p = 1 (mod 4)    two primes of norm p:           a = k + 1, b = 1, -2, 1, 0, ...
        p = 3 (mod 4)    one inert prime of norm p^2:    a = 1 for even k, else 0;
                                                         b = 1, 0, -1, 0, ...

    The p-parts come from :func:`_rational_prime_pass`, along the strided
    multiples of each p <= sqrt(max_norm); a prime above sqrt(max_norm)
    divides n at most once, and its factor depends only on its residue
    mod 4.
    """
    if not 1 <= max_norm < 2**31:
        raise DomainError("max_norm must be in [1, 2^31): the tables are int32")
    a = np.ones(max_norm + 1, dtype=np.int32)
    b = np.ones(max_norm + 1, dtype=np.int32)
    for p, k, exps in _rational_prime_pass(max_norm):
        if not p:
            # exps is the cofactor, 1 or a prime q > root; its residue class
            # picks the factor: q = 1 (mod 4) splits, 3 (mod 4) is inert
            # (odd exponent, so a = b = 0), and q = 2 occurs only when root < 2
            cls = exps
            cls[cls == 1] = 0
            cls &= 3
            a *= np.array([1, 2, 1, 0], dtype=np.int32)[cls]
            b *= np.array([1, -2, -1, 0], dtype=np.int32)[cls]
            break
        if p == 2:
            a_pk, b_head = np.ones_like(k), (1, -1)
        elif p % 4 == 1:
            a_pk, b_head = k + 1, (1, -2, 1)
        else:
            a_pk, b_head = (k % 2 == 0).astype(np.int32), (1, 0, -1)
        b_pk = np.zeros_like(k)
        b_pk[: len(b_head)] = b_head  # top >= 2, since p^2 <= max_norm
        a[p::p] *= a_pk[exps]
        b[p::p] *= b_pk[exps]
    a[0] = b[0] = 0
    return a, b


def zeta_i_truncated(s: float, radius: float) -> ZetaTruncation:
    """Sum norm(q)^-s and mu_i(q) * norm(q)^-s over canonical |q| <= radius,
    grouped by norm n <= radius^2 through :func:`norm_coefficients`."""
    if s <= 1:
        raise DomainError("need s > 1 for convergence")
    if not 1 <= radius < inf:  # also refuses nan
        raise DomainError(f"zeta radius must be a finite number >= 1, got {radius}")
    a, b = norm_coefficients(int(radius * radius))
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
    """Sum of norm(q)^-s over canonical lo_radius <= |q| <= hi_radius."""
    max_norm = int(hi_radius * hi_radius)
    rex, imy, nrm = canonical_cells(max_norm)
    mask = nrm >= lo_radius * lo_radius
    return float(np.sum(nrm[mask].astype(np.float64) ** (-float(s))))


def sum_r2_weighted(N: int, a: float) -> tuple[float, float]:
    """(sum_{n <= N} n^a r2(n), pi N^(a+1) / (a+1)).

    The exact sum is 4 * sum of norm^a over canonical cells, since every
    unit orbit has size four.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    _, _, nrm = canonical_cells(N)
    fn = nrm.astype(np.float64)
    exact = 4.0 * float(np.sum(fn**a)) if a else 4.0 * len(nrm)
    return exact, pi * float(N) ** (a + 1) / (a + 1)


def sum_phi_upto(Q: int) -> tuple[int, float]:
    """(exact sum of phi_i(q) over canonical |q| <= Q, main term).

    The main term is (pi/8) * zeta_i^{-1}(2) * Q^4.
    """
    exact = int(np.sum(get_sieve(Q).phi))
    return exact, pi / 8 / ZETA_I_2 * Q**4
