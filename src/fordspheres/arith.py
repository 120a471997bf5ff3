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
= (pi^2/6) * Catalan.  Its oracles, oracles.zeta_i_truncated, are the
truncated lattice sums

    zeta_i(s)      ~ sum of norm(q)^-s   over canonical q, |q| <= radius,
    zeta_i^{-1}(s) ~ same sum weighted by mu_i(q),

whose tails die off like radius^(-2(s-1)).  Both summands depend on q only
through its norm, so they are taken per norm n from the Dirichlet
coefficients of :func:`norm_coefficients`: a(n) canonical q of norm n and
b(n) their Moebius sum, from one sieve over the rational primes up to
radius with no per-point table.
"""

from __future__ import annotations

from math import isqrt, pi
from typing import NamedTuple

import numpy as np

from .gint import (
    DomainError,
    GInt,
    ONE,
    canonical,
    factor,
    is_canonical,
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
# the Dirichlet coefficients of zeta_i
# ---------------------------------------------------------------------------


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
