"""Exact Gaussian integer arithmetic.

Everything in this module works on plain Python integers, so all results
are exact at any size; there is no wraparound to guard against.  The
canonical representative of a nonzero Gaussian integer is the unique
associate q * i^k with re >= 1 and im >= 0 (first quadrant, real axis
included, imaginary axis excluded), and functions that promise canonical
output always return that representative.

Division is Euclidean with nearest-integer rounding of each component of
a/b, which guarantees norm(remainder) <= norm(b) / 2.  Component ties
(exact halves) round to even so that results are reproducible.
"""

from __future__ import annotations

import functools
import re as _regex
from dataclasses import dataclass
from math import isqrt


class DomainError(ValueError):
    """Argument outside an operation's domain (zero where nonzero needed, etc.)."""


class ParseError(ValueError):
    """Text that does not match the a+bi grammar."""


@dataclass(frozen=True, slots=True)
class GInt:
    """A Gaussian integer re + im*i with exact integer components."""

    re: int
    im: int

    def __add__(self, other: "GInt") -> "GInt":
        return GInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GInt") -> "GInt":
        return GInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GInt") -> "GInt":
        return GInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GInt":
        return GInt(-self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def conj(self) -> "GInt":
        return GInt(self.re, -self.im)

    def __str__(self) -> str:
        return format_gint(self)


ZERO = GInt(0, 0)
ONE = GInt(1, 0)
I = GInt(0, 1)
UNITS = (ONE, I, GInt(-1, 0), GInt(0, -1))


def norm(q: GInt) -> int:
    """re^2 + im^2, exactly."""
    return q.re * q.re + q.im * q.im


def is_canonical(q: GInt) -> bool:
    """True for the first-quadrant associate: re >= 1, im >= 0."""
    return q.re >= 1 and q.im >= 0


def canonicalize(q: GInt) -> tuple[GInt, GInt]:
    """Split nonzero q as (unit, canonical) with unit * canonical == q."""
    if not q:
        raise DomainError("cannot canonicalize 0")
    x, y = q.re, q.im
    k = 0
    while not (x > 0 and y >= 0):
        x, y = y, -x  # multiply by -i
        k += 1
    # canonical == q * (-i)^k, so q == canonical * i^k, k <= 3
    return UNITS[k], GInt(x, y)


def canonical(q: GInt) -> GInt:
    """The canonical associate of nonzero q."""
    return canonicalize(q)[1]


def _round_half_even(p: int, q: int) -> int:
    """Nearest integer to p/q for q > 0, ties to even."""
    f, r = divmod(p, q)
    if 2 * r > q or (2 * r == q and f % 2 == 1):
        f += 1
    return f


def div_rem(a: GInt, b: GInt) -> tuple[GInt, GInt]:
    """Euclidean division: a == quot*b + rem with norm(rem) <= norm(b)/2.

    The quotient is a/b rounded componentwise to the nearest Gaussian
    integer, component ties to even.
    """
    if not b:
        raise DomainError("division by zero")
    nb = norm(b)
    num = a * b.conj()
    quot = GInt(_round_half_even(num.re, nb), _round_half_even(num.im, nb))
    return quot, a - quot * b


def divides(d: GInt, a: GInt) -> bool:
    """True when d divides a exactly (d nonzero)."""
    return not div_rem(a, d)[1]


def exact_div(a: GInt, d: GInt) -> GInt:
    """a / d when d divides a exactly."""
    quot, rem = div_rem(a, d)
    if rem:
        raise DomainError(f"{d} does not divide {a}")
    return quot


def gcd(a: GInt, b: GInt) -> GInt:
    """Canonical greatest common divisor via Euclidean iteration."""
    if not a and not b:
        raise DomainError("gcd(0, 0) is undefined")
    while b:
        a, b = b, div_rem(a, b)[1]
    return canonical(a)


def is_coprime(a: GInt, b: GInt) -> bool:
    return gcd(a, b) == ONE


def xgcd(a: GInt, b: GInt) -> tuple[GInt, GInt, GInt]:
    """(g, x, y) with a*x + b*y == g, g a gcd of a and b (not canonicalized)."""
    x0, y0 = ONE, ZERO
    x1, y1 = ZERO, ONE
    while b:
        q, r = div_rem(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


@dataclass(frozen=True)
class Factorization:
    """unit * prod(p_i^a_i) with canonical, pairwise distinct Gaussian primes."""

    unit: GInt
    factors: tuple[tuple[GInt, int], ...]

    def value(self) -> GInt:
        v = self.unit
        for p, a in self.factors:
            for _ in range(a):
                v = v * p
        return v


def _factor_int(n: int) -> dict[int, int]:
    """Trial-division factorization of n >= 1."""
    if n < 1:
        raise DomainError(f"cannot factor {n}: need n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 5
    while p * p <= n:
        for q in (p, p + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        p += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _sqrt_minus_one_mod(p: int) -> int:
    """x with x^2 == -1 (mod p), for prime p == 1 (mod 4)."""
    for z in range(2, p):
        if pow(z, (p - 1) // 2, p) == p - 1:
            return pow(z, (p - 1) // 4, p)
    raise ArithmeticError(f"no quadratic non-residue found mod {p}")


@functools.cache
def two_squares_prime(p: int) -> tuple[int, int]:
    """(a, b) with a^2 + b^2 == p for prime p == 1 (mod 4) or p == 2.

    Cornacchia's descent: Euclid's algorithm on p and a square root of
    -1 mod p stops at the first remainder b below sqrt(p), and then
    p - b^2 is a square.  Cached: factor lifts the same few primes for
    every q whose norm they divide, and the search for a non-residue
    mod p is the cost.
    """
    if p == 2:
        return 1, 1
    if p % 4 != 1:
        raise DomainError(f"{p} is not a sum of two squares")
    a, b = p, _sqrt_minus_one_mod(p)
    while b * b > p:
        a, b = b, a % b
    c = isqrt(p - b * b)
    return b, c


def primes_above(p: int) -> tuple[tuple[int, int, int], ...]:
    """The canonical Gaussian primes above the rational prime p, as int
    triples (c, d, norm): (1, 1, 2) above 2, (p, 0, p^2) for p == 3 mod 4
    (inert), and (a, b, p) and (b, a, p), the canonical associates of
    a + bi and a - bi, for p == 1 mod 4 with a^2 + b^2 == p.  The prime
    c + di divides x + yi exactly when both parts of (x + yi)(c - di) are
    multiples of norm, and the quotient is that product / norm."""
    if p == 2:
        return ((1, 1, 2),)
    if p % 4 == 3:
        return ((p, 0, p * p),)
    a, b = two_squares_prime(p)
    return ((a, b, p), (b, a, p))


def factor(q: GInt) -> Factorization:
    """Factor nonzero q into a unit times canonical Gaussian prime powers.

    Strategy: rotate q to its canonical associate x + yi, factor its norm
    over the rational integers, and lift each rational prime to the
    canonical Gaussian primes above it (primes_above).  Exponents are read
    off by exact division in plain integers; GInt objects are made only
    for the sorted result, primes ordered by (norm, re, im).
    """
    if not q:
        raise DomainError("cannot factor 0")
    unit0, rem = canonicalize(q)
    x, y = rem.re, rem.im
    found = []  # (norm, c, d, exponent) of each prime c + di dividing q
    for p in _factor_int(x * x + y * y):
        for c, d, n in primes_above(p):
            k = 0
            while True:
                u, v = x * c + y * d, y * c - x * d
                if u % n or v % n:
                    break
                x, y = u // n, v // n
                k += 1
            if k:
                found.append((n, c, d, k))
    if x * x + y * y != 1:
        raise ArithmeticError(f"incomplete factorization of {q}")
    found.sort()  # (norm, re, im) of distinct primes: the exponent never decides
    return Factorization(unit0 * GInt(x, y), tuple((GInt(c, d), k) for _, c, d, k in found))


# --- text grammar: 'a+bi' / 'a-bi', bare integers, 'i', '-i', '3i', ... ---

_GINT_RE = _regex.compile(
    r"^\s*(?:"
    r"(?P<im_only>[+-]?\d*)i"
    r"|(?P<re_part>[+-]?\d+)\s*(?P<im_part>[+-]\d*)i"
    r"|(?P<re_only>[+-]?\d+)"
    r")\s*$"
)


def format_gint(q: GInt) -> str:
    """Render q in the a+bi grammar, dropping zero parts (-1+0i prints as -1)."""
    re_, im_ = q.re, q.im
    if im_ == 0:
        return str(re_)
    if im_ == 1:
        im_str = "i"
    elif im_ == -1:
        im_str = "-i"
    else:
        im_str = f"{im_}i"
    if re_ == 0:
        return im_str
    sign = "+" if im_ > 0 else ""
    return f"{re_}{sign}{im_str}"


def _imag_digits(text: str) -> int:
    if text in ("", "+"):
        return 1
    if text == "-":
        return -1
    return int(text)


def parse_gint(text: str) -> GInt:
    """Parse the a+bi grammar; accepts bare integers and i, -i, 2i, 1-3i, ..."""
    m = _GINT_RE.match(text)
    if not m:
        raise ParseError(f"not a Gaussian integer literal: {text!r}")
    if m.group("re_only") is not None:
        return GInt(int(m.group("re_only")), 0)
    if m.group("im_only") is not None:
        return GInt(0, _imag_digits(m.group("im_only")))
    return GInt(int(m.group("re_part")), _imag_digits(m.group("im_part")))
