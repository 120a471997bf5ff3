import math
from random import Random

import pytest

from fordspheres.gint import (
    DomainError,
    Factorization,
    GInt,
    I,
    ONE,
    ParseError,
    UNITS,
    ZERO,
    canonical,
    canonicalize,
    div_rem,
    divides,
    exact_div,
    factor,
    format_gint,
    gcd,
    is_canonical,
    is_coprime,
    norm,
    parse_gint,
    primes_above,
    two_squares_prime,
    _factor_int,
    xgcd,
)


def g(re, im=0):
    return GInt(re, im)


class TestCanonicalize:
    def test_already_canonical(self):
        assert canonicalize(ONE) == (ONE, ONE)

    def test_minus_three_i(self):
        unit, can = canonicalize(g(0, -3))
        assert (unit, can) == (g(0, -1), g(3, 0))
        assert unit * can == g(0, -3)

    def test_minus_one_plus_i(self):
        unit, can = canonicalize(g(-1, 1))
        assert (unit, can) == (I, g(1, 1))
        assert unit * can == g(-1, 1)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            canonicalize(ZERO)

    def test_orbit_bijection(self):
        # each unit orbit has exactly one canonical member, and every orbit
        # element canonicalizes to it; exhaustive over norms <= 10^4
        from fordspheres.arith import canonical_cells

        rex, imy, _ = canonical_cells(10_000)
        for x, y in zip(rex, imy):
            q = g(int(x), int(y))
            orbit = [u * q for u in UNITS]
            assert {canonical(z) for z in orbit} == {q}
            assert [z for z in orbit if is_canonical(z)] == [q]


class TestNormAndDivision:
    def test_norm_values(self):
        assert norm(ZERO) == 0
        assert norm(g(1, 1)) == 2
        assert norm(g(3, 2)) == 13

    def test_norm_is_exact_for_huge_values(self):
        big = g(10**30, -(10**31))
        assert norm(big) == 10**60 + 10**62

    def test_exact_quotient(self):
        assert div_rem(g(2), g(1, 1)) == ((g(1, -1)), ZERO)

    def test_half_tie_rounds_to_even(self):
        quot, rem = div_rem(g(5), g(2))
        assert (quot, rem) == (g(2), g(1))
        assert norm(rem) * 2 <= norm(g(2))

    def test_unit_denominator(self):
        for q in (g(7, -3), g(0, 5), ONE):
            assert div_rem(q, ONE) == (q, ZERO)

    def test_zero_divisor(self):
        with pytest.raises(DomainError):
            div_rem(ONE, ZERO)

    def test_remainder_contract_random(self):
        rng = Random(2024)
        for _ in range(100_000):
            a = g(rng.randint(-999, 999), rng.randint(-999, 999))
            b = g(rng.randint(-99, 99), rng.randint(-99, 99))
            if not b:
                continue
            quot, rem = div_rem(a, b)
            assert quot * b + rem == a
            assert 2 * norm(rem) <= norm(b)


def _common_divisors_bruteforce(a, b):
    out = []
    bound = min(norm(a), norm(b))
    r = math.isqrt(bound)
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            d = GInt(x, y)
            if d and norm(d) <= bound and divides(d, a) and divides(d, b):
                out.append(d)
    return out


class TestGcd:
    def test_examples(self):
        assert gcd(g(1, 1), g(2)) == g(1, 1)
        assert gcd(g(3), g(5)) == ONE
        assert gcd(g(-7, 3), ZERO) == canonical(g(-7, 3))

    def test_both_zero(self):
        with pytest.raises(DomainError):
            gcd(ZERO, ZERO)

    def test_coprime_examples(self):
        assert is_coprime(ONE, g(1, 1))
        assert not is_coprime(g(2), g(1, 1))
        assert is_coprime(g(2, 1), g(2, -1))

    def test_against_bruteforce_divisor_scan(self):
        rng = Random(5)
        for _ in range(40):
            a = g(rng.randint(-9, 9), rng.randint(-9, 9))
            b = g(rng.randint(-9, 9), rng.randint(-9, 9))
            if not a or not b:
                continue
            d = gcd(a, b)
            assert divides(d, a) and divides(d, b)
            for c in _common_divisors_bruteforce(a, b):
                assert divides(c, d)

    def test_xgcd_identity(self):
        rng = Random(6)
        for _ in range(200):
            a = g(rng.randint(-50, 50), rng.randint(-50, 50))
            b = g(rng.randint(-50, 50), rng.randint(-50, 50))
            if not a and not b:
                continue
            gg, x, y = xgcd(a, b)
            assert a * x + b * y == gg
            if a and b:
                assert canonical(gg) == gcd(a, b)


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _assert_contract(f):
    """Factorization's promises beyond value(): positive exponents and
    canonical primes, pairwise distinct, sorted by (norm, re, im), each of
    norm 2, a prime p = 1 mod 4, or p^2 for a prime p = 3 mod 4."""
    primes = [p for p, _ in f.factors]
    assert all(a >= 1 for _, a in f.factors)
    assert all(is_canonical(p) for p in primes)
    assert len(set(primes)) == len(primes)
    keys = [(norm(p), p.re, p.im) for p in primes]
    assert keys == sorted(keys)
    for p in primes:
        n, r = norm(p), math.isqrt(norm(p))
        assert n == 2 or (n % 4 == 1 and _is_prime(n)) or (r * r == n and r % 4 == 3 and _is_prime(r)), p


def _trial_divisors(m):
    """(norm, re, im) of the canonical Gaussian integers of norm 2 ... m, sorted."""
    r = math.isqrt(m)
    return sorted((x * x + y * y, x, y) for x in range(1, r + 1) for y in range(r + 1) if 2 <= x * x + y * y <= m)


def _factor_by_trial_division(q, trial):
    """factor(q) by trial division of q by the canonical Gaussian integers
    of trial (_trial_divisors of at least isqrt(norm(q))) in (norm, re, im)
    order, with Euclidean division: each divisor found first is prime, as
    its own divisors of smaller norm are already divided out, and once
    norm(d)^2 exceeds what is left, that is a unit or a prime."""
    rest, factors = q, []
    for n, x, y in trial:
        if n * n > norm(rest):
            break
        d, k = GInt(x, y), 0
        while divides(d, rest):
            rest, k = exact_div(rest, d), k + 1
        if k:
            factors.append((d, k))
    if norm(rest) > 1:
        unit, p = canonicalize(rest)
        factors.append((p, 1))
    else:
        unit = rest
    return Factorization(unit, tuple(factors))


class TestFactor:
    def test_factor_two(self):
        f = factor(g(2))
        assert f.unit == g(0, -1)
        assert f.factors == ((g(1, 1), 2),)
        assert f.value() == g(2)

    def test_factor_five(self):
        f = factor(g(5))
        assert f.factors == ((g(1, 2), 1), (g(2, 1), 1))
        assert f.value() == g(5)

    def test_canonical_prime_is_its_own_factorization(self):
        for p in (g(1, 1), g(2, 1), g(3), g(7), g(4, 1)):
            f = factor(p)
            assert f.unit == ONE
            assert f.factors == ((p, 1),)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            factor(ZERO)

    def test_reconstruction_all_small_norms(self):
        # every canonical value of norm <= 10^4, and a unit-rotated sample
        from fordspheres.arith import canonical_cells

        rex, imy, _ = canonical_cells(10_000)
        rng = Random(9)
        for x, y in zip(rex, imy):
            q = g(int(x), int(y))
            f = factor(q)
            assert f.value() == q
            _assert_contract(f)
            if rng.random() < 0.02:
                u = UNITS[rng.randrange(4)]
                fu = factor(u * q)
                assert fu.value() == u * q
                assert fu.factors == f.factors
                _assert_contract(fu)

    def test_equals_trial_division(self):
        # every q of norm <= 500, all four quadrants, and 300 seeded q
        qs = [g(x, y) for x in range(-22, 23) for y in range(-22, 23) if 0 < x * x + y * y <= 500]
        rng = Random(28)
        qs += [g(rng.randint(-1000, 1000), rng.randint(-1000, 1000)) for _ in range(300)]
        trial = _trial_divisors(math.isqrt(2 * 1000**2))
        for q in qs:
            if q:
                assert factor(q) == _factor_by_trial_division(q, trial), q

    def test_two_squares_large_prime(self):
        # every prime p = 1 (mod 4) below 10^5, and one above 10^6
        primes = [p for p in range(5, 10**5, 4) if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]
        for p in primes + [1_000_033]:
            a, b = two_squares_prime(p)
            assert a * a + b * b == p, p


class TestPrimeLift:
    def test_lift_equals_the_primes_of_factor(self):
        # every rational prime p <= 10^4, so every Gaussian prime of norm
        # <= 10^4: the lifts are the canonical primes factor finds in p,
        # each of its norm and each its own factorization
        for p in range(2, 10**4 + 1):
            if any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
                continue
            lifts = primes_above(p)
            assert [g(c, d) for c, d, _ in sorted(lifts, key=lambda t: t[:2])] == [q for q, _ in factor(g(p)).factors], p
            for c, d, n in lifts:
                assert n == c * c + d * d == (p if p % 4 == 1 else p * p if p % 4 == 3 else 2), p
                assert factor(g(c, d)) == Factorization(ONE, ((g(c, d), 1),)), p

    def test_factor_int_refuses_n_below_one(self):
        # 0 would never leave the loop over the factor 2
        assert _factor_int(1) == {}
        assert _factor_int(360) == {2: 3, 3: 2, 5: 1}
        for n in (0, -1, -12):
            with pytest.raises(DomainError):
                _factor_int(n)


class TestTextGrammar:
    def test_format_examples(self):
        assert format_gint(g(3, 2)) == "3+2i"
        assert format_gint(g(-1, 0)) == "-1"
        assert format_gint(g(0, 1)) == "i"
        assert format_gint(g(0, -1)) == "-i"
        assert format_gint(g(3, -2)) == "3-2i"
        assert format_gint(ZERO) == "0"
        assert format_gint(g(2, 1)) == "2+i"

    def test_parse_examples(self):
        assert parse_gint("3+2i") == g(3, 2)
        assert parse_gint("-17") == g(-17)
        assert parse_gint("i") == I
        assert parse_gint("-i") == g(0, -1)
        assert parse_gint("4i") == g(0, 4)
        assert parse_gint("1-3i") == g(1, -3)
        assert parse_gint(" 2+i ") == g(2, 1)

    def test_roundtrip(self):
        rng = Random(3)
        for _ in range(300):
            q = g(rng.randint(-999, 999), rng.randint(-999, 999))
            assert parse_gint(format_gint(q)) == q

    def test_rejects_garbage(self):
        for text in ("", "1+", "i2", "++i", "abc", "2+3j", "1 + 2"):
            with pytest.raises(ParseError):
                parse_gint(text)
