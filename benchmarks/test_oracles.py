"""Tests of the benchmark's own checks.

    python3 -m pytest benchmarks/test_oracles.py -q

The oracles must reproduce values known exactly, agree with a point-by-point
scan written from the definitions, and each check must report a program
output that is off by one lattice point or one fraction pair.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import oracles
import run


def scan(s, S, coprime):
    """Point-by-point count over the whole disc, scalar arithmetic."""
    count = 0
    for x in range(-S, S + 1):
        for y in range(-S, S + 1):
            if x * x + y * y > S * S or not oracles.escapes(s, (x, y), S):
                continue
            if coprime and oracles.ideal_index(s, (x, y)) != 1:
                continue
            count += 1
    return count


@pytest.mark.parametrize("S, value", [(1, 4), (2, 8), (3, Fraction(1016, 45)), (4, Fraction(27067, 780))])
def test_direct_oracle_small_values(S, value):
    assert oracles.direct_moment(S)[0] == value


@pytest.mark.parametrize("S, value", [(1, 8), (2, 22)])
def test_counting_oracle_small_values(S, value):
    assert oracles.counting_moment(S)[0] == value


@pytest.mark.parametrize("s, S", [((1, 0), 1), ((1, 1), 3), ((2, 1), 5), ((3, 0), 7), ((4, 3), 9), ((6, 6), 12)])
def test_region_oracles_match_point_scan(s, S):
    assert oracles.region_count_rows(s, S) == scan(s, S, coprime=False)
    assert oracles.partner_count(s, S) == scan(s, S, coprime=True)


def test_ideal_index_is_gaussian_gcd_norm():
    # (1+i) divides 2 and 1+3i = (1+i)(2+i); 3 is a Gaussian prime
    assert oracles.ideal_index((1, 1), (2, 0)) == 2
    assert oracles.ideal_index((2, 1), (1, 3)) == 5
    assert oracles.ideal_index((3, 0), (6, 3)) == 9
    assert oracles.ideal_index((3, 0), (2, 1)) == 1


@pytest.mark.parametrize("S", [2, 8, 32, 64])
def test_counting_check_catches_one_lattice_point(S):
    exact, _ = oracles.counting_moment(S)
    assert oracles.check_moment("counting", S, float(exact), exact) is None
    # the smallest step one point can make: a partner of some s with |s| = S
    off = exact + Fraction(2, S * S)
    assert oracles.check_moment("counting", S, float(off), exact) is not None


@pytest.mark.parametrize("S", [4, 12])
def test_direct_check_catches_one_fraction_pair(S):
    exact, _ = oracles.direct_moment(S)
    assert oracles.check_moment("direct", S, float(exact), exact) is None
    # the smallest radius sum a pair can carry: both denominators of modulus S
    off = exact - Fraction(1, S * S)
    assert oracles.check_moment("direct", S, float(off), exact) is not None


def test_region_check_catches_one_lattice_point():
    s, S = (5, 2), 40
    plain, coprime = oracles.region_count_rows(s, S), oracles.partner_count(s, S)
    assert oracles.check_region(s, S, plain, coprime, plain, coprime) is None
    for bad_plain, bad_coprime in [(plain + 1, coprime), (plain - 1, coprime), (plain, coprime + 1),
                                   (plain, coprime - 4), (coprime - 1, coprime)]:
        assert oracles.check_region(s, S, bad_plain, bad_coprime, plain, coprime) is not None


def test_region_specs_order_follows_the_seed():
    a, b, c = run.RegionSpecs(7), run.RegionSpecs(7), run.RegionSpecs(8)
    # the seed sets the order of the same specs; the top cases run last
    assert a.cases == b.cases != c.cases
    assert sorted(a.cases) == sorted(c.cases)
    assert a.cases[a.top:] == c.cases[c.top:] and a.cases[-1] == run.REGION_TOP_SPEC
    levels = [S for _, S in a.cases]
    assert len(set(levels)) == len(levels) == run.REGION_SPECS
    lo, hi = run.REGION_S_RANGE
    assert all(lo <= S <= hi and x >= 1 and y >= 0 and x * x + y * y <= S * S for (x, y), S in a.cases)
    top = sorted(levels)[-run.REGION_TOP_SPECS:]
    assert [S for _, S in a.cases[a.top:]] == top and max(levels) == 512
