import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from fordspheres import arith, moment
from fordspheres.arith import (
    CanonicalSieve,
    canonical_cells,
    divisor_sum_multiplicative,
    divisors,
    get_sieve,
    mobius_divisor_sum,
    mobius_inversion_check,
    mu_i,
    norm_coefficients,
    phi_i,
    phi_i_residues,
    r2,
    r2_direct,
    sum_phi_upto,
    sum_r2_weighted,
    zeta_i_truncated,
    zeta_tail,
)
from fordspheres.gint import DomainError, GInt, ONE, canonical, is_coprime, norm


def g(re, im=0):
    return GInt(re, im)


def cells_upto(max_norm):
    rex, imy, _ = canonical_cells(max_norm)
    return [g(int(x), int(y)) for x, y in zip(rex, imy)]


class TestMuPhi:
    def test_mu_examples(self):
        assert mu_i(ONE) == 1
        assert mu_i(g(1, 1)) == -1
        assert mu_i(g(2)) == 0
        assert mu_i(g(5)) == 1  # two distinct primes

    def test_phi_examples(self):
        assert phi_i(g(1, 1)) == 1
        assert phi_i(g(2)) == 2
        assert phi_i(g(3)) == 8
        assert phi_i(ONE) == 1

    def test_phi_matches_residue_count_small(self):
        for q in cells_upto(100):
            assert phi_i(q) == phi_i_residues(q), q

    def test_phi_multiplicative(self):
        rng = Random(77)
        cells = cells_upto(90)
        done = 0
        while done < 200:
            q, r = rng.choice(cells), rng.choice(cells)
            if not is_coprime(q, r):
                continue
            done += 1
            assert phi_i(canonical(q * r)) == phi_i(q) * phi_i(r)


class TestDivisors:
    def test_examples(self):
        assert divisors(ONE) == [ONE]
        assert divisors(g(2)) == [ONE, g(1, 1), g(2)]
        assert divisors(g(5)) == [ONE, g(1, 2), g(2, 1), g(5)]

    def test_count_formula(self):
        from fordspheres.gint import factor

        for q in cells_upto(300):
            expect = 1
            for _, a in factor(q).factors:
                expect *= a + 1
            assert len(divisors(q)) == expect

    def test_mobius_divisor_sum(self):
        assert mobius_divisor_sum(ONE) == 1
        assert mobius_divisor_sum(g(1, 1)) == 0
        assert mobius_divisor_sum(g(10)) == 0
        for q in cells_upto(200):
            assert mobius_divisor_sum(q) == (1 if q == ONE else 0)

    def test_phi_divisor_sum_small(self):
        for q in cells_upto(400):
            assert sum(phi_i(d) for d in divisors(q)) == norm(q)

    def test_phi_mobius_rational_identity_small(self):
        for q in cells_upto(400):
            acc = sum(Fraction(mu_i(d), norm(d)) for d in divisors(q))
            assert Fraction(norm(q)) * acc == phi_i(q)


class TestMobiusInversion:
    def test_norm_table_recovers_phi(self):
        q = g(2)
        table = {d: norm(d) for d in divisors(q)}
        assert mobius_inversion_check(table, q)

    def test_constant_table(self):
        for q in (ONE, g(1, 1), g(10), g(4, 1)):
            table = {d: 1 for d in divisors(q)}
            assert mobius_inversion_check(table, q)

    def test_phi_table_instance(self):
        q = g(5)
        table = {d: phi_i(d) for d in divisors(q)}
        assert mobius_inversion_check(table, q)
        assert sum(table.values()) == norm(q)

    def test_missing_divisor_errors(self):
        with pytest.raises(DomainError):
            mobius_inversion_check({ONE: 1}, g(2))


class TestDivisorSumMultiplicative:
    def test_mu_matches_direct(self):
        assert divisor_sum_multiplicative(mu_i, g(10)) == 0
        assert divisor_sum_multiplicative(mu_i, g(10)) == mobius_divisor_sum(g(10))

    def test_phi_gives_norm(self):
        assert divisor_sum_multiplicative(phi_i, g(5)) == 25

    def test_constant_counts_divisors(self):
        assert divisor_sum_multiplicative(lambda d: 1, g(2)) == 3

    def test_agrees_with_enumeration(self):
        for q in cells_upto(150):
            assert divisor_sum_multiplicative(phi_i, q) == sum(
                phi_i(d) for d in divisors(q)
            )


class TestR2:
    def test_examples(self):
        assert r2(1) == 4
        assert r2(3) == 0
        assert r2(25) == 12
        assert r2(0) == 1

    def test_formula_vs_scan(self):
        for n in range(0, 600):
            assert r2(n) == r2_direct(n), n

    def test_weighted_sum_base(self):
        exact, main = sum_r2_weighted(1, 0.0)
        assert exact == 4.0
        assert main == pytest.approx(math.pi)

    def test_weighted_sum_large(self):
        exact, main = sum_r2_weighted(10**6, 0.0)
        assert abs(exact / main - 1.0) < 0.002
        exact1, main1 = sum_r2_weighted(10**4, 1.0)
        assert abs(exact1 / main1 - 1.0) < 0.02


class TestSieve:
    def test_matches_scalar_route(self):
        # 1..3 sieve no prime, 4 and 5 sieve 2 first, 9 is the inert square
        # N(3), and at norm 25 mu_i is +1 on 5 but 0 on 3+4i and 4+3i
        for max_norm in (1, 2, 3, 4, 5, 9, 25, 3000):
            sieve = CanonicalSieve(max_norm)
            cells = cells_upto(max_norm)
            assert sieve.mu.tolist() == [mu_i(q) for q in cells], max_norm
            assert sieve.phi.tolist() == [phi_i(q) for q in cells], max_norm

    def test_arrays_pinned(self):
        # SHA-256 of the re, im, norms, phi and mu bytes, as the Gaussian-prime
        # sieve built them
        sieve = CanonicalSieve(512**2)
        digest = hashlib.sha256()
        for arr, dtype in zip(
            (sieve.re, sieve.im, sieve.norms, sieve.phi, sieve.mu),
            (np.int64, np.int64, np.int64, np.int64, np.int8),
        ):
            assert arr.dtype == dtype
            digest.update(arr.tobytes())
        assert digest.hexdigest() == "ddd5e1438d20a028e6c0e0a08407c346757cbc6048bc6130c43c8fd09b566a3c"

    def test_domain(self):
        # int32 tables: refused before anything is allocated
        for bad in (0, 2**31):
            with pytest.raises(DomainError):
                CanonicalSieve(bad)

    def test_cell_order_is_sorted(self):
        # (norm, re, im) ascending: the door's cells whatever is cached, and
        # a fresh build; lexsort takes its primary key last
        for sieve in (get_sieve(22), CanonicalSieve(500)):
            order = np.lexsort((sieve.im, sieve.re, sieve.norms))
            assert np.array_equal(order, np.arange(len(sieve.norms)))

    def test_door_cuts_to_the_radius(self):
        get_sieve(40)  # cache a larger sieve first
        cells = get_sieve(22)
        rex, imy, nrm = canonical_cells(22 * 22)
        assert np.array_equal(cells.re, rex) and np.array_equal(cells.im, imy)
        assert np.array_equal(cells.norms, nrm)
        assert len(cells.phi) == len(cells.mu) == len(nrm)

    # a radius or S below 1, refused by the door whatever sieve is cached
    DOOR_REFUSALS = (
        "arith.get_sieve(0)",
        "moment.sum_phi_over_norm2(0)",
        "moment.sum_phi_over_norm4(-3)",
        "moment.sum_A(0)",
        "arith.sum_phi_upto(0)",
    )

    @pytest.mark.parametrize("call", DOOR_REFUSALS)
    def test_door_domain_with_a_sieve_cached(self, call):
        get_sieve(64)
        with pytest.raises(DomainError):
            eval(call, {"arith": arith, "moment": moment})

    def test_door_domain_in_a_fresh_process(self):
        code = "from fordspheres import arith, moment\nfrom fordspheres.gint import DomainError\n" + "".join(
            f"try:\n    {call}\n    print('accepted')\nexcept DomainError:\n    print('refused')\n"
            for call in self.DOOR_REFUSALS
        )
        src = os.path.dirname(os.path.dirname(arith.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert run.stdout.split() == ["refused"] * len(self.DOOR_REFUSALS)


class TestNormCoefficients:
    def test_counts_are_quarter_r2(self):
        a, _ = norm_coefficients(2000)
        assert a[0] == 0
        assert [int(x) for x in a[1:]] == [r2(n) // 4 for n in range(1, 2001)]

    # for X <= 3 no prime is sieved, so 2 and 3 take the large-prime pass;
    # X = 4 and 5 are the first with 2 among the sieved primes
    @pytest.mark.parametrize("X", [1, 2, 3, 4, 5, 10, 100, 3000, 10**5])
    def test_match_per_norm_bins_of_the_sieve(self, X):
        a, b = norm_coefficients(X)
        sieve = CanonicalSieve(X)
        assert len(a) == len(b) == X + 1
        assert np.array_equal(a, np.bincount(sieve.norms, minlength=X + 1))
        assert np.array_equal(b, np.bincount(sieve.norms, weights=sieve.mu, minlength=X + 1))

    def test_domain(self):
        # int32 tables: refused before anything is allocated
        for bad in (0, 2**31):
            with pytest.raises(DomainError):
                norm_coefficients(bad)


class TestZeta:
    def test_values_pinned(self):
        # the per-cell sum over the sieve gave these; summing per norm only
        # reorders the float additions
        zt = zeta_i_truncated(2, 2000)
        assert zt.value == pytest.approx(1.5067028135730431, rel=1e-15)
        assert zt.inverse_value == pytest.approx(0.6637008046406636, rel=1e-15)

    def test_radius_one_is_unit_term(self):
        zt = zeta_i_truncated(2, 1)
        assert zt.value == 1.0
        assert zt.inverse_value == 1.0

    def test_converges_to_classical_product(self):
        # zeta(2) times the alternating L-series value at 2 (Catalan)
        zt = zeta_i_truncated(2, 2000)
        assert zt.value == pytest.approx(arith.ZETA_I_2, abs=1e-5)

    def test_catalan_literal_is_the_double_nearest_catalan(self):
        import mpmath

        assert arith.CATALAN.hex() == float(mpmath.catalan).hex()
        assert arith.ZETA_I_2 == math.pi**2 / 6 * arith.CATALAN

    def test_product_tends_to_one(self):
        gaps = []
        for radius in (10, 40, 160):
            zt = zeta_i_truncated(2, radius)
            gap = abs(zt.value * zt.inverse_value - 1.0)
            assert gap <= 20.0 / radius**2
            gaps.append(gap)
        assert gaps[-1] < gaps[0]

    def test_domain(self):
        with pytest.raises(DomainError):
            zeta_i_truncated(1.0, 10)
        for radius in (0.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                zeta_i_truncated(2.0, radius)

    def test_tail_bound_shape(self):
        vals = [Q * Q * zeta_tail(2.0, Q, 4 * Q) for Q in (8, 16, 32, 64)]
        assert max(vals) <= 10.0
        assert vals[-1] <= vals[0] * 1.1


class TestSumPhi:
    def test_base_cases(self):
        assert sum_phi_upto(1)[0] == 1
        # canonical values with modulus <= 2 are 1, 1+i and 2
        assert sum_phi_upto(2)[0] == 1 + 1 + 2

    def test_matches_direct_scan(self):
        for Q in (3, 5, 8):
            exact, _ = sum_phi_upto(Q)
            direct = sum(phi_i(q) for q in cells_upto(Q * Q))
            assert exact == direct

    def test_main_term_at_512(self):
        exact, main = sum_phi_upto(512)
        assert abs(exact / main - 1.0) < 0.02
