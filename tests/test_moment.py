import dataclasses
import math
import time
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fordspheres import arith, farey, moment, oracles, region, verify
from fordspheres.gint import DomainError, GInt
from test_farey import consecutive_finds


_SUM_B = moment.sum_B


def g(re, im=0):
    return GInt(re, im)


def cold(monkeypatch):
    """Empty the table of farey._finds for this test, so that the next
    direct_total builds it from nothing."""
    monkeypatch.setattr(farey, "_finds_cache", [])


class TestConstant:
    def test_value(self):
        assert moment.constant_C() == pytest.approx(0.686440070037642, abs=1e-10)

    def test_above_one_half(self):
        assert moment.constant_C() > 0.5

    def test_schemes_agree(self):
        # the series against two independent quadratures
        c = moment.constant_C()
        assert oracles.constant_C_quad() == pytest.approx(c, abs=1e-12)
        assert oracles.constant_C_tanh_sinh() == pytest.approx(c, abs=1e-12)

    def test_series_has_converged(self):
        # terms shrink like 2^-k: 40, 60 and 80 of them give the same float
        assert moment.constant_C(40) == moment.constant_C(60) == moment.constant_C(80)
        assert moment.constant_C(10) != moment.constant_C(60)


class TestBundle:
    def test_invariants(self):
        b = moment.constants_bundle()
        assert b.C > 0.5
        assert b.main_coeff > 0
        assert b.main_coeff == pytest.approx(
            math.pi * b.zeta_i_inv_2 * (8 * b.C - 1), rel=1e-15
        )
        assert b.z1 == pytest.approx(math.pi / 8 * b.zeta_i_inv_2, rel=1e-15)
        assert b.main_coeff == pytest.approx(9.3652, abs=2e-4)

    def test_needs_no_lattice_sum(self, monkeypatch):
        # zeta_i(2) is a closed form; the sieve and the norm coefficients
        # stay oracles, so the bundle builds with both refusing to run
        def refuse(*args, **kwargs):
            raise AssertionError("the constants bundle touched a lattice table")

        monkeypatch.setattr(arith, "norm_coefficients", refuse)
        monkeypatch.setattr(arith, "get_sieve", refuse)
        moment.constants_bundle.cache_clear()
        b = moment.constants_bundle()
        assert b.zeta_i_2 == arith.ZETA_I_2
        assert b.zeta_i_inv_2 == 1.0 / arith.ZETA_I_2

    def test_z2_estimate_is_the_checked_fit(self):
        # the bundle and verify's slope check fit the one ladder
        detail = verify.check_phi_norm4_slope()[1]
        reported = detail.rsplit("z2 estimate ", 1)[1]
        assert f"{moment.constants_bundle(with_z2=True).z2_estimate:.5f}" == reported

    def test_zeta_product_consistency(self):
        b = moment.constants_bundle()
        assert b.zeta_i_2 * b.zeta_i_inv_2 == pytest.approx(1.0, abs=1e-5)


class TestMainTerm:
    def test_quadratic_scaling(self):
        assert moment.main_term(20) == pytest.approx(4 * moment.main_term(10))

    def test_zero(self):
        assert moment.main_term(0) == 0.0

    def test_beyond_the_float_range_is_refused(self):
        # the product overflows at 10^160, float(S) itself at 10^400
        assert math.isfinite(moment.main_term(10**150))
        for S in (10**160, 10**400):
            with pytest.raises(DomainError, match="float range"):
                moment.main_term(S)


class TestExactSum:
    @staticmethod
    def per_term(norms, counts):
        return sum((Fraction(c, n) for n, c in zip(norms, counts)), Fraction(0))

    def test_empty_is_zero(self):
        assert moment._exact_sum([], []) == (0, 1)

    def test_random_norms_and_counts(self):
        # every length from 1 to 70 (odd and even at each level of the
        # tree), counts of either sign, zero among them, norms up to S^4
        # at S = 512
        rng = Random(31)
        for size in range(1, 71):
            top = rng.choice((100, 10**4, 512**4))
            norms = rng.sample(range(1, top + 1), size)
            counts = [rng.choice((0, rng.randint(-(10**6), 10**6))) for _ in norms]
            num, den = moment._exact_sum(norms, counts)
            assert den > 0 and Fraction(num, den) == self.per_term(norms, counts), (size, top)

    def test_zero_counts_and_norms_near_the_top(self):
        # norms next to 512^4 (S^4 at S = 512) and two large divisors of
        # it: the unreduced product at the root has a large common factor
        # with its numerator, which the one reduction must remove
        top = 512**4
        norms = [top - k for k in range(12)] + [top // 3, top // 5]
        counts = [0, 3, 0, 0, 7, 1, 0, 12, 0, 0, 5, 2, 0, 9]
        assert Fraction(*moment._exact_sum(norms, counts)) == self.per_term(norms, counts)
        assert moment._exact_sum(norms, [0] * len(norms))[0] == 0

    COUNT = st.integers(-(10**6), 10**6)
    # every draw of LONG has a root of more than 220 * 48 > 10^4 bits
    SHORT = st.lists(st.tuples(st.integers(1, 2**64), COUNT), max_size=40)
    LONG = st.lists(st.tuples(st.integers(2**48, 2**64), COUNT), min_size=220, max_size=300)

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(SHORT, LONG))
    def test_true_division_is_the_float_of_the_sum(self, terms):
        # num / den, CPython's correctly rounded integer true division of
        # the unreduced root, is the float of the reduced per-term sum
        norms, counts = [n for n, _ in terms], [c for _, c in terms]
        num, den = moment._exact_sum(norms, counts)
        assert num / den == float(self.per_term(norms, counts))


class TestDirect:
    def test_level_one_is_four(self):
        rep = moment.moment_first_direct(1)
        assert rep.value == 4.0
        assert rep.method == "direct"

    def test_frozen_baselines(self):
        # regression values from the exhaustive scan
        assert moment.moment_first_direct(2).value == 8.0
        assert moment.moment_first_direct(3).value == float(Fraction(1016, 45))
        assert moment.moment_first_direct(4).value == float(Fraction(27067, 780))

    def test_positive(self):
        for S in (1, 2, 5):
            assert moment.moment_first_direct(S).value > 0

    def test_cap_enforced(self):
        assert moment.DIRECT_CAP_DEFAULT == 24
        with pytest.raises(DomainError, match="capped at S = 24"):
            moment.moment_first_direct(25)
        with pytest.raises(DomainError, match="capped at S = 5"):
            moment.moment_first_direct(6, cap=5)
        assert moment.moment_first_direct(6, cap=6).value == moment.moment_first_direct(6).value

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_refused(self, cap):
        with pytest.raises(DomainError, match="cap must be >= 1"):
            moment.moment_first_direct(4, cap=cap)

    # float.hex of the values, and the pair counts, the all-pairs
    # determinant scan gave before the neighbour solve replaced it
    PINNED = {
        1: ("0x1.0000000000000p+2", 4),
        2: ("0x1.0000000000000p+3", 12),
        3: ("0x1.693e93e93e93fp+4", 72),
        4: ("0x1.159c39c39c39cp+5", 176),
        5: ("0x1.d7d544dbd544ep+5", 468),
        6: ("0x1.380edffca480ap+6", 840),
        7: ("0x1.b10eec21c30bdp+6", 1608),
        8: ("0x1.1cd042b5ca295p+7", 2700),
        9: ("0x1.6a8a3421d0615p+7", 4360),
        10: ("0x1.c42c1864012d1p+7", 6736),
        11: ("0x1.14a94fc9f267cp+8", 10012),
        12: ("0x1.3b6f484c31f7ep+8", 13112),
    }

    def test_values_pinned_bitwise(self):
        from fordspheres import farey

        for S, (value, pairs) in self.PINNED.items():
            assert moment.moment_first_direct(S).value.hex() == value, S
            assert len(farey.consecutive_pairs(S)) == pairs, S

    def test_total_is_the_pair_sum(self):
        from fordspheres import farey
        from fordspheres.gint import norm

        for S in range(1, 9):
            total = Fraction(0)
            for f1, f2 in oracles.consecutive_pairs_scan(S):
                total += Fraction(1, 2 * norm(f1.den)) + Fraction(1, 2 * norm(f2.den))
            assert moment.direct_total(S) == total, S

    def test_orbit_scan_equals_the_full_scan(self):
        # direct_total scans one fraction per orbit of the square's
        # symmetries and weights its finds by the orbit size; the full scan
        # counts every find of every fraction once
        for S in range(1, 25):
            gs = farey.gs_arrays(S)
            norms = gs[0]
            counts = np.zeros(S * S + 1, dtype=np.int64)
            for i, sp_re, sp_im in consecutive_finds(S, gs):
                n, n_p = norms[i], sp_re * sp_re + sp_im * sp_im
                counts += np.bincount(np.concatenate([n, n_p[n_p < n]]), minlength=len(counts))
            total = sum(Fraction(int(counts[n]), 2 * n) for n in np.flatnonzero(counts).tolist())
            assert moment.direct_total(S) == total, S

    # tie finds (|s'| = |s|, each pair found from both ends) per S = 1..12
    TIE_FINDS = (8, 0, 8, 16, 24, 32, 48, 48, 72, 88, 112, 120)

    def test_ties_are_counted_once_per_pair(self):
        # the neighbour solve finds a pair once from its end with the larger
        # norm, and a tie from both ends: halving the tie finds counts the
        # pairs, and the per-norm count of direct_total equals the pair sum
        # over consecutive_pairs, which keeps one find per pair by index
        from fordspheres.gint import norm

        for S, ties in zip(range(1, 13), self.TIE_FINDS):
            gs = farey.gs_arrays(S)
            norms = gs[0]
            finds = tie_finds = 0
            for i, sp_re, sp_im in consecutive_finds(S, gs):
                finds += len(i)
                tie_finds += int(np.count_nonzero(sp_re * sp_re + sp_im * sp_im == norms[i]))
            assert tie_finds == ties, S
            pairs = farey.consecutive_pairs(S)
            assert finds - tie_finds // 2 == len(pairs), S
            total = sum(Fraction(1, 2 * norm(f1.den)) + Fraction(1, 2 * norm(f2.den)) for f1, f2 in pairs)
            assert moment.direct_total(S) == total, S

    @pytest.mark.parametrize("block", [1, 7, 40])
    def test_total_is_independent_of_block_size(self, monkeypatch, block):
        # G_S and the finds are built anew in blocks of a few
        # fractions and points, which split the shells, the ties and the
        # partners of one fraction across blocks
        default = {S: moment.direct_total(S) for S in (6, 9)}
        monkeypatch.setattr(region, "BLOCK_ELEMENTS", block)
        cold(monkeypatch)
        assert {S: moment.direct_total(S) for S in (6, 9)} == default

    def test_total_is_independent_of_the_call_order(self, monkeypatch):
        # each level cold, from an empty table, against sweeps that
        # grow it shell by shell, cut it down, and jump about
        levels = list(range(1, 25))
        cold_totals = {}
        for S in levels:
            cold(monkeypatch)
            cold_totals[S] = moment.direct_total(S)
        for order in (levels, levels[::-1], Random(7).sample(levels, len(levels))):
            cold(monkeypatch)
            assert {S: moment.direct_total(S) for S in order} == cold_totals, order

    def test_a_warm_call_runs_no_scan(self, monkeypatch):
        # once the table reaches S = 12, a call at any level up to it only
        # reads a row of the table
        cold(monkeypatch)
        moment.direct_total(12)

        def scan(*args):
            raise AssertionError("a warm call scanned")

        for name in ("_shell", "_neighbour_blocks", "_inverse_columns"):
            monkeypatch.setattr(farey, name, scan)
        for S, (value, _) in self.PINNED.items():
            assert float(moment.direct_total(S)).hex() == value, S

    def test_value_is_the_float_of_the_exact_total(self, monkeypatch):
        # the route rounds the unreduced pair by integer true division:
        # the float of the reduced total, cold (each level from an empty
        # table) and warm (every level read from the table at S = 24)
        cold_values = {}
        for S in range(1, 25):
            cold(monkeypatch)
            cold_values[S] = moment.moment_first_direct(S).value
        for S in range(1, 25):
            total = moment.direct_total(S)
            assert cold_values[S] == moment.moment_first_direct(S).value == float(total), S

    def test_residual_against_quarter_main_term(self):
        for S in (1, 5, 12, 24):
            rep = moment.moment_first_direct(S)
            assert rep.normalization == "omega_quarter"
            assert rep.main_term == moment.main_term(S) / 4
            assert rep.residual == rep.value - moment.main_term(S) / 4


class TestCounting:
    def test_level_one_normalizations(self):
        assert moment.moment_first_counting(1, "omega_full").value == 8.0
        assert moment.moment_first_counting(1, "omega_quarter").value == 2.0

    def test_level_two(self):
        assert moment.moment_first_counting(2).value == pytest.approx(22.0)

    def test_batched_counts_equal_one_spec_calls(self):
        # s = 1, prime powers above 2, 3 and 5, and s with repeated primes
        s = [(1, 0), (1, 1), (2, 0), (2, 2), (4, 0), (3, 0), (9, 0), (2, 1), (3, 4),
             (2, 11), (5, 0), (6, 0), (12, 0), (18, 0), (6, 3), (10, 20), (7, 1)]
        S = 30
        batch = region.coprime_counts([a for a, _ in s], [b for _, b in s], S)
        assert batch.dtype == np.int64
        for (a, b), c in zip(s, batch.tolist()):
            assert c == region.omega_lattice_count(region.OmegaSpec(g(a, b), S), True), (a, b)

    def test_oracle_does_not_use_the_sieve(self, monkeypatch):
        want = {S: moment.consecutive_partner_counts(S).tolist() for S in (1, 8, 24)}

        def refuse(*args, **kwargs):
            raise AssertionError("the per-denominator oracle uses the sieve")

        monkeypatch.setattr(arith, "get_sieve", refuse)
        monkeypatch.setattr(arith, "CanonicalSieve", refuse)
        for S, counts in want.items():
            assert moment.consecutive_partner_counts(S).tolist() == counts, S

    def test_sweep_equals_bruteforce_scan(self):
        # the sweep against the point-by-point scan with a gcd per point,
        # which shares no code with the lattice kernel
        for S in range(1, 11):
            counts = moment.consecutive_partner_counts(S)
            re, im, _ = arith.canonical_cells(S * S)
            for x, y, c in zip(re.tolist(), im.tolist(), counts.tolist()):
                spec = region.OmegaSpec(g(x, y), S)
                assert c == oracles.omega_lattice_count_bruteforce(spec, True), (x, y, S)

    def test_counting_total_is_the_per_cell_sum(self):
        # the per-cell rational sum of the per-denominator counts is the
        # oracle of the per-norm grouping and the exact sum over norms
        for S in range(1, 13):
            counts = moment.consecutive_partner_counts(S).tolist()
            _, _, nrm = arith.canonical_cells(S * S)
            per_cell = 2 * sum((Fraction(c, n) for c, n in zip(counts, nrm.tolist())), Fraction(0))
            num, den = oracles.counting_total(S)
            assert den > 0 and Fraction(num, den) == per_cell, S

    def test_counting_total_rounds_to_the_pinned_values(self):
        # the pinned route values are correctly rounded: the float of the
        # exact total (num / den of its unreduced pair) equals them bit for
        # bit
        for S, (full, _) in self.PINNED.items():
            num, den = oracles.counting_total(S)
            assert (num / den).hex() == full, S

    def test_a_count_off_the_multiple_of_four_is_refused(self, monkeypatch):
        real = moment.consecutive_partner_counts

        def one_more(S):
            counts = real(S).copy()
            counts[-1] += 1
            return counts

        monkeypatch.setattr(moment, "consecutive_partner_counts", one_more)
        with pytest.raises(ArithmeticError, match=r"N\(s\) = \d+ is not a multiple of 4 for s = \d+\+\d+i at S = 5"):
            oracles.counting_total(5)
        results = {r.name: r for r in verify.run_suite("moment")}
        failed = results["direct moment reconciles exactly with quarter counting"]
        assert not failed.passed
        assert failed.detail.startswith("raised ArithmeticError: N(s) = ")

    def test_reconciliation_fails_on_a_count_four_off(self, monkeypatch):
        # four more at one cell keeps every count a multiple of 4, so only
        # the cross-multiplied identity can catch it, at the first S
        real = moment.consecutive_partner_counts

        def four_more(S):
            counts = real(S).copy()
            counts[-1] += 4
            return counts

        monkeypatch.setattr(moment, "consecutive_partner_counts", four_more)
        ok, detail = verify.check_direct_quarter_reconciliation()
        assert not ok and detail.startswith("mismatch at S = 2: "), detail

    def test_oracle_check_fails_on_a_value_off_by_two_to_the_minus_49(self, monkeypatch):
        # at S = 1 the route's 8.0 times 1 + 2^-49 is exact, a relative
        # error of 2^-49, twice the tolerance
        real = moment.moment_first_counting

        def scaled(S, *args, **kwargs):
            row = real(S, *args, **kwargs)
            return dataclasses.replace(row, value=row.value * (1 + 2**-49))

        monkeypatch.setattr(moment, "moment_first_counting", scaled)
        ok, detail = verify.check_counting_vs_per_denominator()
        assert not ok and detail == "S = 1: relative error 1.78e-15 above 2^-50", detail

    @staticmethod
    def _by_bound_exact(S):
        # sum over squarefree d of mu(d)/|d|^2 F(S^2 // |d|^2), with F(B)
        # summed over the octant a >= b >= 0 straight from the kernel
        sieve = arith.get_sieve(S)
        re, im = sieve.re.tolist(), sieve.im.tolist()
        octant = [(a, b) for a, b in zip(re, im) if a >= b]
        F = {}
        total = Fraction(0)
        for d_norm, mu in zip(sieve.norms.tolist(), sieve.mu.tolist()):
            if mu == 0:
                continue
            B = S * S // d_norm
            if B not in F:
                ts = [(a, b) for a, b in octant if a * a + b * b <= B]
                L = region.escape_counts([a for a, _ in ts], [b for _, b in ts], [B] * len(ts)).tolist()
                F[B] = sum(
                    (Fraction(2 * l if a > b > 0 else l, a * a + b * b) for (a, b), l in zip(ts, L)),
                    Fraction(0),
                )
            total += Fraction(mu, d_norm) * F[B]
        return total

    def test_bound_regrouping_is_exact(self):
        # the route's identity in rationals, and its float within 2^-50
        for S in range(1, 41):
            exact = Fraction(*oracles.counting_total(S)) / 2
            assert self._by_bound_exact(S) == exact, S
            for normalization, scale in (("omega_full", 2), ("omega_quarter", Fraction(1, 2))):
                value = moment.moment_first_counting(S, normalization).value
                assert abs(Fraction(value) - scale * exact) <= scale * exact / 2**50, (S, normalization)

    def test_route_does_not_form_per_denominator_counts(self, monkeypatch):
        def refuse(S):
            raise AssertionError("the per-denominator oracle is on the counting route")

        monkeypatch.setattr(moment, "consecutive_partner_counts", refuse)
        for S in (1, 8, 64):
            for normalization in moment.NORMALIZATIONS:
                assert moment.moment_first_counting(S, normalization).value > 0

    # float.hex of the values the per-denominator grid scan gave before the
    # row-interval kernel replaced it; the bound-by-bound sum still
    # reproduces them bit for bit (other S moved by at most 3 ulps when it
    # replaced the fsum of per-denominator quotients)
    PINNED = {
        1: ("0x1.0000000000000p+3", "0x1.0000000000000p+1"),
        2: ("0x1.6000000000000p+4", "0x1.6000000000000p+2"),
        8: ("0x1.14d296a0852ccp+9", "0x1.14d296a0852ccp+7"),
        32: ("0x1.262c9c74f16ebp+13", "0x1.262c9c74f16ebp+11"),
        64: ("0x1.28c6ee69b83d6p+15", "0x1.28c6ee69b83d6p+13"),
    }

    def test_values_pinned_bitwise(self):
        for S, (full, quarter) in self.PINNED.items():
            assert moment.moment_first_counting(S, "omega_full").value.hex() == full
            assert moment.moment_first_counting(S, "omega_quarter").value.hex() == quarter

    def test_value_pinned_bitwise_at_512(self):
        # the kernel held at a size where its float boundaries lie hundreds
        # of rows out
        assert moment.moment_first_counting(512).value.hex() == "0x1.2b5b986eef255p+21"

    def test_elapsed_excludes_constants_build(self, monkeypatch):
        real_constant_C = moment.constant_C

        def slow_constant_C(*args, **kwargs):
            time.sleep(0.5)
            return real_constant_C(*args, **kwargs)

        monkeypatch.setattr(moment, "constant_C", slow_constant_C)
        moment.constants_bundle.cache_clear()
        assert moment.moment_first_counting(4).elapsed < 0.5
        moment.constants_bundle.cache_clear()
        assert moment.moment_first_direct(4).elapsed < 0.5
        moment.constants_bundle.cache_clear()
        assert moment.moment_main_term_report(4).elapsed < 0.5

    def test_threads_do_not_change_bytes(self):
        # threads is accepted and ignored; the value must not depend on it
        a = moment.moment_first_counting(12, threads=1)
        b = moment.moment_first_counting(12, threads=2)
        c = moment.moment_first_counting(12, threads=5)
        assert a.value == b.value == c.value

    def test_quarter_rows_use_the_quarter_main_term(self):
        for S in (1, 5, 12, 64):
            rep = moment.moment_first_counting(S, "omega_quarter")
            assert rep.main_term == moment.main_term(S) / 4
            assert rep.residual == rep.value - moment.main_term(S) / 4
            full = moment.moment_first_counting(S, "omega_full")
            assert full.main_term == moment.main_term(S)
        (row,) = moment.report_sweep((12,), methods=("counting",), normalization="omega_quarter").reports
        assert row.normalization == "omega_quarter"
        assert row.main_term == moment.main_term(12) / 4
        assert row.residual == row.value - moment.main_term(12) / 4

    def test_unknown_normalization(self):
        with pytest.raises(DomainError):
            moment.moment_first_counting(2, "foo")

    def test_cap(self):
        assert moment.COUNTING_CAP_DEFAULT == 1024
        with pytest.raises(DomainError, match="capped at S = 1024"):
            moment.moment_first_counting(1025)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_refused(self, cap):
        with pytest.raises(DomainError, match="cap must be >= 1"):
            moment.moment_first_counting(4, cap=cap)

    def test_default_cap_admits_257(self):
        rep = moment.moment_first_counting(257)
        assert rep.value > 0 and rep.S == 257


class TestCalibration:
    def test_small_ratios(self):
        ratios = moment.calibration_ratios((1, 2, 4))
        assert ratios[1] == pytest.approx(2.0)
        assert ratios[2] == pytest.approx(2.75)
        assert ratios[4] == pytest.approx(126.02735042735043 / 34.70128205128205, rel=1e-12)

    def test_direct_equals_quarter_plus_real_axis_extra(self):
        # The quarter normalization assumes four fraction pairs per
        # denominator pair; the only exceptions are pairs of rational
        # integers, which realize eight.  The identity and its range live
        # in verify.
        from fordspheres import verify

        assert verify.RECONCILIATION_RANGE == range(2, 72)
        ok, detail = verify.check_direct_quarter_reconciliation()
        assert ok, detail

    def test_real_axis_correction_is_the_pair_sum(self):
        # the double loop over the coprime pairs q < q' with q + q' > S,
        # four radius sums per pair, is the oracle of the per-q counts
        for S in range(1, 41):
            extra = Fraction(0)
            for q in range(1, S + 1):
                for qp in range(q + 1, S + 1):
                    if math.gcd(q, qp) == 1 and q + qp > S:
                        extra += 4 * (Fraction(1, 2 * q * q) + Fraction(1, 2 * qp * qp))
            assert moment.real_axis_correction(S) == extra, S
        with pytest.raises(DomainError):
            moment.real_axis_correction(0)


class TestSums:
    def test_sum_A_base(self):
        exact, _ = moment.sum_A(1)
        assert exact == pytest.approx(math.pi)

    def test_sum_A_is_the_area_weighted_sum(self):
        # sum_A and omega_area evaluate the one closed form of the area
        S = 16
        exact, prediction = moment.sum_A(S)
        sieve = arith.get_sieve(S)
        total = math.fsum(
            int(ph) / int(n) ** 2 * region.omega_area(region.OmegaSpec(g(int(x), int(y)), S))
            for x, y, n, ph in zip(sieve.re, sieve.im, sieve.norms, sieve.phi)
        )
        assert exact == pytest.approx(total, rel=1e-12)
        assert prediction == moment.main_term(S) / 2

    def test_sum_A_vs_counts_at_64(self):
        exact, _ = moment.sum_A(64)
        total = 0.0
        sieve = arith.get_sieve(64)
        for x, y, n, ph in zip(sieve.re, sieve.im, sieve.norms, sieve.phi):
            spec = region.OmegaSpec(g(int(x), int(y)), 64)
            total += ph / n**2 * region.omega_lattice_count(spec)
        assert abs(total - exact) <= 50.0  # measured gap is ~13.1
        assert abs(total - exact) / exact <= 0.005

    def test_sum_B_base(self):
        assert moment.sum_B(1, 0.1) == pytest.approx(8 * math.pi)

    def test_sum_B_matches_direct_accumulation(self):
        from fordspheres.arith import canonical_cells

        S, eps = 16, 0.2
        _, _, nrm = canonical_cells(S * S)
        expected = 8 * math.pi * S * sum(float(n) ** (-(1 - eps / 2)) for n in nrm)
        assert moment.sum_B(S, eps) == pytest.approx(expected, rel=1e-12)

    def test_sum_B_epsilon_domain(self):
        with pytest.raises(DomainError):
            moment.sum_B(4, 0.0)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.5])
    def test_sum_B_band_contains_sum_B(self, eps):
        for S in range(1, 65):
            lo, hi = oracles.sum_B_band(S, eps)
            assert lo <= moment.sum_B(S, eps) / S ** (1 + eps) <= hi, S

    def test_sum_B_band_ends_meet_at_the_limit(self):
        lo, hi = oracles.sum_B_band(10**12, 0.5)
        assert lo < 4 * math.pi**2 / 0.5 < hi
        assert hi - lo < 0.02 * hi

    @pytest.mark.parametrize(
        "wrong",
        [
            pytest.param(lambda S, epsilon: 80.0 * S ** (1.0 + 2.0 * epsilon), id="grows-like-S^1.2"),
            pytest.param(lambda S, epsilon: 4.0 * _SUM_B(S, epsilon), id="overcount-by-4"),
        ],
    )
    def test_ceiling_check_fails_on_wrong_sum_B(self, monkeypatch, wrong):
        from fordspheres import verify

        assert verify.check_b_sum_growth()[0]
        monkeypatch.setattr(moment, "sum_B", wrong)
        ok, detail = verify.check_b_sum_growth()
        assert not ok, detail

    def test_ceiling_check_fails_on_a_wrong_B_of_one(self, monkeypatch):
        # only B(1) is off, by one part in a million; the ladder values,
        # and so the band and the increments, stay true
        from fordspheres import verify

        def wrong(S, epsilon=0.1):
            return _SUM_B(S, epsilon) * (1.0 + 1e-6 * (S == 1))

        monkeypatch.setattr(moment, "sum_B", wrong)
        assert [moment.sum_B(S) for S in verify.B_LADDER] == [_SUM_B(S) for S in verify.B_LADDER]
        ok, detail = verify.check_b_sum_growth()
        assert not ok, detail

    def test_sum_A_doubling_trend(self):
        # exact(2S)/exact(S) approaches the quadratic factor 4
        early = moment.sum_A(32)[0] / moment.sum_A(16)[0]
        late = moment.sum_A(256)[0] / moment.sum_A(128)[0]
        assert abs(late - 4.0) < abs(early - 4.0)
        assert abs(late - 4.0) < 0.05

    def test_phi_sums_base(self):
        exact2, _ = moment.sum_phi_over_norm2(1)
        assert exact2 == 1.0
        assert moment.sum_phi_over_norm4(1) == 1.0

    def test_slope_fit_sane_at_small_scale(self):
        slope, intercept = moment.fit_phi_over_norm4((32, 64, 128, 256))
        target = 4 * moment.constants_bundle().z1
        assert slope == pytest.approx(target, rel=0.05)
        assert intercept > 0


class TestSweep:
    def test_shape(self):
        sweep = moment.report_sweep((1, 2, 4, 8), methods=("direct", "counting"))
        assert len(sweep.reports) == 8
        assert not sweep.errors
        for rep in sweep.reports:
            assert rep.residual == pytest.approx(rep.value - rep.main_term)

    def test_main_term_rows(self):
        sweep = moment.report_sweep((3,), methods=("main_term",))
        rep = sweep.reports[0]
        assert rep.value == rep.main_term == moment.main_term(3)
        assert rep.residual == 0.0

    def test_row_failures_recorded(self):
        sweep = moment.report_sweep((2, 25), methods=("direct",))
        assert len(sweep.reports) == 1
        assert len(sweep.errors) == 1
        assert sweep.errors[0][0] == 25

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            moment.report_sweep((1,), methods=("nope",))

    @pytest.mark.parametrize("caps", [{"counting_cap": -1}, {"direct_cap": 0}])
    def test_cap_below_one_refuses_the_sweep(self, caps):
        with pytest.raises(DomainError, match="cap must be >= 1"):
            moment.report_sweep((2, 4), **caps)

    def test_evaluate_dispatches_each_method(self):
        assert moment.evaluate(5, "direct").value == moment.moment_first_direct(5).value
        assert moment.evaluate(5).value == moment.moment_first_counting(5).value
        quarter = moment.evaluate(5, "counting", "omega_quarter")
        assert quarter.value == moment.moment_first_counting(5, "omega_quarter").value
        assert moment.evaluate(5, "main_term").value == moment.main_term(5)
        with pytest.raises(DomainError, match="capped at S = 4"):
            moment.evaluate(5, "direct", direct_cap=4)
        with pytest.raises(DomainError, match="capped at S = 4"):
            moment.evaluate(5, "counting", counting_cap=4)
        with pytest.raises(DomainError, match="unknown method"):
            moment.evaluate(5, "nope")

    @pytest.mark.parametrize("method", moment.METHODS)
    def test_unknown_normalization_refused_for_every_method(self, method):
        with pytest.raises(DomainError, match="unknown normalization"):
            moment.evaluate(3, method, normalization="bogus")

    def test_unknown_normalization_refuses_the_sweep(self):
        with pytest.raises(DomainError, match="unknown normalization"):
            moment.report_sweep([2, 3], ["direct", "counting"], normalization="bogus")
