import math
from math import isqrt
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fordspheres import oracles, region
from fordspheres.gint import DomainError, GInt, ONE, factor, is_coprime
from fordspheres.oracles import (
    escape_counts_rows,
    omega_area_bounds_check,
    omega_area_monte_carlo,
    omega_area_quadrature,
    omega_lattice_count_bruteforce,
)
from fordspheres.region import (
    KERNEL_BOUND_LIMIT,
    OmegaSpec,
    _half_widths,
    boundary_length_surrogate,
    coprime_count_prediction,
    omega_area,
    escape_counts,
    omega_contains,
    omega_lattice_count,
)


def g(re, im=0):
    return GInt(re, im)


def _escape_count_scan(a, b, B):
    """L(a + bi, B) point by point: |w|^2 <= B and some |w + u t|^2 > B."""
    R = isqrt(B)
    return sum(
        1
        for x in range(-R, R + 1)
        for y in range(-R, R + 1)
        if x * x + y * y <= B
        and any((x + p) ** 2 + (y + q) ** 2 > B for p, q in ((a, b), (-b, a), (-a, -b), (b, -a)))
    )


def _kernel_modes():
    """Each mode of the kernel in turn, as (name, count): count(t_re, t_im,
    bounds) is L(t, B) as a list of ints, for one bound per t with
    0 < |t|^2 <= B, on int64 arrays through escape_counts, then one t at a
    time on Python ints through _escape_counts_per_t."""
    yield "arrays", lambda *columns: escape_counts(*columns).tolist()
    yield "per-t", lambda *columns: region._escape_counts_per_t(*(np.asarray(c).tolist() for c in columns))


def _coprime_scan(a, b, S):
    """The points of the region of s = a + bi at level S coprime to s, full
    plane, point by point: four times those of the quadrant x >= 1,
    y >= 0 (one point of each orbit under the units), each in the region
    by integer norms and coprime when the ideal (z, s) is the whole ring,
    its index gcd(|s|^2, |z|^2, Re(conj(s) z), Im(conj(s) z)) being 1."""
    xs, ys = np.meshgrid(np.arange(1, S + 1), np.arange(0, S + 1))
    x, y = xs.ravel(), ys.ravel()
    n, S2 = x * x + y * y, S * S
    escapes = np.zeros(len(x), dtype=bool)
    for p, q in ((a, b), (-b, a), (-a, -b), (b, -a)):
        escapes |= (x + p) ** 2 + (y + q) ** 2 > S2
    index = np.gcd(np.gcd(a * x + b * y, a * y - b * x), np.gcd(n, a * a + b * b))
    return 4 * int(np.count_nonzero((n <= S2) & escapes & (index == 1)))


class TestSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            OmegaSpec(g(0, 2), 5)  # not canonical
        with pytest.raises(DomainError):
            OmegaSpec(g(3, 3), 4)  # |s| > S
        with pytest.raises(DomainError):
            OmegaSpec(ONE, 0)


class TestMembership:
    def test_origin_never_member(self):
        for spec in (OmegaSpec(ONE, 1), OmegaSpec(g(2, 1), 4)):
            assert not omega_contains(g(0, 0), spec)

    def test_unit_point(self):
        assert omega_contains(ONE, OmegaSpec(ONE, 1))

    def test_rotation_invariance_exact(self):
        for s, S in ((ONE, 2), (g(1, 1), 3), (g(2, 1), 4)):
            spec = OmegaSpec(s, S)
            for x in range(-S, S + 1):
                for y in range(-S, S + 1):
                    z = g(x, y)
                    assert omega_contains(z, spec) == omega_contains(g(-y, x), spec)


class TestArea:
    def test_collapses_to_disc_at_max_modulus(self):
        for S in (1, 2, 7):
            assert omega_area(OmegaSpec(g(S, 0), S)) == pytest.approx(math.pi * S * S)

    def test_reference_value(self):
        assert omega_area(OmegaSpec(ONE, 2)) == pytest.approx(9.073376604636506, rel=1e-12)

    def test_matches_quadrature(self):
        rng = Random(42)
        for _ in range(15):
            S = rng.randint(2, 60)
            while True:
                a, b = rng.randint(1, S), rng.randint(0, S)
                if a * a + b * b <= S * S:
                    break
            spec = OmegaSpec(g(a, b), S)
            assert omega_area(spec) == pytest.approx(omega_area_quadrature(spec), rel=1e-9)

    def test_quadrature_error_estimate_fires(self):
        # C's integrand in u, without the substitution that smooths its
        # log singularity at 0: the 32- and 64-node rules differ by ~3e-4
        def f(u):
            return -np.log(math.sqrt(2.0) * u) * np.sqrt(1.0 - u * u)

        with pytest.raises(ArithmeticError, match="error estimate"):
            oracles._gauss_legendre(f, 0.0, 1.0 / math.sqrt(2.0), 1e-10)
        assert oracles._gauss_legendre(np.cos, 0.0, math.pi / 2.0, 1e-13) == pytest.approx(1.0, abs=1e-15)

    def test_matches_monte_carlo(self):
        spec = OmegaSpec(ONE, 2)
        mc = omega_area_monte_carlo(spec, samples=200_000, seed=1)
        assert abs(mc - omega_area(spec)) < 0.15

    @pytest.mark.parametrize("samples", [0, -5])
    def test_monte_carlo_refuses_no_samples(self, samples):
        with pytest.raises(DomainError, match="samples must be >= 1"):
            omega_area_monte_carlo(OmegaSpec(ONE, 2), samples=samples)

    def test_sampling_oracles_pinned_bitwise(self):
        # float.hex of the values the per-sample loop of Random draws gave
        # before the draws were tested together; the grid perimeter of
        # verify uses the same membership predicate
        from fordspheres import verify

        for (s, S), samples, seed, pinned in (
            ((ONE, 2), 200_000, 1, "0x1.21b71758e2196p+3"),
            ((ONE, 2), 2_000_000, 20240, "0x1.226299524bfd3p+3"),  # verify's check
            ((g(3, 2), 7), 100_000, 5, "0x1.c5bd70a3d70a4p+6"),
        ):
            assert omega_area_monte_carlo(OmegaSpec(s, S), samples, seed).hex() == pinned
        assert verify._grid_perimeter_estimate(OmegaSpec(g(1, 1), 4)).hex() == "0x1.aae147ae147aep+5"

    def test_float_membership_agrees_with_exact_on_lattice_points(self):
        for s, S in ((ONE, 3), (g(2, 1), 5), (g(3, 3), 6)):
            spec = OmegaSpec(s, S)
            xs, ys = np.meshgrid(np.arange(-S, S + 1), np.arange(-S, S + 1))
            got = oracles.omega_contains_float(xs.astype(float), ys.astype(float), spec)
            want = [omega_contains(g(int(x), int(y)), spec) for x, y in zip(xs.flat, ys.flat)]
            assert got.ravel().tolist() == want

    def test_thin_region_limit(self):
        # area ~ 4 sqrt(2) S |s| for |s| << S
        area = omega_area(OmegaSpec(ONE, 10_000))
        assert area == pytest.approx(4 * math.sqrt(2) * 10_000, rel=1e-3)

    def test_lower_bounds(self):
        assert omega_area_bounds_check(OmegaSpec(g(4, 0), 4))
        assert omega_area_bounds_check(OmegaSpec(ONE, 10))
        for S in (4, 8):
            for a in range(1, S + 1):
                for b in range(0, S + 1):
                    if 1 <= a * a + b * b <= S * S:
                        assert omega_area_bounds_check(OmegaSpec(g(a, b), S))


class TestLatticeCount:
    def test_units_at_level_one(self):
        assert omega_lattice_count(OmegaSpec(ONE, 1), coprime_filter=True) == 4

    def test_filtered_below_unfiltered(self):
        for s, S in ((g(1, 1), 4), (g(2, 0), 5), (g(3, 1), 6)):
            spec = OmegaSpec(s, S)
            assert omega_lattice_count(spec, True) <= omega_lattice_count(spec, False)

    def test_fast_equals_bruteforce(self):
        for s, S in ((ONE, 1), (ONE, 4), (g(1, 1), 3), (g(2, 1), 5), (g(2, 2), 6), (g(3, 0), 7)):
            spec = OmegaSpec(s, S)
            for filt in (False, True):
                assert omega_lattice_count(spec, filt) == omega_lattice_count_bruteforce(
                    spec, filt
                ), (s, S, filt)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_kernel_equals_bruteforce_on_random_specs(self, data):
        S = data.draw(st.integers(1, 40), label="S")
        a = data.draw(st.integers(1, S), label="re")
        b = data.draw(st.integers(0, isqrt(S * S - a * a)), label="im")
        spec = OmegaSpec(g(a, b), S)
        for filt in (False, True):
            assert omega_lattice_count(spec, filt) == omega_lattice_count_bruteforce(spec, filt)

    def test_kernel_is_unit_invariant_and_blockwise(self, monkeypatch):
        # one batch over every t in the disc, then the same batch cut into
        # blocks of one t and 16 rows, then single calls on every associate,
        # in each mode, against the row kernel
        B = 1000
        xs, ys = np.meshgrid(np.arange(-31, 32), np.arange(-31, 32))
        keep = (xs * xs + ys * ys <= B) & ((xs != 0) | (ys != 0))
        t_re, t_im = xs[keep], ys[keep]
        bounds = [B] * len(t_re)
        rows = escape_counts_rows(t_re, t_im, B).tolist()
        for mode, count in _kernel_modes():
            monkeypatch.setattr(region, "BLOCK_ELEMENTS", 1 << 16)
            batch = count(t_re, t_im, bounds)
            assert batch == rows, mode
            monkeypatch.setattr(region, "BLOCK_ELEMENTS", 16)
            assert count(t_re, t_im, bounds) == rows, mode
            for k in range(0, len(t_re), 97):
                a, b = int(t_re[k]), int(t_im[k])
                for u_re, u_im in ((a, b), (-b, a), (-a, -b), (b, -a)):
                    assert count([u_re], [u_im], [B])[0] == batch[k], mode

    def test_mixed_bounds_equal_single_bound_calls(self):
        # the seeded draws, kept where 0 < |t|^2 <= B, the kernel's domain
        rng = Random(7)
        t = [(rng.randint(-25, 25), rng.randint(-25, 25)) for _ in range(300)]
        t = [(a, b) for a, b in t if a or b]
        drawn = [rng.choice((1, 2, 37, 400, 401, 999, 4096)) for _ in t]
        t, bounds = zip(*[((a, b), B) for (a, b), B in zip(t, drawn) if a * a + b * b <= B])
        assert len(t) == 119
        t_re, t_im = [a for a, _ in t], [b for _, b in t]
        rows = escape_counts_rows(t_re, t_im, bounds).tolist()
        for mode, count in _kernel_modes():
            mixed = count(t_re, t_im, bounds)
            assert mixed == rows, mode
            for (a, b), B, got in zip(t, bounds, mixed):
                assert got == count([a], [b], [B])[0], (mode, a, b, B)

    def test_conjugate_symmetry(self):
        # L(a + bi) = L(b + ai): b + ai = i conj(a + bi), and the region is
        # symmetric under conjugation and units
        B = 1000
        xs, ys = np.meshgrid(np.arange(-31, 32), np.arange(-31, 32))
        keep = (xs * xs + ys * ys <= B) & ((xs != 0) | (ys != 0))
        t_re, t_im = xs[keep], ys[keep]
        bounds = [B] * len(t_re)
        rows = escape_counts_rows(t_re, t_im, B).tolist()
        for mode, count in _kernel_modes():
            assert count(t_re, t_im, bounds) == rows, mode
            assert count(t_im, t_re, bounds) == rows, mode

    def test_rows_of_one_t_cut_across_steps(self, monkeypatch):
        # t = 1 at B = 1000 has rows x = 0 .. 30, two steps of 16 elements
        t_re, t_im = [1, 5, 2, 30], [0, 3, 2, 1]
        bounds = [1000, 1000, 50, 1000]
        whole = escape_counts(t_re, t_im, bounds)
        monkeypatch.setattr(region, "BLOCK_ELEMENTS", 16)
        steps = list(region.flat_blocks(np.array([31])))
        assert [(items, c.tolist()) for items, c, _ in steps] == [
            (slice(0, 1), [16]),
            (slice(0, 1), [15]),
        ]
        assert escape_counts(t_re, t_im, bounds).tolist() == whole.tolist()
        scanned = [_escape_count_scan(a, b, B) for a, b, B in zip(t_re, t_im, bounds)]
        assert whole.tolist() == scanned

    def test_explicit_step(self):
        steps = list(region.flat_blocks(np.array([3, 0, 25]), 10))
        assert [(items, c.tolist(), k.tolist()) for items, c, k in steps] == [
            (slice(0, 3), [3, 0, 7], [0, 1, 2, 0, 1, 2, 3, 4, 5, 6]),
            (slice(2, 3), [10], list(range(7, 17))),
            (slice(2, 3), [8], list(range(17, 25))),
        ]

    def test_floor_sqrt_is_exact_below_2_52(self, monkeypatch):
        # the neighbour solve takes roots of integers below S^4 < 2^52, the
        # domain where the truncated float root is exact, as in the lattice
        # kernel's table
        roots = [2**13, 2**24, 2**26 - 1, (2**13 - 1) ** 2]
        values = [k * k + d for k in roots for d in (-1, 0, 1)]
        values += [(2**13 - 1) ** 4, 2**52 - 1]
        rng = Random(0)
        values += [rng.randrange(2**50, 2**52) for _ in range(20000)]
        got = region._floor_sqrt(np.array(values, dtype=np.int64))
        assert got.tolist() == [isqrt(v) for v in values]
        # beyond 2^52 the truncated float root of (2^27 - 1)^2 - 1 is off by
        # one, and the kernel's table refuses the bound before it builds
        # anything
        big = (2**27 - 1) ** 2 - 1
        assert int(math.sqrt(big)) == isqrt(big) + 1

        def built(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(region, "_half_widths", built)
        with pytest.raises(ArithmeticError):
            region._bound_tables([big], 64)

    def test_closed_form_equals_rows_on_every_small_bound(self):
        # every t of the kernel's domain 0 < |t|^2 <= B in the box
        # |Re t|, |Im t| <= isqrt(B) + 2, for every B in 1..300; one t at a
        # time, every t of each B <= 64 and every fourth t beyond.  The rest
        # of the box, |t|^2 > B, is refused (test_closed_form_edge_cases)
        t_re, t_im, bounds = [], [], []
        for B in range(1, 301):
            m = isqrt(B) + 2
            xs, ys = np.meshgrid(np.arange(-m, m + 1), np.arange(-m, m + 1))
            keep = ((xs != 0) | (ys != 0)) & (xs * xs + ys * ys <= B)
            t_re.append(xs[keep]), t_im.append(ys[keep]), bounds.append(np.full(keep.sum(), B))
        t_re, t_im, bounds = map(np.concatenate, (t_re, t_im, bounds))
        rows = escape_counts_rows(t_re, t_im, bounds)
        subsample = (bounds <= 64) | (np.arange(len(bounds)) % 4 == 0)
        for mode, count in _kernel_modes():
            pick = subsample if mode == "per-t" else slice(None)
            got = count(t_re[pick], t_im[pick], bounds[pick])
            assert got == rows[pick].tolist(), mode

    @pytest.mark.parametrize(
        "t, B",
        [
            ((3, 4), 25),  # |t|^2 = B: the four discs meet in the origin alone
            ((5, 0), 25),  # the same on the real axis
            ((1, 0), 1),
            ((0, 7), 50),  # Im t = 0 after the swap
            ((6, 0), 1000),
            ((4, 4), 32),  # Re t = Im t, |t|^2 = B
            ((9, 9), 1000),
            ((2, 1), 10_000),  # B = k^2
            ((2, 1), 9_999),  # B = k^2 - 1
            ((70, 70), 10_000),
            ((99, 14), 9_999),
            ((3, 4), 24),  # |t|^2 = B + 1: the intersection is empty, and the kernel refuses t
        ],
    )
    def test_closed_form_edge_cases(self, t, B):
        (a, b) = t
        want = escape_counts_rows([a], [b], B)[0]
        if a * a + b * b > B:
            with pytest.raises(ValueError):
                escape_counts([a, -b, b], [b, a, -a], [B] * 3)
        else:
            for mode, count in _kernel_modes():
                assert count([a, -b, b], [b, a, -a], [B] * 3) == [want] * 3, mode
        if B <= 1000:
            assert want == _escape_count_scan(a, b, B)

    def test_closed_form_equals_rows_at_rational_crossings(self):
        # q = (r - n) / (2n), r = sqrt((2B - n) n), is rational when
        # (2B - n) n is a square.  Keep each a >= b >= 0, B <= 2000 where a
        # crossing (a -/+ b) q is an integer or a half-integer: on a row or
        # midway between two, where a float just below it truncates and
        # rounds to different rows.  No half-integer occurs: r = n mod 2, so
        # 2 (a -/+ b) q = (a -/+ b)(r - n) / n is even when it is an integer
        # (n is odd, or n = 2 mod 4 and a -/+ b is even)
        t_re, t_im, bounds = [], [], []
        for a in range(1, isqrt(2000) + 1):
            for b in range(min(a, isqrt(2000 - a * a)) + 1):
                n = a * a + b * b
                B = np.arange(n, 2001, dtype=np.int64)
                m = (2 * B - n) * n
                r = np.rint(np.sqrt(m)).astype(np.int64)
                keep = (r * r == m) & (((a - b) * (r - n) % n == 0) | ((a + b) * (r - n) % n == 0))
                k = int(keep.sum())
                t_re += [a] * k
                t_im += [b] * k
                bounds += B[keep].tolist()
        assert len(bounds) == 3198
        rows = escape_counts_rows(t_re, t_im, bounds).tolist()
        for mode, count in _kernel_modes():
            assert count(t_re, t_im, bounds) == rows, mode

    def test_zero_t_escapes_nothing(self):
        # L(0, B) = 0 in the row oracle; the kernel answers only |t|^2 > 0,
        # so escape_counts refuses a call with t = 0 in it
        assert escape_counts_rows([0, 1, 0], [0, 0, 0], [5, 5, 1000]).tolist() == [
            0, _escape_count_scan(1, 0, 5), 0,
        ]
        for t_re, t_im, bounds in (([0, 1, 0], [0, 0, 0], [5, 5, 1000]), ([0], [0], [5])):
            with pytest.raises(ValueError):
                escape_counts(t_re, t_im, bounds)
        assert escape_counts([], [], []).tolist() == []

    def test_row_oracle_refuses_a_negative_bound(self):
        # the oracle accepts t = 0 and |t|^2 > B, but a negative bound has
        # no disc: the table's isqrt refuses it, alone, among valid bounds
        # and as a scalar
        for t_re, t_im, bounds in (([1], [0], [-1]), ([1, 2], [0, 0], [5, -3]), ([1, 0], [0, 0], -2)):
            with pytest.raises(ValueError):
                escape_counts_rows(t_re, t_im, bounds)

    def test_input_contract(self):
        # one bound per t, each t with 0 < |t|^2 <= B: t = 0 (the third t)
        # and 7 - 7i (|t|^2 = 98 > 60, the fourth) are refused, alone or in
        # a call of valid t; the others are answered
        t_re, t_im = [3, -1, 0, 7, 2], [1, 5, 0, -7, 2]
        for k in (2, 3):
            for columns in (([t_re[k]], [t_im[k]], [60]), (t_re, t_im, [60] * 5)):
                with pytest.raises(ValueError):
                    escape_counts(*columns)
        t_re, t_im = [3, -1, 2], [1, 5, 2]
        want = escape_counts_rows(t_re, t_im, 60).tolist()
        mixed = [400, 26, 400]  # unsorted, repeated
        for bounds in ([60] * 3, np.array([60] * 3)):
            got = escape_counts(t_re, t_im, bounds)
            assert got.dtype == np.int64 and got.tolist() == want, bounds
        assert escape_counts(np.array(t_re), np.array(t_im), [60] * 3).tolist() == want
        rows = escape_counts_rows(t_re, t_im, mixed).tolist()
        for mode, count in _kernel_modes():
            assert count(t_re, t_im, [60] * 3) == want, mode
            assert count(t_re, t_im, mixed) == rows, mode
        # any other length is refused, not cut to the shorter sequence or
        # spread over every t
        for bounds in ([60], [60, 61], [60] * 4, []):
            with pytest.raises(ValueError):
                escape_counts(t_re, t_im, bounds)
        with pytest.raises(ValueError):
            escape_counts(t_re, t_im[:2], [60] * 3)
        with pytest.raises(ValueError):
            escape_counts(t_re, t_im, [60, -2, 60])
        for empty in (escape_counts([], [], []), escape_counts(np.array([]), np.array([]), [])):
            assert empty.dtype == np.int64 and empty.tolist() == []

    def test_sorted_runs_equal_unique(self):
        rng = Random(3)
        up = np.sort(np.array([rng.randint(0, 20) for _ in range(200)]))
        for v in (up, np.array([7])):
            values, runs = region._sorted_runs(v)
            uniq, inverse = np.unique(v, return_inverse=True)
            assert values.tolist() == uniq.tolist() and runs.tolist() == inverse.tolist()
        down = up[::-1]
        values, runs = region._sorted_runs(down)
        uniq, inverse = np.unique(down, return_inverse=True)
        assert values.tolist() == uniq[::-1].tolist()
        assert runs.tolist() == (len(uniq) - 1 - inverse).tolist()

    def test_closed_form_equals_rows_near_two_to_the_forty(self):
        B = (1 << 40) + 12_345
        R = isqrt(B)
        t = [(1, 0), (1, 1), (R, 0), (R // 2, R // 2), (R - 1, 1), (123_456, 654_321), (R // 3, 5)]
        t_re, t_im = [a for a, _ in t], [b for _, b in t]
        rows = escape_counts_rows(t_re, t_im, B).tolist()
        for mode, count in _kernel_modes():
            assert count(t_re, t_im, [B] * len(t)) == rows, mode

    def test_sweep_unchanged_with_the_row_kernel(self, monkeypatch):
        # every (t, B) the counting route sends to the kernel's array core
        # for S = 1..128, and the per-denominator oracle for S <= 40, goes
        # through the closed form and the row kernel and is compared value
        # by value; fed the row kernel's values, the route keeps its float
        # bit for bit
        from fordspheres import moment

        closed = {S: moment.moment_first_counting(S).value for S in range(1, 129)}
        core = region._escape_core
        sent = []

        def both(a, b, w, uB):
            rows = escape_counts_rows(a, b, uB[w])
            assert core(a, b, w, uB).tolist() == rows.tolist()
            sent.append(len(rows))
            return rows

        monkeypatch.setattr(region, "_escape_core", both)
        for S in range(1, 129):
            assert moment.moment_first_counting(S).value.hex() == closed[S].hex(), S
        assert sum(sent) == 827_509
        for S in range(1, 41):
            moment.consecutive_partner_counts(S)

    def test_kernel_exactness_bound(self):
        for _, count in _kernel_modes():
            with pytest.raises(ArithmeticError):
                count([1], [0], [KERNEL_BOUND_LIMIT])
        with pytest.raises(ArithmeticError):
            omega_lattice_count(OmegaSpec(ONE, 1 << 26))
        # the table's plain float roots equal math.isqrt over the kernel's
        # whole domain: around the squares of the largest roots (2^26 - 1
        # squared plus 2k is 2^52 - 1) and at seeded bounds near the limit,
        # in one call of many bounds, rows -64 ... 64 of each
        bounds = [k * k + d for k in (2**26 - 1, 2**25, 2**25 + 1) for d in (-1, 0, 2 * k)]
        rng = Random(52)
        bounds += [rng.randrange(2**50, KERNEL_BOUND_LIMIT) for _ in range(200)]
        assert max(bounds) == KERNEL_BOUND_LIMIT - 1
        half, centre = _half_widths(bounds, [64] * len(bounds), [64] * len(bounds))
        assert centre == [64 + 129 * i for i in range(len(bounds))]
        assert half.tolist() == [isqrt(B - x * x) for B in bounds for x in range(-64, 65)]

    def test_unit_orbit_structure(self):
        # the full-plane count is four times the count over canonical
        # representatives
        spec = OmegaSpec(g(1, 1), 3)
        full = omega_lattice_count(spec, True)
        canonical_members = [
            g(x, y)
            for x in range(1, 4)
            for y in range(0, 4)
            if omega_contains(g(x, y), spec) and is_coprime(g(x, y), spec.s)
        ]
        assert full == 4 * len(canonical_members)
        assert full % 4 == 0

    def test_per_spec_counts_at_large_S(self):
        # seeded specs at 64 <= S <= 512; 89 + 381i at 512, (1 + i) times a
        # prime of norm 76 541, the benchmark's fixed spec; and 195 + 195i,
        # the product of six Gaussian primes: 64 squarefree divisors, a
        # coprime batch beyond PER_T_BATCH, which runs on arrays while the
        # others run one t at a time
        rng = Random(512)
        specs = [(g(89, 381), 512), (g(195, 195), 300)]
        while len(specs) < 8:
            S = rng.randint(64, 512)
            a, b = rng.randint(1, S), rng.randint(0, S)
            if a * a + b * b <= S * S:
                specs.append((g(a, b), S))
        assert 2 ** len(factor(g(195, 195)).factors) == 64 > region.PER_T_BATCH
        for s, S in specs:
            spec = OmegaSpec(s, S)
            assert omega_lattice_count(spec) == escape_counts_rows([s.re], [s.im], S * S)[0], (s, S)
            assert omega_lattice_count(spec, True) == _coprime_scan(s.re, s.im, S), (s, S)

    def test_divisors_from_the_norm_equal_those_of_factor(self):
        # every canonical s with |s| <= 48 at S = 48, in one call on
        # arrays and one call per s in the per-t mode, and 195 + 195i at
        # S = 300 (six Gaussian primes, 64 divisors, on arrays), against
        # the Moebius sum over the squarefree divisors of gint.factor
        from fordspheres.arith import canonical_cells

        def moebius_sum(s, S):
            divisors = [(ONE, 1)]
            for p, _ in factor(s).factors:
                divisors += [(d * p, -m) for d, m in divisors]
            t = [(s * d.conj(), d.re * d.re + d.im * d.im) for d, _ in divisors]
            t = [(z.re // k, z.im // k, S * S // k) for z, k in t]
            L = escape_counts(*zip(*t))
            return sum(m * int(c) for (_, m), c in zip(divisors, L))

        re, im, _ = canonical_cells(48 * 48)
        want = [moebius_sum(g(a, b), 48) for a, b in zip(re.tolist(), im.tolist())]
        assert region.coprime_counts(re, im, 48).tolist() == want
        for a, b, c in zip(re.tolist(), im.tolist(), want):
            assert region.coprime_counts([a], [b], 48).tolist() == [c], (a, b)
        assert region.coprime_counts([195], [195], 300).tolist() == [moebius_sum(g(195, 195), 300)]

    def test_coprime_counts_refuse_zero(self):
        for re, im in (([0], [0]), ([1, 0], [0, 0])):
            with pytest.raises(DomainError):
                region.coprime_counts(re, im, 5)

    def test_coprime_counts_refuse_s_beyond_S(self, monkeypatch):
        # |s| > S is refused before any kernel call, alone or after a valid s
        def called(*args):
            raise AssertionError("a kernel mode was called")

        monkeypatch.setattr(region, "_escape_core", called)
        monkeypatch.setattr(region, "_escape_counts_per_t", called)
        for re, im, S in (([2], [2], 2), ([5], [0], 3), ([1, 3], [0, 3], 4), ([1], [0], 0)):
            with pytest.raises(DomainError):
                region.coprime_counts(re, im, S)

    def test_production_stays_inside_the_kernel_contract(self, monkeypatch):
        # every (t, B) that the counting route, the per-denominator oracle
        # and the per-spec counts send to either mode has 0 < |t|^2 <= B,
        # and each caller reaches the mode it picks
        from fordspheres import moment

        core, per_t = region._escape_core, region._escape_counts_per_t
        sizes = {"arrays": [], "per-t": []}

        def spy_core(a, b, w, uB):
            n = a * a + b * b
            assert np.all((a >= b) & (b >= 0) & (n > 0) & (n <= uB[w]))
            sizes["arrays"].append(len(a))
            return core(a, b, w, uB)

        def spy_per_t(t_re, t_im, bounds):
            assert all(0 < x * x + y * y <= B for x, y, B in zip(t_re, t_im, bounds))
            sizes["per-t"].append(len(bounds))
            return per_t(t_re, t_im, bounds)

        def reached(run):
            for v in sizes.values():
                v.clear()
            run()
            return {mode: list(v) for mode, v in sizes.items()}

        monkeypatch.setattr(region, "_escape_core", spy_core)
        monkeypatch.setattr(region, "_escape_counts_per_t", spy_per_t)
        counting = reached(lambda: [moment.moment_first_counting(S) for S in range(1, 65)])
        assert len(counting["arrays"]) == 64 and counting["per-t"] == []
        oracle = reached(lambda: [moment.consecutive_partner_counts(S) for S in range(1, 25)])
        # one batch per S, on arrays beyond PER_T_BATCH pairs (S >= 5)
        assert oracle["per-t"] == [1, 5, 13, 27] and len(oracle["arrays"]) == 20
        assert min(oracle["arrays"]) > region.PER_T_BATCH
        for s, S, pairs in ((g(89, 381), 512, 4), (g(195, 195), 300, 64)):
            spec = OmegaSpec(s, S)
            assert reached(lambda: omega_lattice_count(spec)) == {"arrays": [], "per-t": [1]}
            short = pairs <= region.PER_T_BATCH
            want = {"arrays": [] if short else [pairs], "per-t": [pairs] if short else []}
            assert reached(lambda: omega_lattice_count(spec, True)) == want, s

    def test_count_tracks_area(self):
        for S in (4, 8, 16):
            for a in range(1, S + 1):
                for b in range(0, S + 1):
                    if 1 <= a * a + b * b <= S * S:
                        spec = OmegaSpec(g(a, b), S)
                        dev = abs(omega_lattice_count(spec) - omega_area(spec))
                        assert dev <= 2.0 * S


class TestPrediction:
    def test_unit_denominator_prediction_is_area(self):
        spec = OmegaSpec(ONE, 5)
        assert coprime_count_prediction(spec) == pytest.approx(omega_area(spec))

    def test_half_density_for_one_plus_i(self):
        spec = OmegaSpec(g(1, 1), 4)
        assert coprime_count_prediction(spec) == pytest.approx(omega_area(spec) / 2)
        count = omega_lattice_count(spec, True)
        pred = coprime_count_prediction(spec)
        assert abs(count - pred) / pred < 0.2

    def test_mean_deviation_small_sweep(self):
        devs = []
        S = 16
        for a in range(1, S + 1):
            for b in range(0, S + 1):
                if 1 <= a * a + b * b <= S * S:
                    spec = OmegaSpec(g(a, b), S)
                    count = omega_lattice_count(spec, True)
                    pred = coprime_count_prediction(spec)
                    devs.append(abs(count - pred) / pred)
        assert sum(devs) / len(devs) <= 0.10


class TestBoundarySurrogate:
    def test_base_value(self):
        assert boundary_length_surrogate(1) == pytest.approx(8 * math.pi)

    def test_linear_scaling(self):
        a = boundary_length_surrogate(10)
        b = boundary_length_surrogate(20)
        assert b == pytest.approx(2 * a)
