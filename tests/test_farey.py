import os
import subprocess
import sys
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from fordspheres.farey import (
    GFraction,
    INT64_S_LIMIT,
    consecutive_denominator_conditions,
    consecutive_pairs,
    consecutive_pairs_for_denoms,
    consecutive_pairs_scan,
    enumerate_fq,
    enumerate_gs,
    generate_gs_by_mediants,
    gs_arrays,
    is_adjacent,
    is_consecutive,
    is_consecutive_fq,
    mediant_children,
    spheres_tangent,
)
from fordspheres import arith, farey, region
from fordspheres.gint import DomainError, GInt, ONE, norm


def g(re, im=0):
    return GInt(re, im)


def frac(nre, nim, dre, dim=0):
    return GFraction.make(g(nre, nim), g(dre, dim))


def consecutive_finds(S, cols):
    """The finds of farey._neighbour_blocks(cols) that are consecutive at
    level S, those whose largest mediant escapes, M > S^2, as
    (i, Re s', Im s') blocks."""
    for i, sp_re, sp_im, mediant in farey._neighbour_blocks(cols):
        escape = mediant > S * S
        yield i[escape], sp_re[escape], sp_im[escape]


def partner_finds(S):
    """The consecutive finds of the neighbour solve on all of G_S as sorted
    (i, Re s', Im s') triples."""
    blocks = list(consecutive_finds(S, gs_arrays(S)))
    return sorted(zip(*(np.concatenate(c).tolist() for c in zip(*blocks))))


def box_scan_degrees(S, gs):
    """Forward finds per fraction r/s by scanning the box |Re k|, |Im k| <= 2
    of s' = x + k s for the partners with |s'| <= |s|, with r' = (r s' - 1)/s
    divided out and the square and escape tests taken on r' and s'
    literally, a few thousand fractions at a time; also the number of tie
    finds, |s'| = |s|."""
    x_re, x_im = farey._inverse_mod(*gs[3:], *gs[1:3])
    side = np.arange(-2, 3)
    k_re, k_im = (a.ravel()[None, :] for a in np.meshgrid(side, side))
    degrees, ties = [], 0
    for lo in range(0, len(gs[0]), 4096):
        v, sr, si, rr, ri, xr, xi = (c[lo : lo + 4096, None] for c in (*gs, x_re, x_im))
        sp_re = xr + k_re * sr - k_im * si
        sp_im = xi + k_re * si + k_im * sr
        nsp = sp_re * sp_re + sp_im * sp_im
        w_re, w_im = rr * sp_re - ri * sp_im - 1, rr * sp_im + ri * sp_re
        t_re, t_im = w_re * sr + w_im * si, w_im * sr - w_re * si
        assert not np.any(t_re % v) and not np.any(t_im % v)
        rp_re, rp_im = t_re // v, t_im // v
        p_re, p_im = rp_re * sp_re + rp_im * sp_im, rp_im * sp_re - rp_re * sp_im
        escape = np.zeros(nsp.shape, dtype=bool)
        for u_re, u_im in ((1, 0), (0, 1), (-1, 0), (0, -1)):
            m_re = sr + u_re * sp_re - u_im * sp_im
            m_im = si + u_re * sp_im + u_im * sp_re
            escape |= m_re * m_re + m_im * m_im > S * S
        keep = (nsp > 0) & (nsp <= v) & escape
        keep &= (p_re >= 0) & (p_re <= nsp) & (p_im >= 0) & (p_im <= nsp)
        # the disc |s'| <= |s| lies well inside the box: |k| <= 1 + |x/s| < 2
        assert not np.any((nsp <= v) & ((np.abs(k_re) == 2) | (np.abs(k_im) == 2)))
        degrees.append(keep.sum(axis=1))
        ties += int(np.count_nonzero(keep & (nsp == v)))
    return np.concatenate(degrees), ties


F0 = frac(0, 0, 1)
F1 = frac(1, 0, 1)
FI = frac(0, 1, 1)
F1I = frac(1, 1, 1)


class TestGFraction:
    def test_make_reduces_and_canonicalizes(self):
        f = GFraction.make(g(2, 2), g(2, 0))
        assert f == frac(1, 1, 1)
        f = GFraction.make(g(1, 1), g(2, 0))  # (1+i)/2 reduces to i/(1+i)
        assert f.den == g(1, 1)
        assert f.value() == (Fraction(1, 2), Fraction(1, 2))

    def test_zero_denominator(self):
        with pytest.raises(DomainError):
            GFraction.make(ONE, g(0, 0))

    def test_unit_square_membership(self):
        assert frac(1, 1, 2).in_unit_square()
        assert not GFraction.make(g(3, 0), g(2, 0)).in_unit_square()
        assert F0.in_unit_square() and F1I.in_unit_square()

    def test_sphere_radius_invariant(self):
        for f in enumerate_gs(3):
            sph = f.sphere()
            assert sph.radius * 2 * norm(f.den) == 1

    def test_text(self):
        assert str(frac(0, 1, 1, 1)) == "i/(1+i)"
        assert str(frac(1, 0, 2)) == "1/2"


class TestEnumerate:
    def test_level_one(self):
        assert set(enumerate_gs(1)) == {F0, F1, FI, F1I}

    def test_level_two_is_the_nine_fractions(self):
        expected = {
            F0,
            F1,
            FI,
            F1I,
            frac(0, 1, 1, 1),  # i/(1+i)
            frac(1, 0, 2),
            frac(0, 1, 2),
            frac(2, 1, 2),
            frac(1, 2, 2),
        }
        assert set(enumerate_gs(2)) == expected

    def test_members_are_reduced_and_in_square(self):
        for f in enumerate_gs(5):
            assert f.in_unit_square()
            assert f == GFraction.make(f.num, f.den)

    def test_sorted_deterministically(self):
        fractions = enumerate_gs(4)
        keys = [f.sort_key() for f in fractions]
        assert keys == sorted(keys)

    def test_arrays_come_out_in_sort_key_order(self):
        # the columns are (norm(s), Re s, Im s, Re r, Im r), the sort_key;
        # they are built in that order, with no sort afterwards
        for S in range(1, 25):
            cols = np.stack(gs_arrays(S))
            order = np.lexsort(cols[::-1])
            assert np.array_equal(order, np.arange(cols.shape[1])), S


def run_fresh(code):
    """Run code in a fresh interpreter with this package importable, and
    return its stdout."""
    src = os.path.dirname(os.path.dirname(farey.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout


class TestTable:
    def test_shells_continue_a_lower_level(self):
        # _finds appends the shell between the level built and S to what
        # it holds, so G_lo followed by _shell(lo, S) must be G_S
        for S in range(1, 17):
            full = np.stack(gs_arrays(S))
            for lo in range(1, S):
                grown = np.concatenate([np.stack(gs_arrays(lo)), *farey._shell(lo, S)], axis=1)
                assert np.array_equal(grown, full), (lo, S)

    def test_triangle_blocks_are_the_representatives(self):
        # _finds expands only the triangle of each tilted square: the
        # fractions of the shell that _orbit_sizes takes as representatives
        for S in range(1, 17):
            for lo in range(S):
                full = np.concatenate(list(farey._shell(lo, S)), axis=1)
                triangle = np.concatenate(list(farey._shell(lo, S, triangle=True)), axis=1)
                assert np.array_equal(triangle, full[:, farey._orbit_sizes(*full) > 0]), (lo, S)

    @pytest.mark.parametrize("S", [1, 2, 3, 5, 8, 13, 20, 33])
    def test_triangle_boxes_keep_every_representative(self, S):
        # the triangle's bounding box, not the whole tilted square, is
        # expanded; at larger S, from the origin and from half way
        for lo in (0, S // 2):
            full = np.concatenate(list(farey._shell(lo, S)), axis=1)
            triangle = np.concatenate(list(farey._shell(lo, S, triangle=True)), axis=1)
            assert np.array_equal(triangle, full[:, farey._orbit_sizes(*full) > 0]), (lo, S)

    def test_import_and_constants_leave_the_table_empty(self):
        # _finds_cache is farey's only cache
        code = "from fordspheres import farey, moment\nmoment.constants_bundle()\nprint(len(farey._finds_cache))\n"
        assert run_fresh(code).split() == ["0"]

    def test_a_cold_direct_total_keeps_only_the_table(self):
        # after the first direct_total at S = 40, what stays allocated is
        # the table of counts per level and norm, and no list of finds or
        # table of G_S
        code = (
            "import tracemalloc\nfrom fordspheres import farey, moment\nmoment.constants_bundle()\n"
            "tracemalloc.start()\nmoment.direct_total(40)\n"
            "print(tracemalloc.get_traced_memory()[0], farey._finds_cache[0][1].nbytes)\n"
        )
        held, table = map(int, run_fresh(code).split())
        assert table == 81 * 1601 * 8
        assert held <= table + (1 << 20), (held, table)


def table_bytes(S):
    """The table of farey._finds for the levels up to S, as bytes."""
    rows = farey._finds(S)
    assert rows.dtype == np.int64 and rows.shape == (S + 1, S * S + 1)
    return rows.tobytes()


class TestFinds:
    LEVELS = range(1, 17)

    @pytest.mark.parametrize("order", ["ascending", "descending", "jumping"])
    def test_prefix_views_equal_a_fresh_build(self, monkeypatch, order):
        # the finds do not depend on S, so the rows up to S of a table grown
        # in any order equal those of one built for S alone
        fresh = {}
        for S in self.LEVELS:
            monkeypatch.setattr(farey, "_finds_cache", [])
            fresh[S] = table_bytes(S)
        levels = list(self.LEVELS)
        if order == "descending":
            levels.reverse()
        elif order == "jumping":
            levels = [3, 1, 9, 2, 16, 5, 12, 4, 8, 15, 6, 7, 14, 10, 13, 11]
        monkeypatch.setattr(farey, "_finds_cache", [])
        for S in levels + list(self.LEVELS):
            assert table_bytes(S) == fresh[S], S

    def test_finds_at_level_twelve(self, monkeypatch):
        # the 2,102 finds of the 668 representatives, consecutive at S = 12
        # or not: each has its s end, and 2,079 of them an s' end
        # (|s'| < |s|), the other 23 being ties; their ends weigh 32,192 in
        # all.  The 1,694 partner finds of TestSymmetry, those with an
        # escaping largest mediant, give row 12 of the table
        monkeypatch.setattr(farey, "_finds_cache", [])
        rows = farey._finds(12)
        gs = np.stack(gs_arrays(12))
        sizes = farey._orbit_sizes(*gs)
        reps = np.flatnonzero(sizes)
        finds = lower = weight = partners = 0
        row = np.zeros(145, np.int64)
        for i, sp_re, sp_im, mediant in farey._neighbour_blocks(gs[:, reps]):
            n, n_p, w = gs[0, reps[i]], sp_re * sp_re + sp_im * sp_im, sizes[reps[i]].astype(np.int64)
            low, escape = n_p < n, mediant > 144
            finds += len(i)
            lower += int(np.count_nonzero(low))
            weight += int(w.sum() + w[low].sum())
            partners += int(np.count_nonzero(escape))
            row += np.bincount(n[escape], w[escape], 145).astype(np.int64)
            row += np.bincount(n_p[escape & low], w[escape & low], 145).astype(np.int64)
        assert (len(reps), finds, lower, weight, partners) == (668, 2102, 2079, 32192, 1694)
        assert np.array_equal(rows[12], row)
        # each consecutive pair has two ends: the row sums are twice the
        # pair counts of the direct pins, 4, 12, 72, ... 13,112
        assert rows.sum(axis=1).tolist() == [0, 8, 24, 144, 352, 936, 1680, 3216, 5400, 8720, 13472, 20024, 26224]
        assert np.all(rows[:, 0] == 0) and np.all(rows >= 0)

    def test_views_are_read_only(self):
        for rows in (farey._finds(5), farey._finds(5)[5]):
            with pytest.raises(ValueError):
                rows[0] = 0

    def test_a_raising_build_leaves_the_table_as_it_was(self, monkeypatch):
        # the inverse of test_neighbour_solve_checks_the_inverse, caught
        # while a shell's representatives are scanned
        def off_by_one(r_re, r_im, s_re, s_im):
            x_re, x_im = inverse(r_re, r_im, s_re, s_im)
            return x_re + (s_re * s_re + s_im * s_im > 1), x_im

        fresh_table = []
        monkeypatch.setattr(farey, "_finds_cache", fresh_table)
        before = table_bytes(1)
        inverse = farey._inverse_mod
        monkeypatch.setattr(farey, "_inverse_mod", off_by_one)
        with pytest.raises(ArithmeticError, match="not divisible"):
            farey._finds(4)
        assert [(built, table.shape) for built, table in fresh_table] == [(1, (3, 2))]
        assert table_bytes(1) == before

    def test_a_level_past_the_int64_limit_is_refused_before_the_table_grows(self, monkeypatch):
        # the shell checks S when it is made, before the grown table (8 TiB
        # at the limit) is allocated, and the cache stays as it was
        from fordspheres import moment

        cache = []
        monkeypatch.setattr(farey, "_finds_cache", cache)
        farey._finds(3)
        before = list(cache)
        with pytest.raises(ArithmeticError, match=f"exact in int64 for S < {INT64_S_LIMIT}; got {INT64_S_LIMIT}"):
            moment.direct_total(INT64_S_LIMIT)
        assert len(cache) == 1 and cache[0] is before[0]

    def test_rows_recount_the_full_scan(self, monkeypatch):
        # the level bounds ceil(sqrt N) and floor(sqrt(M - 1)) against a
        # recount at each level L <= 12 from the consecutive partners of
        # all of G_L, unweighted: 1 at norm(s), and 1 at norm(s') when it
        # is smaller; the rows are read from one table built at 12
        monkeypatch.setattr(farey, "_finds_cache", [])
        farey._finds(12)
        for L in range(1, 13):
            gs = gs_arrays(L)
            counts = np.zeros(L * L + 1, np.int64)
            for i, sp_re, sp_im in consecutive_finds(L, gs):
                n, n_p = gs[0][i], sp_re * sp_re + sp_im * sp_im
                np.add.at(counts, n, 1)
                np.add.at(counts, n_p[n_p < n], 1)
            assert np.array_equal(farey._finds(L)[L], counts), L
        assert farey._finds_cache[0][0] == 12


def square_images(f):
    """The images of f under x -> 1 - x, y -> 1 - y and x <-> y, written
    as maps of (r, s) and reduced by GFraction.make."""
    r, s = f.num.conj(), f.den.conj()
    return (GFraction.make(s - r, s), GFraction.make(r + g(0, 1) * s, s), GFraction.make(g(0, 1) * r, s))


class TestSymmetry:
    @pytest.mark.parametrize("S", range(1, 11))
    def test_orbits_of_the_representatives_partition_gs(self, S):
        fractions = enumerate_gs(S)
        sizes = farey._orbit_sizes(*gs_arrays(S))
        seen = set()
        for i in np.flatnonzero(sizes).tolist():
            orbit, todo = {fractions[i]}, [fractions[i]]
            while todo:
                for image in square_images(todo.pop()):
                    assert norm(image.den) == norm(fractions[i].den)
                    if image not in orbit:
                        orbit.add(image)
                        todo.append(image)
            assert len(orbit) == sizes[i], fractions[i]
            assert not orbit & seen
            seen |= orbit
        assert seen == set(fractions)

    @pytest.mark.parametrize("S", range(1, 25))
    def test_sizes_sum_to_the_level(self, S):
        sizes = farey._orbit_sizes(*gs_arrays(S))
        assert sizes.sum() == len(sizes)
        assert set(sizes.tolist()) <= {0, 1, 4, 8}

    def test_representatives_at_level_twelve(self):
        # one fraction in eight is scanned, with an eighth of the finds
        gs = np.stack(gs_arrays(12))
        sizes = farey._orbit_sizes(*gs)
        reps = np.flatnonzero(sizes)
        finds = sum(len(i) for i, _, _ in consecutive_finds(12, gs[:, reps]))
        assert (len(sizes), len(reps), finds, len(partner_finds(12))) == (5157, 668, 1694, 13172)


class TestMediants:
    def test_children_of_zero_one(self):
        kids = mediant_children(F0, F1)
        assert set(kids) == {frac(1, 0, 2), frac(0, 1, 1, 1)}

    def test_children_of_zero_i(self):
        kids = mediant_children(F0, FI)
        assert set(kids) == {frac(0, 1, 2), frac(0, 1, 1, 1)}

    def test_child_adjacency_identity(self):
        rng = Random(4)
        fractions = enumerate_gs(4)
        pairs = 0
        while pairs < 60:
            f1, f2 = rng.choice(fractions), rng.choice(fractions)
            if f1 == f2 or not is_adjacent(f1, f2):
                continue
            pairs += 1
            for child in mediant_children(f1, f2):
                assert is_adjacent(child, f1)
                assert is_adjacent(child, f2)
                assert child.in_unit_square()

    def test_non_adjacent_rejected(self):
        with pytest.raises(DomainError):
            mediant_children(F0, F1I)

    def test_closure_small_levels(self):
        assert generate_gs_by_mediants(1) == set(enumerate_gs(1))
        for S in (2, 3, 4, 5, 6):
            assert generate_gs_by_mediants(S) == set(enumerate_gs(S))


class TestAdjacency:
    def test_examples(self):
        assert is_adjacent(F0, frac(0, 1, 1, 1))
        assert not is_adjacent(frac(1, 0, 2), frac(0, 1, 2))
        assert not is_adjacent(F0, F0)

    def test_tangency_matches_examples(self):
        assert spheres_tangent(F0, frac(0, 1, 1, 1))
        assert not spheres_tangent(F0, F1I)

    def test_tangency_equals_adjacency_everywhere(self):
        fractions = enumerate_gs(4)
        for i, f1 in enumerate(fractions):
            for f2 in fractions[i + 1 :]:
                assert is_adjacent(f1, f2) == spheres_tangent(f1, f2)

    def test_tangency_rejects_equal(self):
        with pytest.raises(DomainError):
            spheres_tangent(F0, F0)


class TestConsecutive:
    def test_examples(self):
        fii = frac(0, 1, 1, 1)
        assert is_consecutive(F0, fii, 2)
        assert not is_consecutive(F0, fii, 3)
        assert is_consecutive(F0, F1, 1)

    def test_denominator_conditions(self):
        assert consecutive_denominator_conditions(ONE, g(1, 1), 2)
        assert not consecutive_denominator_conditions(ONE, g(1, 1), 3)
        assert not consecutive_denominator_conditions(g(2), g(1, 1), 5)
        assert not consecutive_denominator_conditions(g(2), g(1, 1), 100)

    def test_pairs_for_unit_denominators(self):
        pairs = consecutive_pairs_for_denoms(ONE, ONE, 1)
        expected = {
            (F0, FI),
            (F0, F1),
            (FI, F1I),
            (F1, F1I),
        }
        assert set(pairs) == expected

    def test_pairs_satisfy_geometry(self):
        for s, sp, S in ((ONE, g(1, 1), 2), (g(2), g(2, 1), 3), (g(2, 1), g(3, 0), 4)):
            if not consecutive_denominator_conditions(s, sp, S):
                continue
            for f1, f2 in consecutive_pairs_for_denoms(s, sp, S):
                assert is_consecutive(f1, f2, S)
                assert {f1.den, f2.den} == {s, sp}

    def test_pair_counts_at_level_four(self):
        # four per qualifying pair, eight when both denominators are real
        denoms = sorted(
            {f.den for f in enumerate_gs(4)}, key=lambda q: (norm(q), q.re, q.im)
        )
        seen_degenerate = 0
        for i, s in enumerate(denoms):
            for sp in denoms[i:]:
                if not consecutive_denominator_conditions(s, sp, 4):
                    continue
                got = len(consecutive_pairs_for_denoms(s, sp, 4))
                if s.im == 0 and sp.im == 0 and s != sp:
                    assert got == 8, (s, sp)
                    seen_degenerate += 1
                else:
                    assert got == 4, (s, sp)
        assert seen_degenerate == 3  # (1,4), (2,3), (3,4)

    def test_precondition_enforced(self):
        with pytest.raises(DomainError):
            consecutive_pairs_for_denoms(ONE, g(1, 1), 3)

    def test_solver_matches_geometric_scan_at_level_eight(self):
        S = 8
        realized = {}
        for f1, f2 in consecutive_pairs(S):
            key = tuple(sorted((f1.den, f2.den), key=lambda q: (norm(q), q.re, q.im)))
            realized.setdefault(key, set()).add((f1, f2))
        assert len(realized) > 300
        for (s, sp), pairs in realized.items():
            assert set(consecutive_pairs_for_denoms(s, sp, S)) == pairs

    def test_neighbour_solve_equals_scan(self):
        for S in range(1, 9):
            assert consecutive_pairs(S) == consecutive_pairs_scan(S), S

    def test_neighbour_solve_is_blockwise(self, monkeypatch):
        S = 9
        gs = gs_arrays(S)
        pairs = consecutive_pairs(S)
        keys = [(f.sort_key(), f2.sort_key()) for f, f2 in pairs]
        # each pair once, its ends in sort_key order, the pairs in order
        assert all(a < b for a, b in keys)
        assert all(p < q for p, q in zip(keys, keys[1:]))
        finds = partner_finds(S)
        # blocks of a few fractions each, and one fraction per block where
        # its disc alone exceeds the block size; G_S is built in these
        # blocks too
        monkeypatch.setattr(region, "BLOCK_ELEMENTS", 40)
        for a, b in zip(gs_arrays(S), gs):
            assert a.tolist() == b.tolist()
        assert partner_finds(S) == finds
        assert consecutive_pairs(S) == pairs

    @pytest.mark.parametrize("S", [5, 10, 13, 25])
    def test_disc_scan_equals_box_scan_on_the_edge(self, S):
        # the edge of the disc of r/s is |s'| = |s|; the ties on it are
        # found from both ends
        degrees, on_edge = box_scan_degrees(S, gs_arrays(S))
        assert on_edge == {5: 24, 10: 88, 13: 152, 25: 584}[S]
        finds = np.concatenate([i for i, _, _ in consecutive_finds(S, gs_arrays(S))])
        assert np.bincount(finds, minlength=len(degrees)).tolist() == degrees.tolist()

    @pytest.mark.parametrize("block", [1, 7, 40])
    def test_neighbour_solve_is_independent_of_block_size(self, monkeypatch, block):
        S = 6
        gs = gs_arrays(S)
        pairs = consecutive_pairs(S)
        finds = partner_finds(S)
        monkeypatch.setattr(region, "BLOCK_ELEMENTS", block)
        for a, b in zip(gs_arrays(S), gs):
            assert a.tolist() == b.tolist()
        assert partner_finds(S) == finds
        assert consecutive_pairs(S) == pairs

    def test_neighbour_solve_checks_the_inverse(self, monkeypatch):
        # a wrong x = r^-1 mod s is caught once per fraction, as the block
        # that holds it is scanned
        def off_by_one(r_re, r_im, s_re, s_im):
            x_re, x_im = inverse(r_re, r_im, s_re, s_im)
            return x_re + (s_re * s_re + s_im * s_im > 1), x_im

        assert len(consecutive_pairs(4)) == 176
        inverse = farey._inverse_mod
        monkeypatch.setattr(farey, "_inverse_mod", off_by_one)
        with pytest.raises(ArithmeticError, match="not divisible"):
            consecutive_pairs(4)

    def test_neighbour_solve_refuses_a_missing_partner(self, monkeypatch):
        # 0/1 is a partner of 1/S, found from the end 1/S; G_S here holds
        # 2Si/1 in its place, so that find has no fraction to point to
        S = 4
        cols = [c.copy() for c in gs_arrays(S)]
        cols[4][0] = 2 * S
        monkeypatch.setattr(farey, "gs_arrays", lambda level: tuple(cols))
        with pytest.raises(ArithmeticError, match="missing from G_S"):
            consecutive_pairs(S)

    def test_neighbour_solve_refuses_inexact_input(self, monkeypatch):
        # refused before any cell of G_S is allocated
        def no_cells(max_norm):
            raise AssertionError("canonical_cells was called")

        monkeypatch.setattr(arith, "canonical_cells", no_cells)
        with pytest.raises(ArithmeticError, match="exact in int64"):
            gs_arrays(INT64_S_LIMIT)
        # 2/2 is not reduced: no inverse of 2 modulo 2
        bad = tuple(np.array([v], dtype=np.int64) for v in (4, 2, 0, 2, 0))
        with pytest.raises(ArithmeticError):
            farey._inverse_columns(*bad)

    def test_geometric_scan_at_level_two(self):
        pairs = consecutive_pairs(2)
        assert len(pairs) == 12
        for f1, f2 in pairs:
            assert is_consecutive(f1, f2, 2)


class TestRealFarey:
    def test_order_three(self):
        assert enumerate_fq(3) == [
            Fraction(0),
            Fraction(1, 3),
            Fraction(1, 2),
            Fraction(2, 3),
            Fraction(1),
        ]

    def test_predicate_examples(self):
        assert is_consecutive_fq(Fraction(1, 3), Fraction(1, 2), 3)
        assert not is_consecutive_fq(Fraction(0), Fraction(1, 2), 3)

    def test_predicate_matches_positions(self):
        for Q in range(1, 21):
            seq = enumerate_fq(Q)
            for i, lo in enumerate(seq):
                for j in range(i + 1, len(seq)):
                    assert is_consecutive_fq(lo, seq[j], Q) == (j == i + 1)
