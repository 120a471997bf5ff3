"""Named verification checks at desk scale.

Each check re-derives one identity, bound, or trend from scratch and
compares independent routes (formula vs. brute force, closed form vs.
quadrature, geometric scan vs. arithmetic classification).  The CLI
`verify` command runs them by suite and prints one pass/fail line per
check; the acceptance test module drives the same functions.

Tolerances are fixed here, not tuned at run time.  Empirically measured
slack is recorded next to each constant.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Callable

import numpy as np

from . import arith, farey, moment, oracles, region
from .gint import GInt, ONE, canonical, is_coprime, norm

CheckFn = Callable[[], tuple[bool, str]]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str
    elapsed: float


_REGISTRY: list[tuple[str, str, CheckFn]] = []


def _check(suite: str, name: str):
    def deco(fn: CheckFn) -> CheckFn:
        _REGISTRY.append((suite, name, fn))
        return fn

    return deco


def suites() -> list[str]:
    seen = []
    for suite, _, _ in _REGISTRY:
        if suite not in seen:
            seen.append(suite)
    return seen


def run_suite(suite: str) -> list[CheckResult]:
    if suite != "all" and suite not in suites():
        raise ValueError(f"unknown suite {suite!r}; have {suites() + ['all']}")
    results = []
    for st, name, fn in _REGISTRY:
        if suite != "all" and st != suite:
            continue
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - a crash is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(st, name, ok, detail, time.perf_counter() - t0))
    return results


@lru_cache(maxsize=8)
def _canonical_upto(max_norm: int) -> list[GInt]:
    rex, imy, _ = arith.canonical_cells(max_norm)
    return [GInt(int(x), int(y)) for x, y in zip(rex, imy)]


# ---------------------------------------------------------------------------
# arith
# ---------------------------------------------------------------------------

EXACT_IDENTITY_MAX_NORM = 10_000
RESIDUE_ORACLE_MAX_NORM = 400


@lru_cache(maxsize=2)
def _scalar_tables(max_norm: int) -> dict[GInt, tuple[int, int]]:
    """(mu, phi) per canonical value, via the factorization route only."""
    return {q: (arith.mu_i(q), arith.phi_i(q)) for q in _canonical_upto(max_norm)}


@_check("arith", "mobius divisor sum is the unit indicator")
def check_mobius_divisor_sum() -> tuple[bool, str]:
    tab = _scalar_tables(EXACT_IDENTITY_MAX_NORM)
    bad = 0
    for q in tab:
        total = sum(tab[d][0] for d in arith.divisors(q))
        if total != (1 if q == ONE else 0):
            bad += 1
    return bad == 0, f"{len(tab)} values with norm <= {EXACT_IDENTITY_MAX_NORM}, {bad} violations"


@_check("arith", "phi divisor sum equals the norm")
def check_phi_divisor_sum() -> tuple[bool, str]:
    tab = _scalar_tables(EXACT_IDENTITY_MAX_NORM)
    bad = sum(
        1
        for q in tab
        if sum(tab[d][1] for d in arith.divisors(q)) != norm(q)
    )
    return bad == 0, f"{len(tab)} values with norm <= {EXACT_IDENTITY_MAX_NORM}, {bad} violations"


@_check("arith", "phi equals norm times mobius sum over divisors (exact rationals)")
def check_phi_mobius_formula() -> tuple[bool, str]:
    tab = _scalar_tables(EXACT_IDENTITY_MAX_NORM)
    bad = 0
    for q in tab:
        acc = sum(Fraction(tab[d][0], norm(d)) for d in arith.divisors(q))
        if Fraction(norm(q)) * acc != tab[q][1]:
            bad += 1
    return bad == 0, f"{len(tab)} values, {bad} violations"


@_check("arith", "phi is multiplicative on coprime pairs")
def check_phi_multiplicative() -> tuple[bool, str]:
    rng = Random(20240)
    cells = _canonical_upto(100)
    checked = 0
    bad = 0
    while checked < 300:
        q = rng.choice(cells)
        r = rng.choice(cells)
        if not is_coprime(q, r):
            continue
        checked += 1
        if arith.phi_i(canonical(q * r)) != arith.phi_i(q) * arith.phi_i(r):
            bad += 1
    return bad == 0, f"300 random coprime pairs, {bad} violations"


@_check("arith", "phi from factorization equals residue-ring count")
def check_phi_residue_oracle() -> tuple[bool, str]:
    cells = _canonical_upto(RESIDUE_ORACLE_MAX_NORM)
    bad = sum(1 for q in cells if arith.phi_i(q) != oracles.phi_i_residues(q))
    return bad == 0, f"{len(cells)} values with norm <= {RESIDUE_ORACLE_MAX_NORM}, {bad} violations"


@_check("arith", "sieve agrees with the factorization route")
def check_sieve_vs_factorization() -> tuple[bool, str]:
    # both run over the cells of canonical_cells, in its order
    sieve = arith.CanonicalSieve(EXACT_IDENTITY_MAX_NORM)
    tab = _scalar_tables(EXACT_IDENTITY_MAX_NORM)
    mu, phi = np.array(list(tab.values())).T
    bad = int(np.count_nonzero((sieve.mu != mu) | (sieve.phi != phi)))
    return bad == 0, f"{len(tab)} values, {bad} sieve mismatches"


@_check("arith", "per-norm zeta coefficients match the per-cell sieve")
def check_norm_coefficients() -> tuple[bool, str]:
    # a(n) counts the canonical cells of norm n and b(n) sums their mu; the
    # sieve's cells, binned by norm, give both from the same rational-prime
    # pass but their own local factors and gcd(re, im)
    sieve = arith.CanonicalSieve(EXACT_IDENTITY_MAX_NORM)
    a, b = arith.norm_coefficients(EXACT_IDENTITY_MAX_NORM)
    size = EXACT_IDENTITY_MAX_NORM + 1
    cells = np.bincount(sieve.norms, minlength=size)
    mu_sum = np.bincount(sieve.norms, weights=sieve.mu, minlength=size)
    bad = int(np.count_nonzero(a != cells) + np.count_nonzero(b != mu_sum))
    r2_bad = sum(1 for n in range(1, size) if 4 * int(a[n]) != arith.r2(n))
    return bad == 0 and r2_bad == 0, (
        f"n <= {EXACT_IDENTITY_MAX_NORM}: {bad} mismatches with the sieve's per-norm bins, "
        f"{r2_bad} with r2(n) / 4"
    )


@_check("arith", "divisor-lattice machinery is self-consistent")
def check_divisor_machinery() -> tuple[bool, str]:
    cells = _canonical_upto(300)
    for q in cells:
        divs = arith.divisors(q)
        norm_table = {d: norm(d) for d in divs}
        if not oracles.mobius_inversion_check(norm_table, q):
            return False, f"inversion fails for the norm table at q = {q}"
        if oracles.divisor_sum_multiplicative(arith.phi_i, q) != norm(q):
            return False, f"multiplicative phi divisor sum is not norm at q = {q}"
        if oracles.divisor_sum_multiplicative(arith.mu_i, q) != oracles.mobius_divisor_sum(q):
            return False, f"multiplicative mobius sum disagrees at q = {q}"
    return True, f"{len(cells)} values with norm <= 300: inversion and product forms agree"


@_check("arith", "r2 formula matches direct scan")
def check_r2() -> tuple[bool, str]:
    bad = sum(1 for n in range(0, 2001) if arith.r2(n) != oracles.r2_direct(n))
    spot = arith.r2(1) == 4 and arith.r2(3) == 0 and arith.r2(25) == 12
    return bad == 0 and spot, f"n <= 2000, {bad} mismatches; spot values {'ok' if spot else 'WRONG'}"


R2_PARTIAL_SUM_BOUND = 4.0  # measured max |error|/sqrt(N) is ~1.3 up to N = 10^6


@_check("arith", "r2 partial sums track pi*N with sqrt-size error")
def check_r2_partial_sums() -> tuple[bool, str]:
    worst = 0.0
    for N in (10**3, 10**4, 10**5, 10**6):
        exact, main = oracles.sum_r2_weighted(N, 0.0)
        worst = max(worst, abs(exact - main) / math.sqrt(N))
    return worst <= R2_PARTIAL_SUM_BOUND, f"max |error|/sqrt(N) = {worst:.3f} (bound {R2_PARTIAL_SUM_BOUND})"


@_check("arith", "weighted r2 sums match their main terms")
def check_sum_r2_weighted() -> tuple[bool, str]:
    v1, m1 = oracles.sum_r2_weighted(1, 0.0)
    ok1 = v1 == 4.0 and abs(m1 - math.pi) < 1e-12
    v2, m2 = oracles.sum_r2_weighted(10**6, 0.0)
    ok2 = abs(v2 / m2 - 1.0) < 0.002
    v3, m3 = oracles.sum_r2_weighted(10**4, 1.0)
    ok3 = abs(v3 / m3 - 1.0) < 0.02
    return ok1 and ok2 and ok3, (
        f"N=1: {v1}; N=1e6 ratio {v2/m2:.5f} (0.2% allowed); "
        f"N=1e4, weight n: ratio {v3/m3:.5f} (2% allowed)"
    )


@_check("arith", "truncated zeta converges to the closed form and inverts")
def check_zeta_truncation() -> tuple[bool, str]:
    # each lattice sum falls short of zeta_i(2) = zeta(2) * Catalan by its
    # positive tail, and its Moebius companion approaches 1 / zeta_i(2)
    ok_unit = oracles.zeta_i_truncated(2, 1).value == 1.0
    rows = [(oracles.zeta_i_truncated(2, R), oracles.zeta_tail_allowance(R)) for R in (10, 40, 160, 640, 2000)]
    gaps = [arith.ZETA_I_2 - z.value for z, _ in rows]
    ok_value = all(0.0 < gap <= allowance for gap, (_, allowance) in zip(gaps, rows))
    ok_inverse = all(abs(z.inverse_value - 1.0 / arith.ZETA_I_2) <= allowance for z, allowance in rows)
    ok_prod = all(abs(z.value * z.inverse_value - 1.0) <= allowance for z, allowance in rows)
    return ok_unit and ok_value and ok_inverse and ok_prod, (
        "zeta_i(2) - value(R) for R = 10..2000: " + ", ".join(f"{g:.1e}" for g in gaps)
        + f"; inverse and product within the tail allowance: {ok_inverse and ok_prod}"
    )


@_check("arith", "zeta tail bound at s = 2")
def check_zeta_tail() -> tuple[bool, str]:
    vals = []
    for Q in (8, 16, 32, 64):
        vals.append(Q * Q * oracles.zeta_tail(2.0, Q, 4 * Q))
    ok = max(vals) <= 10.0 and vals[-1] <= vals[0] * 1.1
    return ok, "Q^2 * tail(Q..4Q) = " + ", ".join(f"{v:.3f}" for v in vals)


@_check("arith", "phi partial sums match the quartic main term")
def check_sum_phi_upto() -> tuple[bool, str]:
    e1, _ = oracles.sum_phi_upto(1)
    e2, _ = oracles.sum_phi_upto(2)  # {1, 1+i, 2}: 1 + 1 + 2
    e512, m512 = oracles.sum_phi_upto(512)
    ratio = e512 / m512
    ok = e1 == 1 and e2 == 4 and abs(ratio - 1.0) < 0.02
    return ok, f"Q=1: {e1}; Q=2: {e2}; Q=512 ratio {ratio:.5f} (2% allowed)"


# ---------------------------------------------------------------------------
# farey
# ---------------------------------------------------------------------------

MEDIANT_CLOSURE_MAX_S = 10
CLASSIFICATION_MAX_S = 6


@_check("farey", "mediant closure generates exactly the enumerated fractions")
def check_mediant_closure() -> tuple[bool, str]:
    sizes = []
    for S in range(1, MEDIANT_CLOSURE_MAX_S + 1):
        generated = oracles.generate_gs_by_mediants(S)
        enumerated = set(farey.enumerate_gs(S))
        if generated != enumerated:
            return False, f"set mismatch at S = {S}"
        sizes.append(len(enumerated))
    return True, f"S <= {MEDIANT_CLOSURE_MAX_S}, sizes {sizes}"


@_check("farey", "determinant adjacency coincides with sphere tangency")
def check_adjacency_vs_tangency() -> tuple[bool, str]:
    fractions = farey.enumerate_gs(4)
    bad = 0
    for i, f1 in enumerate(fractions):
        for f2 in fractions[i + 1 :]:
            if farey.is_adjacent(f1, f2) != oracles.spheres_tangent(f1, f2):
                bad += 1
    n = len(fractions)
    return bad == 0, f"{n * (n - 1) // 2} pairs at S = 4, {bad} disagreements"


@lru_cache(maxsize=1)
def classification_report():
    """Compare geometric consecutivity against the arithmetic conditions.

    Returns (conditions_match, counts_ok, degenerate_log) where the log
    holds every real-axis denominator pair (the documented exception that
    realizes 8 fraction pairs, or 4 on the diagonal).
    """
    conditions_match = True
    counts_ok = True
    degenerate_log: list[tuple[int, str, str, int]] = []
    for S in range(1, CLASSIFICATION_MAX_S + 1):
        realized: dict[tuple[GInt, GInt], set] = {}
        for f1, f2 in farey.consecutive_pairs(S):
            key = tuple(sorted((f1.den, f2.den), key=lambda q: (norm(q), q.re, q.im)))
            realized.setdefault(key, set()).add((f1, f2))
        denoms = _canonical_upto(S * S)
        qualifying = set()
        for i, s in enumerate(denoms):
            for sp in denoms[i:]:
                if farey.consecutive_denominator_conditions(s, sp, S):
                    qualifying.add((s, sp))
        if set(realized) != qualifying:
            conditions_match = False
        for (s, sp), pairs in sorted(realized.items(), key=lambda kv: (norm(kv[0][0]), norm(kv[0][1]))):
            solved = set(oracles.consecutive_pairs_for_denoms(s, sp, S))
            if solved != pairs:
                counts_ok = False
            both_real = s.im == 0 and sp.im == 0
            if both_real:
                degenerate_log.append((S, str(s), str(sp), len(pairs)))
                expected = 4 if s == sp else 8
            else:
                expected = 4
            if len(pairs) != expected:
                counts_ok = False
    return conditions_match, counts_ok, degenerate_log


@_check("farey", "consecutivity conditions match the geometric scan")
def check_conditions_vs_geometry() -> tuple[bool, str]:
    conditions_match, _, _ = classification_report()
    return conditions_match, f"denominator pair sets equal for S <= {CLASSIFICATION_MAX_S}"


@_check("farey", "four fraction pairs per denominator pair, eight on the real axis")
def check_four_pairs() -> tuple[bool, str]:
    _, counts_ok, log = classification_report()
    return counts_ok, (
        f"S <= {CLASSIFICATION_MAX_S}; {len(log)} real-axis pairs logged as degenerate "
        f"(8 fraction pairs each, 4 on the diagonal)"
    )


@_check("farey", "real Farey predicate matches positional consecutivity")
def check_real_farey() -> tuple[bool, str]:
    for Q in range(1, 51):
        seq = oracles.enumerate_fq(Q)
        for i, lo in enumerate(seq):
            for j in range(i + 1, len(seq)):
                predicate = oracles.is_consecutive_fq(lo, seq[j], Q)
                if predicate != (j == i + 1):
                    return False, f"mismatch at Q = {Q}: {lo}, {seq[j]}"
    return True, "Q <= 50, predicate equals list adjacency"


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------


@_check("region", "membership is invariant under unit rotation")
def check_rotation_invariance() -> tuple[bool, str]:
    bad = 0
    total = 0
    for s, S in ((ONE, 3), (GInt(1, 1), 4), (GInt(2, 1), 5)):
        spec = region.OmegaSpec(s, S)
        for x in range(-S, S + 1):
            for y in range(-S, S + 1):
                z = GInt(x, y)
                total += 1
                if region.omega_contains(z, spec) != region.omega_contains(GInt(-y, x), spec):
                    bad += 1
    return bad == 0, f"{total} points over three specs, {bad} violations"


@_check("region", "closed-form area equals quadrature of the polar integral")
def check_area_vs_quadrature() -> tuple[bool, str]:
    rng = Random(7)
    worst = 0.0
    for _ in range(100):
        S = rng.randint(2, 200)
        while True:
            a = rng.randint(1, S)
            b = rng.randint(0, S)
            if 1 <= a * a + b * b <= S * S:
                break
        spec = region.OmegaSpec(GInt(a, b), S)
        cf = region.omega_area(spec)
        qd = oracles.omega_area_quadrature(spec)
        worst = max(worst, abs(cf - qd) / qd)
    return worst <= 1e-9, f"100 random specs, worst relative gap {worst:.2e}"


@_check("region", "closed-form area at the collapse point and against sampling")
def check_area_special_values() -> tuple[bool, str]:
    ok_collapse = True
    for S in (1, 5, 10):
        spec = region.OmegaSpec(GInt(S, 0), S)
        if abs(region.omega_area(spec) - math.pi * S * S) > 1e-9:
            ok_collapse = False
    spec = region.OmegaSpec(ONE, 2)
    area = region.omega_area(spec)
    mc = oracles.omega_area_monte_carlo(spec, samples=2_000_000, seed=20240)
    ok_mc = abs(area - mc) < 0.02
    return ok_collapse and ok_mc, (
        f"|s| = S gives pi S^2 exactly; area(1, 2) = {area:.4f} vs MC {mc:.4f} "
        f"(2e6 samples, seed 20240)"
    )


@_check("region", "vectorized lattice count equals the scalar scan")
def check_count_vs_bruteforce() -> tuple[bool, str]:
    cases = [(ONE, 1), (ONE, 3), (GInt(1, 1), 3), (GInt(2, 1), 5), (GInt(3, 0), 7), (GInt(2, 2), 6)]
    for s, S in cases:
        spec = region.OmegaSpec(s, S)
        for filt in (False, True):
            fast = region.omega_lattice_count(spec, filt)
            slow = oracles.omega_lattice_count_bruteforce(spec, filt)
            if fast != slow:
                return False, f"mismatch at s={s}, S={S}, filtered={filt}: {fast} vs {slow}"
    return True, f"{len(cases)} specs, filtered and unfiltered"


AREA_DEVIATION_LADDER = (4, 8, 16, 32, 64)
UNFILTERED_AREA_DEVIATION_C = 2.0  # measured max |count - area|/S is 0.72 for S <= 64


@_check("region", "unfiltered count deviates from the area by at most c*S")
def check_count_tracks_area() -> tuple[bool, str]:
    worst = 0.0
    for S in AREA_DEVIATION_LADDER:
        for q in _canonical_upto(S * S):
            spec = region.OmegaSpec(q, S)
            dev = abs(region.omega_lattice_count(spec) - region.omega_area(spec)) / S
            worst = max(worst, dev)
    return worst <= UNFILTERED_AREA_DEVIATION_C, (
        f"S <= 64, worst |count - area|/S = {worst:.3f} (c = {UNFILTERED_AREA_DEVIATION_C})"
    )


COPRIME_PREDICTION_S = 32
COPRIME_MEAN_DEVIATION_MAX = 0.10


def _coprime_count_and_prediction(S: int):
    """(coprime count, prediction, norm) arrays over the canonical s with
    |s| <= S: the counts from one region.coprime_counts call, the
    prediction phi_i(s)/|s|^2 times the area, with phi_i from the sieve
    (check_sieve_vs_factorization ties it to the factorization route)."""
    re, im, nrm, phi, _ = arith.get_sieve(S)
    return region.coprime_counts(re, im, S), phi / nrm * region.area_closed_form(nrm, S), nrm


@_check("region", "coprime count tracks density times area")
def check_coprime_prediction() -> tuple[bool, str]:
    S = COPRIME_PREDICTION_S
    count, pred, _ = _coprime_count_and_prediction(S)
    devs = np.abs(count - pred) / pred
    mean_dev = float(np.mean(devs))
    return mean_dev <= COPRIME_MEAN_DEVIATION_MAX, (
        f"all |s| <= {S}: mean relative deviation {mean_dev:.4f} "
        f"(allowed {COPRIME_MEAN_DEVIATION_MAX}), max {devs.max():.4f}"
    )


RESIDUAL_SHAPE_BOUND = 2.0  # measured max |count - pred| / (S * norm^0.05) ~ 0.45


@_check("region", "count residuals have the boundary-error shape")
def check_residual_shape() -> tuple[bool, str]:
    worst = 0.0
    for S in (8, 16, 32):
        count, pred, nrm = _coprime_count_and_prediction(S)
        worst = max(worst, float(np.max(np.abs(count - pred) / (S * nrm**0.05))))
    return worst <= RESIDUAL_SHAPE_BOUND, (
        f"S in (8, 16, 32): max |count - pred|/(S norm^0.05) = {worst:.3f} "
        f"(bound {RESIDUAL_SHAPE_BOUND})"
    )


@_check("region", "area lower bounds hold in both regimes")
def check_area_bounds() -> tuple[bool, str]:
    checked = 0
    for S in (4, 8, 16):
        for q in _canonical_upto(S * S):
            checked += 1
            if not oracles.omega_area_bounds_check(region.OmegaSpec(q, S)):
                return False, f"bound fails at s = {q}, S = {S}"
    return True, f"{checked} specs over S in (4, 8, 16)"


def _grid_perimeter_estimate(spec: region.OmegaSpec, cells: int = 800) -> float:
    """Crude boundary length: membership transitions on a fine grid times
    the step size.  Overestimates smooth curves by at most a factor 4/pi."""
    S = spec.S
    h = 2.0 * S / cells
    xs = (np.arange(cells) + 0.5) * h - S
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    member = oracles.omega_contains_float(X, Y, spec)
    trans = np.count_nonzero(member[1:, :] != member[:-1, :]) + np.count_nonzero(
        member[:, 1:] != member[:, :-1]
    )
    return trans * h


@_check("region", "boundary surrogate dominates a measured perimeter")
def check_boundary_surrogate() -> tuple[bool, str]:
    spec = region.OmegaSpec(GInt(1, 1), 4)
    measured = _grid_perimeter_estimate(spec)
    surrogate = region.boundary_length_surrogate(spec.S)
    ok = surrogate >= measured and abs(region.boundary_length_surrogate(1) - 8 * math.pi) < 1e-12
    return ok, f"grid estimate {measured:.1f} <= surrogate {surrogate:.1f} at (1+i, 4)"


# ---------------------------------------------------------------------------
# moment
# ---------------------------------------------------------------------------

C_REFERENCE = 0.68644  # reported value, correct to the digits given
C_TOLERANCE = 1e-4
C_RUNTIME_LIMIT_S = 1.0


@_check("moment", "log-weighted disc constant value and runtime")
def check_constant_value() -> tuple[bool, str]:
    t0 = time.perf_counter()
    c = moment.constant_C()
    dt = time.perf_counter() - t0
    ok = abs(c - C_REFERENCE) <= C_TOLERANCE and dt < C_RUNTIME_LIMIT_S and c > 0.5
    return ok, f"C = {c:.8f} vs {C_REFERENCE} (tol {C_TOLERANCE}), {dt*1000:.0f} ms"


@_check("moment", "series and independent quadrature schemes agree")
def check_constant_schemes() -> tuple[bool, str]:
    c1 = moment.constant_C()
    c2 = oracles.constant_C_quad()
    c3 = oracles.constant_C_tanh_sinh()
    worst = max(abs(c1 - c2), abs(c1 - c3))
    return worst <= 1e-8, f"series vs Gauss-Legendre vs tanh-sinh: max gap {worst:.2e}"


# M(S) summed over the pairs of the all-pairs oracle
# oracles.consecutive_pairs_scan, which shares only the G_S enumeration
# (farey._shell) with the neighbour solve, not the partner scan
DIRECT_BASELINES = {
    1: Fraction(4),
    2: Fraction(8),
    3: Fraction(1016, 45),
    4: Fraction(27067, 780),
    5: Fraction(234619, 3978),
    6: Fraction(599994119, 7690800),
    7: Fraction(26525449921877, 245005815600),
    8: Fraction(263202182080694881, 1848242204281200),
}


@_check("moment", "direct moment baselines are exact")
def check_direct_baselines() -> tuple[bool, str]:
    for S, expected in DIRECT_BASELINES.items():
        total = moment.direct_total(S)
        if total != expected:
            return False, f"S = {S}: got {total}, expected {expected}"
        got = moment.moment_first_direct(S).value
        if got != float(expected):
            return False, f"S = {S}: got {got}, expected {float(expected)}"
    return True, f"S in {sorted(DIRECT_BASELINES)}: exact totals and values match the frozen scan results"


@_check("moment", "normalization gap at S = 1 is the measured 8 / 4 / 2 split")
def check_s1_normalizations() -> tuple[bool, str]:
    full = moment.moment_first_counting(1, "omega_full").value
    quarter = moment.moment_first_counting(1, "omega_quarter").value
    direct = moment.moment_first_direct(1).value
    ok = full == 8.0 and quarter == 2.0 and direct == 4.0
    return ok, f"full {full}, direct {direct}, quarter {quarter}"


CALIBRATION_RANGE = range(4, 13)
CALIBRATION_BAND = 1.05 / 0.95  # all ratios inside one +-5% band


@_check("moment", "counting/direct calibration is stable on the exact range")
def check_calibration() -> tuple[bool, str]:
    ratios = moment.calibration_ratios(CALIBRATION_RANGE)
    lo = min(ratios.values())
    hi = max(ratios.values())
    ok = hi / lo <= CALIBRATION_BAND
    return ok, (
        f"S in 4..12: ratios {lo:.3f}..{hi:.3f}, spread {hi/lo:.4f} "
        f"(allowed {CALIBRATION_BAND:.4f}); drifting toward 4 as the real-axis "
        f"pairs thin out"
    )


RECONCILIATION_RANGE = range(2, 72)


@_check("moment", "direct moment reconciles exactly with quarter counting")
def check_direct_quarter_reconciliation() -> tuple[bool, str]:
    # direct(S) = quarter(S) + extra(S), exactly, in rational arithmetic:
    # quarter counting assumes four fraction pairs per denominator pair,
    # quarter(S) = counting_total(S) / 4 (which raises on a full count
    # that is not a multiple of 4); real-axis pairs (classical consecutive
    # Farey denominators) realize eight, and extra(S) =
    # real_axis_correction(S) adds four radius sums per such pair.  The
    # oracle's pair num/den stays unreduced, so direct - extra == num/(4 den)
    # is compared cross-multiplied, in integers
    for S in RECONCILIATION_RANGE:
        direct = moment.direct_total(S)
        extra = moment.real_axis_correction(S)
        num, den = oracles.counting_total(S)
        rest = direct - extra
        if 4 * den * rest.numerator != num * rest.denominator:
            return False, f"mismatch at S = {S}: {direct} vs {Fraction(num, 4 * den) + extra}"
    lo, hi = RECONCILIATION_RANGE[0], RECONCILIATION_RANGE[-1]
    return True, f"S in {lo}..{hi}: direct == quarter + real-axis correction, exactly"


COUNTING_ORACLE_RANGE = range(1, 49)
COUNTING_ORACLE_TOLERANCE = Fraction(1, 2**50)  # measured: at most 4.2e-16 relative


@_check("moment", "counting route matches the per-denominator counts")
def check_counting_vs_per_denominator() -> tuple[bool, str]:
    # the route sums W(B) F(B) over bounds in floats; counting_total, the
    # exact rational of the per-denominator counts (each a Moebius sum
    # over the squarefree divisors built from the primes of |s|^2, sharing
    # only the kernel with the route), is its oracle.  With the value
    # vn/vd and the oracle's unreduced pair num/den (num > 0), the relative
    # error is |vn den - num vd| / (num vd), compared with the tolerance in
    # integers; its float (integer true division) is correctly rounded
    tol = COUNTING_ORACLE_TOLERANCE
    worst = 0.0
    for S in COUNTING_ORACLE_RANGE:
        num, den = oracles.counting_total(S)
        vn, vd = moment.moment_first_counting(S).value.as_integer_ratio()
        gap, scale = abs(vn * den - num * vd), num * vd
        if gap * tol.denominator > scale * tol.numerator:
            return False, f"S = {S}: relative error {gap / scale:.2e} above 2^-50"
        worst = max(worst, gap / scale)
    lo, hi = COUNTING_ORACLE_RANGE[0], COUNTING_ORACLE_RANGE[-1]
    return True, f"S in {lo}..{hi}: worst relative error {worst:.2e} (allowed 2^-50)"


COUNTING_LADDER = (32, 64, 128)
COUNTING_FINAL_GAP = 0.10
RESIDUAL_OVER_S15_BOUND = 3.0  # measured: 0.97, 0.73, 0.53


@_check("moment", "counting sweep converges to the quadratic main term")
def check_counting_convergence() -> tuple[bool, str]:
    rows = []
    for S in COUNTING_LADDER:
        rep = moment.moment_first_counting(S)
        rows.append((S, abs(rep.value / rep.main_term - 1.0), rep.residual / S**1.5))
    gaps = [g for _, g, _ in rows]
    monotone = all(gaps[i + 1] <= gaps[i] for i in range(len(gaps) - 1))
    final_ok = gaps[-1] <= COUNTING_FINAL_GAP
    resid_ok = all(abs(r) <= RESIDUAL_OVER_S15_BOUND for _, _, r in rows)
    detail = "; ".join(f"S={S}: gap {g:.4f}, resid/S^1.5 {r:.2f}" for S, g, r in rows)
    return monotone and final_ok and resid_ok, detail


SUM_A_S = 512
SUM_A_TOLERANCE = 0.05


@_check("moment", "area-weighted phi sum matches its quadratic prediction")
def check_sum_A() -> tuple[bool, str]:
    exact, pred = moment.sum_A(SUM_A_S)
    gap = abs(exact / pred - 1.0)
    return gap <= SUM_A_TOLERANCE, f"S = {SUM_A_S}: ratio {exact/pred:.5f} (5% allowed)"


PHI_NORM2_S = 512
PHI_NORM2_TOLERANCE = 0.02


@_check("moment", "phi/norm sum matches its quadratic prediction")
def check_phi_norm2() -> tuple[bool, str]:
    exact, pred = moment.sum_phi_over_norm2(PHI_NORM2_S)
    gap = abs(exact / pred - 1.0)
    return gap <= PHI_NORM2_TOLERANCE, f"S = {PHI_NORM2_S}: ratio {exact/pred:.5f} (2% allowed)"


PHI_NORM4_TOLERANCE = 0.05  # on the slope and on the two intercepts


@_check("moment", "phi/norm^2 sum grows with the predicted log slope")
def check_phi_norm4_slope() -> tuple[bool, str]:
    bundle = moment.constants_bundle()
    slope, intercept = moment.fit_phi_over_norm4(moment.PHI_NORM4_LADDER)
    target = 4.0 * bundle.z1
    slope_ok = abs(slope / target - 1.0) <= PHI_NORM4_TOLERANCE
    _, i1 = moment.fit_phi_over_norm4(moment.PHI_NORM4_LADDER[0::2])
    _, i2 = moment.fit_phi_over_norm4(moment.PHI_NORM4_LADDER[1::2])
    intercept_ok = abs(i1 / i2 - 1.0) <= PHI_NORM4_TOLERANCE
    return slope_ok and intercept_ok, (
        f"slope {slope:.5f} vs 4 z1 = {target:.5f}; intercepts {i1:.5f} / {i2:.5f} "
        f"on disjoint ladders; z2 estimate {intercept - bundle.z1:.5f}"
    )


B_LADDER = (16, 32, 64, 128)
B_EPSILON = 0.1


@_check("moment", "boundary-sum B(S)/S^(1+eps) stays under its proven ceiling")
def check_b_sum_growth() -> tuple[bool, str]:
    """B(S) = O(S^(1+eps)) on the ladder, checked two ways, with the spot
    value B(1) = 8 pi of the one cell s = 1.

    (a) every B(S)/S^(1+eps) lies in the unit-square band of
        oracles.sum_B_band, whose ends both tend to 4 pi^2/eps;
    (b) its increments per doubling are positive and shrink, as they do
        for a quantity rising to a finite limit; growth like S^(1+eps')
        with eps' > eps would make them grow.

    B(S)/S^(1+eps) itself rises on every doubling (it approaches its limit
    from below), so neither a non-increasing nor a bounded-ratio test of it
    would express the ceiling.  Its growth ratios per doubling fall: with
    values v and increments d, 0 < d_(i+1) < d_i and v_(i+1) > v_i > 0
    give d_(i+1)/v_(i+1) < d_i/v_i, so (b) implies that too.
    """
    values = [moment.sum_B(S, B_EPSILON) / S ** (1.0 + B_EPSILON) for S in B_LADDER]
    bands = [oracles.sum_B_band(S, B_EPSILON) for S in B_LADDER]
    inside = [lo <= v <= hi for v, (lo, hi) in zip(values, bands)]
    steps = [b - a for a, b in zip(values, values[1:])]
    shrinking = all(d > 0 for d in steps) and all(b < a for a, b in zip(steps, steps[1:]))
    base_ok = abs(moment.sum_B(1, B_EPSILON) - 8.0 * math.pi) < 1e-12
    limit = 4.0 * math.pi**2 / B_EPSILON
    # Aitken extrapolation of the last three values, reported only
    curvature = steps[-1] - steps[-2]
    aitken = values[-1] - steps[-1] ** 2 / curvature if curvature else math.inf
    return all(inside) and shrinking and base_ok, (
        f"B(1) {'=' if base_ok else '!='} 8 pi; B(S)/S^{1 + B_EPSILON:g} = "
        + ", ".join(
            f"{v:.2f} {'in' if ok else 'OUTSIDE'} [{lo:.1f}, {hi:.1f}]"
            for v, (lo, hi), ok in zip(values, bands, inside)
        )
        + "; increments "
        + ", ".join(f"{d:.2f}" for d in steps)
        + f"; Aitken limit {aitken:.1f} vs 4 pi^2/eps = {limit:.1f}"
    )
