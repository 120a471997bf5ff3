"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with the measured quantities (run pytest with -s to watch).

Every criterion runs the verify checks that hold its ladders and
tolerances, and pins those constants here, so neither can drift from the
other.  The boundary-sum criterion (9) checks the S^(1+eps) ceiling of
B(S) against the proven band of moment.sum_B_band; see the README.
"""

import time
from fractions import Fraction

from fordspheres import moment, verify


def _run(num: int, *checks) -> None:
    results = [check() for check in checks]
    ok = all(passed for passed, _ in results)
    detail = "; ".join(detail for _, detail in results)
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_constant_value_and_runtime():
    assert verify.C_REFERENCE == 0.68644
    assert verify.C_TOLERANCE == 1e-4
    assert verify.C_RUNTIME_LIMIT_S == 1.0
    _run(1, verify.check_constant_value)


def test_criterion_02_counting_ladder_converges():
    assert verify.COUNTING_LADDER == (32, 64, 128)
    assert verify.COUNTING_FINAL_GAP == 0.10
    assert verify.RESIDUAL_OVER_S15_BOUND == 3.0
    t0 = time.perf_counter()
    _run(2, verify.check_counting_convergence)
    assert time.perf_counter() - t0 < 600.0


def test_criterion_03_area_weighted_phi_sum():
    assert verify.SUM_A_S == 512
    assert verify.SUM_A_TOLERANCE == 0.05
    _run(3, verify.check_sum_A)


def test_criterion_04_exact_identities():
    assert verify.EXACT_IDENTITY_MAX_NORM == 10_000
    assert verify.RESIDUE_ORACLE_MAX_NORM == 400
    _run(
        4,
        verify.check_phi_divisor_sum,
        verify.check_mobius_divisor_sum,
        verify.check_phi_residue_oracle,
    )


def test_criterion_05_mediant_closure():
    assert verify.MEDIANT_CLOSURE_MAX_S == 10
    _run(5, verify.check_mediant_closure)


def test_criterion_06_consecutivity_classification():
    assert verify.CLASSIFICATION_MAX_S == 6
    _run(6, verify.check_conditions_vs_geometry, verify.check_four_pairs)


def test_criterion_07_lattice_count_quality():
    assert verify.COPRIME_PREDICTION_S == 32
    assert verify.COPRIME_MEAN_DEVIATION_MAX == 0.10
    assert verify.AREA_DEVIATION_LADDER == (4, 8, 16, 32, 64)
    assert verify.UNFILTERED_AREA_DEVIATION_C == 2.0
    _run(7, verify.check_coprime_prediction, verify.check_count_tracks_area)


def test_criterion_08_phi_sum_laws():
    assert verify.PHI_NORM2_S == 512
    assert verify.PHI_NORM2_TOLERANCE == 0.02
    assert moment.PHI_NORM4_LADDER == (64, 128, 256, 512, 1024, 2048)
    assert verify.PHI_NORM4_TOLERANCE == 0.05
    _run(8, verify.check_phi_norm2, verify.check_phi_norm4_slope)


def test_criterion_09_boundary_sum_growth():
    assert verify.B_LADDER == (16, 32, 64, 128)
    assert verify.B_EPSILON == 0.1
    _run(9, verify.check_b_sum_growth)


def test_criterion_10_direct_baseline_and_calibration():
    assert verify.DIRECT_BASELINES[1] == Fraction(4)
    assert verify.CALIBRATION_RANGE == range(4, 13)
    assert verify.CALIBRATION_BAND == 1.05 / 0.95
    _run(10, verify.check_direct_baselines, verify.check_calibration)
