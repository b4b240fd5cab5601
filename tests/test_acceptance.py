"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Each criterion runs the named checks of ``lrwkit.verify`` that cover it, so
every sweep is written once. Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines and timings. Every comparison is exact; each
criterion also carries a wall-clock budget that the test asserts.
"""

import time

from lrwkit import verify


def criterion(number: int, label: str, budget_seconds: float, *checks) -> None:
    start = time.perf_counter()
    results = []
    try:
        results = [check() for check in checks]
    finally:
        elapsed = time.perf_counter() - start
        failed = [r for r in results if not r.passed]
        status = "PASS" if len(results) == len(checks) and not failed else "FAIL"
        print(f"ACCEPTANCE {number:2d} {status}  {label}  ({elapsed:.2f}s)")
    assert not failed, "; ".join(
        f"{r.name}: expected {r.expected}, actual {r.actual}" for r in failed
    )
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s"


def test_criterion_01_six_component_decomposition():
    criterion(1, "six-component decomposition", 1.0, verify._check_six_components)


def test_criterion_02_tableau_counts():
    criterion(
        2,
        "tableau counts 1/3/2 and 7",
        1.0,
        verify._check_tableau_counts,
        verify._check_heights24_multiplicity,
    )


def test_criterion_03_multiplicity_two_and_heights24_closed_form():
    criterion(
        3,
        "multiplicity two and heights-2-4 closed form",
        30.0,
        verify._check_heights24_multiplicity,
        verify._check_closed_form_sweeps,
    )


def test_criterion_04_three_row_closed_form():
    criterion(4, "three-row closed form, 64 cases", 60.0, verify._check_closed_form_sweeps)


def test_criterion_05_tensor_rule():
    criterion(5, "family tensor rule up to 6 boxes", 300.0, verify._check_tensor_rule)


def test_criterion_06_stable_coefficients():
    criterion(
        6,
        "stable coefficients: sp=o, grading, top degree",
        120.0,
        verify._check_stable_coefficients,
    )


def test_criterion_07_fermionic_rectangles():
    # the ranks one above the stable threshold run in tests/test_fermionic.py
    criterion(
        7, "fermionic formula matches rectangles", 120.0, verify._check_fermionic_rectangles
    )


def test_criterion_08_commute_and_count_stability():
    criterion(
        8,
        "commutation lemma and count stability, ranks 3-8",
        30.0,
        verify._check_commute_full,
        verify._check_beta_count_stability,
    )


def test_criterion_09_containment_and_trivial_component():
    criterion(
        9,
        "containment and trivial-component rule up to 8 boxes",
        120.0,
        verify._check_containment_suite,
    )


def test_criterion_10_cone_bridge():
    criterion(
        10,
        "cone necessary condition with bounded witnesses",
        60.0,
        verify._check_cone_bridge,
    )


def test_criterion_11_oracles():
    # the all-partitions lr_coefficient route runs in tests/test_tableaux.py
    criterion(
        11,
        "monomial oracle and determinant round-trip",
        120.0,
        verify._check_lr_oracle,
        verify._check_jacobi_trudi_roundtrip,
    )
