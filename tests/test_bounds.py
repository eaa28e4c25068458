"""Coefficient golden values, sweeps, and verdict reports."""

import csv
import io
from fractions import Fraction

import pytest

from deltainv import (
    LEGACY_CD,
    LEGACY_CDVV,
    NotApplicable,
    OptimizerOptions,
    PartitionSpec,
    THEOREM1,
    THEOREM2,
    CubicForm,
    coeff_legacy_cd,
    coeff_legacy_cdvv,
    coeff_theorem1,
    coeff_theorem2,
    enumerate_partitions,
    evaluate,
    optimal_coefficients,
    shared_b,
)

OPTS = OptimizerOptions(restarts=6, max_iters=300, seed=5)


# ---------------------------------------------------------------------------
# golden coefficients (exact rational arithmetic, zero tolerance)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, blocks, expected",
    [
        (3, (2,), Fraction(3, 2)),
        (4, (2,), Fraction(40, 11)),
        (4, (3,), Fraction(3)),
    ],
)
def test_theorem1_golden(n, blocks, expected):
    assert coeff_theorem1(PartitionSpec(n, blocks)).a == expected


@pytest.mark.parametrize(
    "n, blocks, expected",
    [
        (4, (2, 2), Fraction(8, 3)),
        (5, (2, 3), Fraction(75, 16)),
        (6, (2, 2, 2), Fraction(9)),
    ],
)
def test_theorem2_golden(n, blocks, expected):
    assert coeff_theorem2(PartitionSpec(n, blocks)).a == expected


def test_cdvv_golden():
    assert coeff_legacy_cdvv(PartitionSpec(3, (2,))).a == Fraction(27, 4)
    assert coeff_legacy_cdvv(PartitionSpec(4, (2, 2))).a == Fraction(12)


def test_b_golden():
    assert shared_b(PartitionSpec(3, (2,))) == Fraction(2)
    assert shared_b(PartitionSpec(4, (2, 2))) == Fraction(4)
    assert shared_b(PartitionSpec(4, (2,))) == Fraction(5)
    assert shared_b(PartitionSpec(5, (2, 3))) == Fraction(6)


def test_b_shared_by_all_sources():
    for n in (4, 5, 6):
        for P in enumerate_partitions(n):
            b = shared_b(P)
            assert coeff_legacy_cdvv(P).b == b
            assert coeff_legacy_cd(P).b == b
            if P.saturating:
                assert coeff_theorem2(P).b == b
            else:
                assert coeff_theorem1(P).b == b


# ---------------------------------------------------------------------------
# applicability and caveats
# ---------------------------------------------------------------------------


def test_theorem1_not_applicable_when_saturating():
    with pytest.raises(NotApplicable):
        coeff_theorem1(PartitionSpec(4, (2, 2)))


def test_theorem2_not_applicable_when_strict():
    with pytest.raises(NotApplicable):
        coeff_theorem2(PartitionSpec(4, (2,)))


def test_optimal_coefficients_dispatch():
    assert optimal_coefficients(PartitionSpec(4, (2,))).source == THEOREM1
    assert optimal_coefficients(PartitionSpec(4, (2, 2))).source == THEOREM2


def test_legacy_cd_caveat_flags():
    off = coeff_legacy_cd(PartitionSpec(3, (2,)))
    assert off.applicable and off.reason == ""
    assert off.a == Fraction(3, 2)

    on = coeff_legacy_cd(PartitionSpec(5, (2, 2)))
    assert not on.applicable and "1/3" in on.reason

    p34 = coeff_legacy_cd(PartitionSpec(4, (3,)))
    assert p34.applicable
    assert p34.a == Fraction(3)


def test_positive_coefficients_everywhere():
    for n in range(3, 13):
        for P in enumerate_partitions(n):
            assert coeff_legacy_cdvv(P).a > 0
            assert coeff_legacy_cd(P).a > 0
            assert optimal_coefficients(P).a > 0


# ---------------------------------------------------------------------------
# exhaustive sweeps, n <= 12
# ---------------------------------------------------------------------------


def test_cdvv_strictly_dominates_theorem1():
    count = 0
    for n in range(3, 13):
        for P in enumerate_partitions(n):
            if P.saturating:
                continue
            assert coeff_legacy_cdvv(P).a > coeff_theorem1(P).a
            count += 1
    assert count > 50


def test_theorem2_improves_extended_theorem1():
    count = 0
    for n in range(4, 13):
        for P in enumerate_partitions(n):
            if not P.saturating:
                continue
            assert coeff_legacy_cd(P).a > coeff_theorem2(P).a
            count += 1
    assert count > 20


def test_extended_theorem1_example_value():
    # the formally extended non-saturating formula at n=4, (2,2) is 3.2
    assert coeff_legacy_cd(PartitionSpec(4, (2, 2))).a == Fraction(16, 5)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_evaluate_zero_tensor_constant_curvature():
    h = CubicForm(3)
    P = PartitionSpec(3, (2,))
    report = evaluate(h, 1.0, P, OPTS)
    assert report.delta.value == pytest.approx(2.0, abs=1e-9)
    row = report.row(THEOREM1)
    assert row.rhs == pytest.approx(2.0, abs=1e-12)
    assert row.gap == pytest.approx(0.0, abs=1e-9)
    assert report.sharp
    assert not report.violated


def test_evaluate_t1_witness(t1_witness_n3):
    h, P = t1_witness_n3
    report = evaluate(h, 0.0, P, OPTS)
    assert report.hsq == pytest.approx(1.0, abs=1e-12)
    assert report.row(THEOREM1).gap == pytest.approx(0.0, abs=1e-6)
    assert report.row(LEGACY_CDVV).gap == pytest.approx(5.25, abs=1e-6)
    assert report.row(THEOREM2).verdict == "not_applicable"
    assert report.sharp


def test_evaluate_t2_witness(t2_witness_n4):
    h, P = t2_witness_n4
    report = evaluate(h, 0.0, P, OPTS)
    assert report.row(THEOREM2).gap == pytest.approx(0.0, abs=1e-6)
    assert report.row(THEOREM1).verdict == "not_applicable"
    assert report.row(THEOREM1).rhs is None
    assert report.sharp


def test_scale_covariance(t1_witness_n3):
    h, P = t1_witness_n3
    base = evaluate(h, 0.0, P, OPTS)
    for t in (0.5, 2.0):
        scaled = evaluate(h.scaled(t), 0.0, P, OPTS)
        assert scaled.delta.value == pytest.approx(
            t**2 * base.delta.value, rel=1e-6
        )
        assert scaled.hsq == pytest.approx(t**2 * base.hsq, rel=1e-12)
        for source in (THEOREM1, LEGACY_CDVV, LEGACY_CD):
            assert scaled.row(source).gap == pytest.approx(
                t**2 * base.row(source).gap, rel=1e-5, abs=1e-8
            )


def test_report_json_structure(t1_witness_n3):
    h, P = t1_witness_n3
    report = evaluate(h, 0.0, P, OPTS)
    data = report.to_json_dict()
    assert data["n"] == 3 and data["partition"] == [2]
    assert data["sharp"] is True
    sources = [row["source"] for row in data["rows"]]
    assert sources == [THEOREM1, THEOREM2, LEGACY_CDVV, LEGACY_CD]
    thm1 = data["rows"][0]
    assert (thm1["a_num"], thm1["a_den"]) == (3, 2)
    assert (thm1["b_num"], thm1["b_den"]) == (2, 1)


def test_report_csv_roundtrip(t1_witness_n3):
    h, P = t1_witness_n3
    report = evaluate(h, 0.0, P, OPTS)
    rows = list(csv.DictReader(io.StringIO(report.to_csv())))
    assert len(rows) == 4
    by_source = {r["source"]: r for r in rows}
    assert by_source[THEOREM1]["a_num"] == "3"
    assert by_source[THEOREM1]["a_den"] == "2"
    assert float(by_source[THEOREM1]["delta"]) == pytest.approx(1.5, abs=1e-6)
    assert by_source[THEOREM2]["rhs"] == ""
    assert by_source[LEGACY_CDVV]["verdict"] == "ok"


def test_violated_property_on_synthetic_rows(t1_witness_n3):
    from deltainv.bounds import BoundRow, InequalityReport

    h, P = t1_witness_n3
    base = evaluate(h, 0.0, P, OPTS)
    bad_row = BoundRow(THEOREM1, base.row(THEOREM1).coeffs, 1.0, -1.0)
    doctored = InequalityReport(
        partition=P,
        c=0.0,
        hsq=base.hsq,
        delta=base.delta,
        rows=(bad_row,),
    )
    assert doctored.violated
    assert not base.violated


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_violated_agrees_with_verdict_on_nan_gaps():
    # entries near 1e200 overflow every Gauss sum, so the gaps are NaN
    h = CubicForm(3, {(1, 1, 3): 1e200, (3, 3, 3): 1e200})
    report = evaluate(h, 0.0, PartitionSpec(3, (2,)), OptimizerOptions(restarts=2))
    gaps = [row.gap for row in report.rows if row.gap is not None]
    assert gaps and all(gap != gap for gap in gaps)
    assert {row.verdict for row in report.rows if row.gap is not None} == {"violated"}
    assert report.violated
