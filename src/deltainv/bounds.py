"""The four right-hand-side bounds and inequality verdict reports.

Every bound has the shape  a * ||H||^2 + b * c  with

    b = (n(n-1) - sum n_i(n_i-1)) / 2

shared by all four sources.  The optimal coefficient a depends on whether
the partition saturates the dimension:

    THEOREM1     non-saturating partitions (sum n_i < n), the optimal value;
    THEOREM2     saturating partitions (sum n_i = n), the optimal value;
    LEGACY_CDVV  a historical bound, valid but never optimal;
    LEGACY_CD    a historical bound with the same closed form as THEOREM1,
                 whose original derivation fails once sum 1/(n_i+2) > 1/3.

Coefficients are exact rationals; floating point enters only when a
right-hand side is evaluated against data.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import NotApplicable
from .tensors import CubicForm, PartitionSpec, ambient_value, mean_curvature_sq

THEOREM1 = "THEOREM1"
THEOREM2 = "THEOREM2"
LEGACY_CDVV = "LEGACY_CDVV"
LEGACY_CD = "LEGACY_CD"

ALL_SOURCES = (THEOREM1, THEOREM2, LEGACY_CDVV, LEGACY_CD)

GAP_TOL = 1e-9
SHARP_TOL = 1e-6

CSV_COLUMNS = [
    "partition",
    "source",
    "a_num",
    "a_den",
    "b_num",
    "b_den",
    "rhs",
    "delta",
    "gap",
    "verdict",
]


@dataclass(frozen=True)
class BoundCoefficients:
    """Exact multipliers of ||H||^2 and of c for one bound."""

    a: Fraction
    b: Fraction
    source: str
    applicable: bool
    reason: str = ""


def shared_b(P: PartitionSpec) -> Fraction:
    return Fraction(P.n * (P.n - 1) - sum(ni * (ni - 1) for ni in P.blocks), 2)


def _theorem1_closed_form(P: PartitionSpec) -> Fraction:
    """Raw closed form of the non-saturating coefficient, no applicability guard."""
    s = sum(Fraction(1, 2 + ni) for ni in P.blocks)
    N = Fraction(P.n - sum(P.blocks) + 3 * P.k - 1) - 6 * s
    return Fraction(P.n**2) * N / (2 * (N + 3))


def coeff_theorem1(P: PartitionSpec) -> BoundCoefficients:
    """Optimal coefficient for non-saturating partitions (sum n_i < n)."""
    if P.saturating:
        raise NotApplicable(
            f"partition {P} saturates the dimension; use the saturating bound"
        )
    return BoundCoefficients(_theorem1_closed_form(P), shared_b(P), THEOREM1, True)


def coeff_theorem2(P: PartitionSpec) -> BoundCoefficients:
    """Optimal coefficient for saturating partitions (sum n_i = n).

    The reciprocal sum skips the first (minimal) block.
    """
    if not P.saturating:
        raise NotApplicable(
            f"partition {P} does not saturate the dimension; "
            f"use the non-saturating bound"
        )
    s = sum(Fraction(1, ni + 2) for ni in P.blocks[1:])
    a = Fraction(P.n**2) * (Fraction(P.k - 1) - 2 * s) / (2 * (Fraction(P.k) - 2 * s))
    return BoundCoefficients(a, shared_b(P), THEOREM2, True)


def coeff_legacy_cdvv(P: PartitionSpec) -> BoundCoefficients:
    """The older universal coefficient n^2 (n+k+1-sum) / (2 (n+k-sum))."""
    total = sum(P.blocks)
    a = Fraction(P.n**2 * (P.n + P.k + 1 - total), 2 * (P.n + P.k - total))
    return BoundCoefficients(a, shared_b(P), LEGACY_CDVV, True)


def coeff_legacy_cd(P: PartitionSpec) -> BoundCoefficients:
    """Historical bound with the THEOREM1 closed form, for every partition.

    Carries a caveat flag when sum 1/(n_i+2) > 1/3, the regime where the
    original derivation breaks down (the value itself still holds, being
    dominated by the optimal bounds).
    """
    a = _theorem1_closed_form(P)
    caveat = sum(Fraction(1, 2 + ni) for ni in P.blocks) > Fraction(1, 3)
    reason = "derivation invalid: sum 1/(n_i+2) exceeds 1/3" if caveat else ""
    return BoundCoefficients(a, shared_b(P), LEGACY_CD, not caveat, reason)


def optimal_coefficients(P: PartitionSpec) -> BoundCoefficients:
    """The applicable optimal bound for this partition type."""
    return coeff_theorem2(P) if P.saturating else coeff_theorem1(P)


def rhs_value(coeffs: BoundCoefficients, hsq: float, c) -> float:
    return float(coeffs.a) * hsq + float(coeffs.b) * ambient_value(c)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundRow:
    source: str
    coeffs: Optional[BoundCoefficients]
    rhs: Optional[float]
    gap: Optional[float]
    verdict: str


@dataclass(frozen=True)
class InequalityReport:
    """Delta estimate against all four bounds for one tensor and partition."""

    partition: PartitionSpec
    c: float
    hsq: float
    delta: "DeltaResult"
    rows: tuple[BoundRow, ...]
    sharp: bool

    @property
    def violated(self) -> bool:
        return any(_verdict(row.gap) == "violated" for row in self.rows)

    def row(self, source: str) -> BoundRow:
        for r in self.rows:
            if r.source == source:
                return r
        raise KeyError(source)

    def to_json_dict(self) -> dict:
        return {
            "n": self.partition.n,
            "partition": list(self.partition.blocks),
            "c": self.c,
            "hsq": self.hsq,
            "delta": self.delta.to_json_dict(),
            "sharp": self.sharp,
            "rows": [
                {
                    "source": r.source,
                    "applicable": r.coeffs.applicable if r.coeffs else False,
                    "reason": (
                        r.coeffs.reason
                        if r.coeffs
                        else "bound not defined for this partition type"
                    ),
                    "a_num": r.coeffs.a.numerator if r.coeffs else None,
                    "a_den": r.coeffs.a.denominator if r.coeffs else None,
                    "b_num": r.coeffs.b.numerator if r.coeffs else None,
                    "b_den": r.coeffs.b.denominator if r.coeffs else None,
                    "rhs": r.rhs,
                    "gap": r.gap,
                    "verdict": r.verdict,
                }
                for r in self.rows
            ],
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        label = f"n={self.partition.n} ({self.partition.label()})"
        for r in self.rows:
            writer.writerow(
                [
                    label,
                    r.source,
                    r.coeffs.a.numerator if r.coeffs else "",
                    r.coeffs.a.denominator if r.coeffs else "",
                    r.coeffs.b.numerator if r.coeffs else "",
                    r.coeffs.b.denominator if r.coeffs else "",
                    "" if r.rhs is None else repr(r.rhs),
                    repr(self.delta.value),
                    "" if r.gap is None else repr(r.gap),
                    r.verdict,
                ]
            )
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _verdict(gap: Optional[float]) -> str:
    if gap is None:
        return "not_applicable"
    return "ok" if gap >= -GAP_TOL else "violated"


def evaluate(h: CubicForm, c, P: PartitionSpec, opts=None) -> InequalityReport:
    """Full verdict report: delta via the optimizer, all four bound rows.

    The theorem row matching the partition type carries the optimal bound;
    the other theorem row is marked not applicable.  Both legacy rows are
    always present.  ``sharp`` is set when the applicable optimal bound is
    attained within SHARP_TOL.
    """
    # The one lazy import in the package: delta imports this module at load
    # time for optimal_coefficients.  Moving delta_invariant or evaluate to
    # break the cycle would change the module names perfbench/tracer.py
    # traces them under.
    from .delta import delta_invariant

    cval = ambient_value(c)
    result = delta_invariant(h, cval, P, opts)
    hsq = mean_curvature_sq(h)

    rows = []
    sharp = False
    for source in ALL_SOURCES:
        coeffs = None
        if source == THEOREM1 and not P.saturating:
            coeffs = coeff_theorem1(P)
        elif source == THEOREM2 and P.saturating:
            coeffs = coeff_theorem2(P)
        elif source == LEGACY_CDVV:
            coeffs = coeff_legacy_cdvv(P)
        elif source == LEGACY_CD:
            coeffs = coeff_legacy_cd(P)
        if coeffs is None:
            rows.append(BoundRow(source, None, None, None, _verdict(None)))
            continue
        rhs = rhs_value(coeffs, hsq, cval)
        gap = rhs - result.value
        rows.append(BoundRow(source, coeffs, rhs, gap, _verdict(gap)))
        if source in (THEOREM1, THEOREM2) and abs(gap) <= SHARP_TOL:
            sharp = True
    return InequalityReport(
        partition=P, c=cval, hsq=hsq, delta=result, rows=tuple(rows), sharp=sharp
    )
