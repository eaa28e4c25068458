"""Right-hand sides of the four bounds and inequality verdict reports.

The exact coefficients of  a * ||H||^2 + b * c  are built in ``quadforms``
and re-exported here; floating point enters only when a right-hand side is
evaluated against data.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Optional

from .delta import DeltaResult, _delta_h, delta_invariant
from .errors import NotApplicable
from .quadforms import (  # the coefficient layer, re-exported here
    ALL_SOURCES,
    LEGACY_CD,
    LEGACY_CDVV,
    THEOREM1,
    THEOREM2,
    BoundCoefficients,
    coeff_legacy_cd,
    coeff_legacy_cdvv,
    coeff_theorem1,
    coeff_theorem2,
    optimal_coefficients,
    shared_b,
)
from .tensors import (
    CubicForm,
    PartitionSpec,
    ambient_value,
    finite_or_none,
    mean_curvature_sq,
)

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

    @property
    def verdict(self) -> str:
        """The row's verdict: not_applicable without a gap, ok for a gap of
        at least -GAP_TOL, violated otherwise (a NaN gap included)."""
        if self.gap is None:
            return "not_applicable"
        return "ok" if self.gap >= -GAP_TOL else "violated"


@dataclass(frozen=True)
class InequalityReport:
    """Delta estimate against all four bounds for one tensor and partition."""

    partition: PartitionSpec
    c: float
    hsq: float
    delta: DeltaResult
    rows: tuple[BoundRow, ...]

    @property
    def violated(self) -> bool:
        return any(row.verdict == "violated" for row in self.rows)

    @property
    def sharp(self) -> bool:
        """True when a theorem row's bound is attained within SHARP_TOL."""
        return any(
            r.source in (THEOREM1, THEOREM2) and r.gap is not None
            and abs(r.gap) <= SHARP_TOL
            for r in self.rows
        )

    def row(self, source: str) -> BoundRow:
        for r in self.rows:
            if r.source == source:
                return r
        raise KeyError(source)

    def to_json_dict(self) -> dict:
        """Strict JSON: a number that is not finite is written as null."""
        return {
            "n": self.partition.n,
            "partition": list(self.partition.blocks),
            "c": self.c,
            "hsq": finite_or_none(self.hsq),
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
                    "rhs": finite_or_none(r.rhs),
                    "gap": finite_or_none(r.gap),
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
        return json.dumps(self.to_json_dict(), indent=2, allow_nan=False)


def evaluate(h: CubicForm, c, P: PartitionSpec, opts=None) -> InequalityReport:
    """Full verdict report: delta via the optimizer, all four bound rows.

    The theorem row matching the partition type carries the optimal bound;
    the other theorem row is marked not applicable.  Both legacy rows are
    always present.  All rows share b, so a row's gap is a |H|^2 - delta_h
    at the result's frame, free of c.
    """
    cval = ambient_value(c)
    result = delta_invariant(h, cval, P, opts)
    hsq = mean_curvature_sq(h)
    delta_h = _delta_h(h, P, result.frame)

    rows = []
    coefficients = (coeff_theorem1, coeff_theorem2, coeff_legacy_cdvv, coeff_legacy_cd)
    for source, coeff in zip(ALL_SOURCES, coefficients):
        try:
            coeffs = coeff(P)
        except NotApplicable:
            rows.append(BoundRow(source, None, None, None))
            continue
        gap = float(coeffs.a) * hsq - delta_h
        rows.append(BoundRow(source, coeffs, rhs_value(coeffs, hsq, cval), gap))
    return InequalityReport(
        partition=P, c=cval, hsq=hsq, delta=result, rows=tuple(rows)
    )
