"""Structured quadratic forms whose positivity thresholds yield the bounds.

For an admissible partition and a distinguished block ell, the diagonal
components x_A = h_{AA}^{g} of a cubic tensor (g a fixed index in block
ell) enter a quadratic form whose matrix M consists of (k+1)^2 blocks with
entries drawn from {2C, 2(C+1), 2C-1}.  Difference vectors inside each
block are eigenvectors with eigenvalues 0, 2 or 3; compressing onto the
block-average vectors v_i gives a small reduced matrix M' whose leading
principal minors close in terms of the determinant

    Delta(A_1, ..., A_m) = prod(A_i - 1) + sum_i prod_{j != i} (A_j - 1)

of the all-ones-off-diagonal matrix.  The smallest C making every such
form positive semidefinite is the optimal coefficient of ||H||^2, divided
by n^2.

The coefficients live here too: ``_threshold`` is that C in closed form,
and THEOREM1, THEOREM2 and LEGACY_CD are n^2 times it (LEGACY_CDVV has its
own closed form); ``bounds`` re-exports them and evaluates right-hand sides.

C is read once, by ``_coefficient``, as an exact Fraction (every finite
float is one), so a bundle's minors and their sign verdicts are exact.
Only M, M' and the residual-index matrix are floats, and C must keep
their extreme entries 2(C + 1) and 2C - 1 finite floats: any other C is a
FormatError.  ell and t are integers as ``tensors._as_integer`` reads
them (2.0 is 2; 2.5, true and "2" are a BadBlockIndex).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import BadBlockIndex, CaseMismatch, EmptyList, FormatError, NotApplicable
from .tensors import PartitionSpec, _as_integer, ambient_value

# Bound sources; THEOREM2 is also the saturating case of critical_C
THEOREM1 = "THEOREM1"
THEOREM2 = "THEOREM2"
LEGACY_CDVV = "LEGACY_CDVV"
LEGACY_CD = "LEGACY_CD"

ALL_SOURCES = (THEOREM1, THEOREM2, LEGACY_CDVV, LEGACY_CD)

# The other cases of critical_C
STATEMENT_I = "STATEMENT_I"
STATEMENT_II = "STATEMENT_II"

PSD_EIG_TOL = 1e-10

Number = Union[float, Fraction]


# ---------------------------------------------------------------------------
# The closed-form determinant
# ---------------------------------------------------------------------------


def det_closed(values: Sequence[Number]) -> Number:
    """Determinant of the matrix with the given diagonal and ones elsewhere.

    Closed form: prod(A_i - 1) + sum_i prod_{j != i} (A_j - 1).  Works for
    floats and Fractions alike.
    """
    vals = list(values)
    if not vals:
        raise EmptyList("determinant of an empty matrix")
    shifted = [v - 1 for v in vals]
    total = 1
    for s in shifted:
        total = total * s
    acc = 0
    for i in range(len(shifted)):
        prod = 1
        for j, s in enumerate(shifted):
            if j != i:
                prod = prod * s
        acc = acc + prod
    return total + acc


# ---------------------------------------------------------------------------
# Critical coefficients and the bound coefficients built from them
# ---------------------------------------------------------------------------


def _check_ell(P: PartitionSpec, ell: int) -> int:
    """ell, an integer as ``_as_integer`` reads it, in 1..k; else
    BadBlockIndex."""
    ell = _as_integer(ell, "ell", BadBlockIndex)
    if not 1 <= ell <= P.k:
        raise BadBlockIndex(f"ell={ell} outside 1..{P.k}")
    return ell


def _coefficient(C) -> Fraction:
    """C as an exact Fraction: a rational as it is, any other number as
    ``ambient_value`` reads it (a finite float).  The float matrices'
    extreme entries 2(C + 1) and 2C - 1 must be finite floats too;
    FormatError otherwise."""
    if isinstance(C, bool) or not isinstance(C, numbers.Rational):
        C = ambient_value(C, "C", FormatError)
    C = Fraction(C)
    try:
        float(2 * (C + 1)), float(2 * C - 1)
    except OverflowError:
        raise FormatError("C must keep 2(C + 1) and 2C - 1 within float range")
    return C


def _threshold(P: PartitionSpec, m: int) -> Fraction:
    """x / (2(x + 3)), x the sum of 3 m_j / (m_j + 2) over every block but one
    distinguished block of size m; each residual index is a block of size 1."""
    x = sum(Fraction(3 * mj, mj + 2) for mj in P.blocks) + P.residual
    x -= Fraction(3 * m, m + 2)
    return x / (2 * (x + 3))


def critical_C(P: PartitionSpec, ell: int, case: str) -> Fraction:
    """Smallest C making the case's quadratic form positive semidefinite.

    STATEMENT_I  -- threshold of the block-ell matrix M_ell itself; when the
                    residual block is empty this coincides with the THEOREM2
                    per-ell threshold.
    STATEMENT_II -- threshold of the residual-index form; independent of ell
                    and equal (times n^2) to the non-saturating optimal
                    coefficient.  Requires a nonempty residual block.
    THEOREM2     -- per-ell threshold in the saturating case; for ell with
                    n_ell minimal this gives (times n^2) the saturating
                    optimal coefficient.
    """
    ell = _check_ell(P, ell)
    if case == STATEMENT_II:
        if P.residual < 1:
            raise CaseMismatch("STATEMENT_II needs a nonempty residual block")
        return _threshold(P, 1)
    if case == THEOREM2 and P.residual != 0:
        raise CaseMismatch("THEOREM2 needs sum(n_i) = n")
    if case not in (STATEMENT_I, THEOREM2):
        raise CaseMismatch(f"unknown case {case!r}")
    return _threshold(P, P.blocks[ell - 1])


@dataclass(frozen=True)
class BoundCoefficients:
    """Exact multipliers of ||H||^2 and of c for one bound."""

    a: Fraction
    b: Fraction
    source: str
    applicable: bool
    reason: str = ""


def shared_b(P: PartitionSpec) -> Fraction:
    """Multiplier of c in all four bounds: (n(n-1) - sum n_i(n_i-1)) / 2."""
    return Fraction(P.n * (P.n - 1) - sum(ni * (ni - 1) for ni in P.blocks), 2)


def coeff_theorem1(P: PartitionSpec) -> BoundCoefficients:
    """Optimal coefficient for non-saturating partitions (sum n_i < n)."""
    if P.saturating:
        raise NotApplicable(
            f"partition {P} saturates the dimension; use the saturating bound"
        )
    return BoundCoefficients(P.n**2 * _threshold(P, 1), shared_b(P), THEOREM1, True)


def coeff_theorem2(P: PartitionSpec) -> BoundCoefficients:
    """Optimal coefficient for saturating partitions (sum n_i = n); the first
    (minimal) block is the distinguished one."""
    if not P.saturating:
        raise NotApplicable(
            f"partition {P} does not saturate the dimension; "
            f"use the non-saturating bound"
        )
    a = P.n**2 * _threshold(P, P.blocks[0])
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
    caveat = sum(Fraction(1, 2 + ni) for ni in P.blocks) > Fraction(1, 3)
    reason = "derivation invalid: sum 1/(n_i+2) exceeds 1/3" if caveat else ""
    a = P.n**2 * _threshold(P, 1)
    return BoundCoefficients(a, shared_b(P), LEGACY_CD, not caveat, reason)


def optimal_coefficients(P: PartitionSpec) -> BoundCoefficients:
    """The applicable optimal bound for this partition type."""
    return coeff_theorem2(P) if P.saturating else coeff_theorem1(P)


# ---------------------------------------------------------------------------
# The block matrices and their reductions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticFormBundle:
    """Matrix data of the block quadratic form for one (partition, ell, C).

    Built from P, ell (an integer in 1..k, else BadBlockIndex) and C alone,
    C read first and kept as ``Fraction(C)``: FormatError for a C that is
    not a finite number or whose 2(C + 1) or 2C - 1 overflows a float.
    ``M`` is twice the matrix of the form in the diagonal variables x_A.
    ``Mprime`` is its compression V M V^T onto the block-average vectors
    v_i = indicator(block i)/n_i, in closed form: 2C at (ell, ell),
    2C - 1 + 3/n_{k+1} at the residual position, 2(C + 1/n_i) elsewhere on
    the diagonal, and 2C - 1 off it.  ``minors`` are the exact leading
    principal minors of M'' = M'/(2C-1), a tuple (empty when 2C = 1).  The
    float matrices are read-only.
    """

    P: PartitionSpec
    ell: int
    C: Fraction
    M: np.ndarray = field(init=False)
    Mprime: np.ndarray = field(init=False, repr=False)
    minors: tuple = field(init=False)

    def __post_init__(self):
        P = self.P
        C = _coefficient(self.C)
        ell = _check_ell(P, self.ell)
        two_c_minus_1 = 2 * C - 1
        reduced = _reduced_diagonal(P, ell, C)
        diag = [] if two_c_minus_1 == 0 else [d / two_c_minus_1 for d in reduced]
        minors = tuple(det_closed(diag[: j + 1]) for j in range(len(diag)))
        Mprime = np.full((len(reduced), len(reduced)), 2 * float(C) - 1.0)
        np.fill_diagonal(Mprime, [float(d) for d in reduced])
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "M", _fill_blocks(P, float(C), distinguished=ell))
        object.__setattr__(self, "Mprime", Mprime)
        object.__setattr__(self, "minors", minors)
        self.M.flags.writeable = self.Mprime.flags.writeable = False


def _fill_blocks(P: PartitionSpec, C: float, distinguished: int):
    """Common n x n assembly: 2C within leading blocks, 2C - 1 elsewhere,
    and 2(C + 1) on the diagonal outside the all-2C block ``distinguished``
    (1-based; 0 marks none)."""
    own = P.owner
    M = np.where((own[:, None] == own) & (own < P.k), 2 * C, 2 * C - 1.0)
    M[np.diag_indices(P.n)] = np.where(own + 1 == distinguished, 2 * C, 2 * (C + 1.0))
    return M


def build_M(P: PartitionSpec, ell: int, C: Number) -> QuadraticFormBundle:
    """Assemble M_ell together with its reduction and minors.

    Blocks: the ell-th diagonal block is constant 2C; other leading blocks
    have diagonal 2(C+1) and off-diagonal 2C; the residual block has
    diagonal 2(C+1) and off-diagonal 2C-1; every cross block is 2C-1.
    When the partition saturates n the residual block is absent.
    """
    return QuadraticFormBundle(P, ell, C)


def build_statement2_matrix(P: PartitionSpec, t: int, C: Number) -> np.ndarray:
    """Matrix of the residual-index form, distinguished position t.

    Same block recipe with the special role moved to the residual block:
    the diagonal entry at t drops from 2(C+1) to 2C because the square of
    h_{tt} is not subtracted there.  C is read as a bundle reads it, and t
    must be an integer index of the residual block (BadBlockIndex).
    """
    if P.residual < 1:
        raise CaseMismatch("the residual-index form needs a nonempty residual block")
    Cf = float(_coefficient(C))
    t = _as_integer(t, "t", BadBlockIndex)
    residual = P.index_blocks[P.k]
    if t not in residual:
        raise BadBlockIndex(f"t={t} not in the residual block {residual}")
    M = _fill_blocks(P, Cf, distinguished=0)
    M[t - 1, t - 1] = 2 * Cf
    return M


def _reduced_diagonal(P: PartitionSpec, ell: int, C: Fraction) -> list[Fraction]:
    """Exact diagonal of M' in the block-average basis: one entry per block,
    the residual block's last when it is nonempty."""
    dims = [m for m in P.blocks + (P.residual,) if m]
    out = []
    for i, m in enumerate(dims, start=1):
        if i == ell:
            out.append(2 * C)
        elif P.residual >= 1 and i == len(dims):
            out.append(2 * C - 1 + Fraction(3, m))
        else:
            out.append(2 * (C + Fraction(1, m)))
    return out


def psd_verdict(bundle: QuadraticFormBundle) -> tuple[bool, float]:
    """PSD verdict by dense symmetric eigen-solve; returns (verdict, min eig)."""
    eig_min = float(np.linalg.eigvalsh(bundle.M)[0])
    return eig_min >= -PSD_EIG_TOL, eig_min


def psd_verdict_minors(bundle: QuadraticFormBundle) -> bool:
    """PSD verdict through the sign pattern of the M'' leading minors.

    M is PSD exactly when its compression M' is, difference vectors having
    eigenvalues in {0, 2, 3}.  For 2C = 1 the reduced matrix is diagonal
    with positive entries; for 2C > 1 positivity of all minors of M''
    certifies M' positive definite; for 2C < 1 the minors must alternate
    as (-1)^j (zeros allowed at the threshold).  The minors are exact, so
    is the verdict.
    """
    two_c_minus_1 = 2 * bundle.C - 1
    if two_c_minus_1 == 0:
        return True
    if two_c_minus_1 > 0:
        return all(d > 0 for d in bundle.minors)
    return all((d if j % 2 == 0 else -d) >= 0 for j, d in enumerate(bundle.minors, 1))


# ---------------------------------------------------------------------------
# Kernel of the saturating-case matrix at the optimal coefficient
# ---------------------------------------------------------------------------


def kernel_solution_theorem2(P: PartitionSpec, ell: int):
    """Block-average kernel vector of M_ell at the saturating optimal C.

    A nonzero combination sum a_i v_i lies in the kernel exactly when the
    distinguished block has minimal size; the normalized solution is then
    a_ell = 1 and a_i = n_i / (n_i + 2).  Returns None otherwise.
    """
    ell = _check_ell(P, ell)
    if P.residual != 0:
        raise CaseMismatch("kernel solution is defined for sum(n_i) = n only")
    if P.blocks[ell - 1] != min(P.blocks):
        return None
    return [
        Fraction(1) if i == ell else Fraction(ni, ni + 2)
        for i, ni in enumerate(P.blocks, start=1)
    ]
