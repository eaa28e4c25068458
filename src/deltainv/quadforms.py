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

Exact rational arithmetic is used whenever C is supplied as a Fraction;
sign decisions near thresholds are then exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .bounds import THEOREM2
from .errors import BadBlockIndex, CaseMismatch, EmptyList
from .tensors import PartitionSpec

# Cases for critical_C; the saturating case shares the bounds' THEOREM2
STATEMENT_I = "STATEMENT_I"
STATEMENT_II = "STATEMENT_II"

PSD_EIG_TOL = 1e-10

Number = Union[float, Fraction]


# ---------------------------------------------------------------------------
# The closed-form determinant and its recursion
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


def det_recursive(values: Sequence[Number]) -> Number:
    """Same determinant via the two-term recursion.

    Delta(A_1..A_m) = (A_m + A_{m-1} - 2) Delta(A_1..A_{m-1})
                      - (A_{m-1} - 1)^2 Delta(A_1..A_{m-2}),
    with Delta(A_1) = A_1 and Delta(A_1, A_2) = A_1 A_2 - 1.
    """
    vals = list(values)
    if not vals:
        raise EmptyList("determinant of an empty matrix")
    if len(vals) == 1:
        return vals[0]
    prev2 = vals[0]
    prev1 = vals[0] * vals[1] - 1
    for m in range(2, len(vals)):
        cur = (vals[m] + vals[m - 1] - 2) * prev1 - (vals[m - 1] - 1) ** 2 * prev2
        prev2, prev1 = prev1, cur
    return prev1


# ---------------------------------------------------------------------------
# Critical coefficients
# ---------------------------------------------------------------------------


def _check_ell(P: PartitionSpec, ell: int) -> int:
    if not 1 <= int(ell) <= P.k:
        raise BadBlockIndex(f"ell={ell} outside 1..{P.k}")
    return int(ell)


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
    r = P.residual
    k = P.k
    if case == STATEMENT_I:
        s = sum(Fraction(1, ni + 2) for i, ni in enumerate(P.blocks, 1) if i != ell)
        num = r + 3 * k - 3 - 6 * s
        den = r + 3 * k - 6 * s
    elif case == STATEMENT_II:
        if r < 1:
            raise CaseMismatch("STATEMENT_II needs a nonempty residual block")
        s = sum(Fraction(1, ni + 2) for ni in P.blocks)
        num = r + 3 * k - 1 - 6 * s
        den = r + 3 * k + 2 - 6 * s
    elif case == THEOREM2:
        if r != 0:
            raise CaseMismatch("THEOREM2 needs sum(n_i) = n")
        s = sum(Fraction(1, ni + 2) for i, ni in enumerate(P.blocks, 1) if i != ell)
        num = k - 1 - 2 * s
        den = k - 2 * s
    else:
        raise CaseMismatch(f"unknown case {case!r}")
    return Fraction(num) / (2 * Fraction(den))


# ---------------------------------------------------------------------------
# The block matrices and their reductions
# ---------------------------------------------------------------------------


@dataclass
class QuadraticFormBundle:
    """Matrix data of the block quadratic form for one (partition, ell, C).

    ``M`` is twice the matrix of the form in the diagonal variables x_A.
    ``Mprime`` is its compression onto the block-average vectors, ``minors``
    are the leading principal minors of M'/(2C-1) (empty when 2C = 1), and
    ``critical_C`` is the exact PSD threshold of this very matrix.
    """

    P: PartitionSpec
    ell: int
    C: Number
    M: np.ndarray
    Mprime: np.ndarray = field(repr=False, default=None)
    minors: list = field(default_factory=list)
    critical_C: Fraction = None

    @property
    def exact(self) -> bool:
        return isinstance(self.C, Fraction)


def _fill_blocks(P: PartitionSpec, C: float, distinguished: int):
    """Common n x n assembly: 2C within leading blocks, 2C - 1 elsewhere,
    and 2(C + 1) on the diagonal outside the all-2C block ``distinguished``
    (1-based; 0 marks none)."""
    own = P.owner
    M = np.where((own[:, None] == own) & (own < P.k), 2 * C, 2 * C - 1.0)
    M[np.diag_indices(P.n)] = np.where(own + 1 == distinguished, 2 * C, 2 * (C + 1.0))
    return M


def build_M(P: PartitionSpec, ell: int, C: Number) -> QuadraticFormBundle:
    """Assemble M_ell together with its reduction, minors and threshold.

    Blocks: the ell-th diagonal block is constant 2C; other leading blocks
    have diagonal 2(C+1) and off-diagonal 2C; the residual block has
    diagonal 2(C+1) and off-diagonal 2C-1; every cross block is 2C-1.
    When the partition saturates n the residual block is absent.
    """
    ell = _check_ell(P, ell)
    Cf = float(C)
    M = _fill_blocks(P, Cf, distinguished=ell)
    bundle = QuadraticFormBundle(P=P, ell=ell, C=C, M=M)
    bundle.Mprime = reduce_M(bundle)
    bundle.critical_C = critical_C(P, ell, STATEMENT_I)
    bundle.minors = _reduced_minors(P, ell, C)
    return bundle


def build_statement2_matrix(P: PartitionSpec, t: int, C: Number) -> np.ndarray:
    """Matrix of the residual-index form, distinguished position t.

    Same block recipe with the special role moved to the residual block:
    the diagonal entry at t drops from 2(C+1) to 2C because the square of
    h_{tt} is not subtracted there.
    """
    if P.residual < 1:
        raise CaseMismatch("the residual-index form needs a nonempty residual block")
    residual = P.index_blocks[P.k]
    if t not in residual:
        raise BadBlockIndex(f"t={t} not in the residual block {residual}")
    Cf = float(C)
    M = _fill_blocks(P, Cf, distinguished=0)
    M[t - 1, t - 1] = 2 * Cf
    return M


def _reduced_dims(P: PartitionSpec) -> list[int]:
    """Block sizes, the residual block's last when it is nonempty."""
    return [m for m in P.blocks + (P.residual,) if m]


def _reduced_diagonal(P: PartitionSpec, ell: int, C: Number) -> list[Number]:
    """Diagonal of M' in the block-average basis; exact when C is a Fraction."""
    exact = isinstance(C, Fraction)

    def inv(m):
        return Fraction(1, m) if exact else 1.0 / m

    dims = _reduced_dims(P)
    out: list[Number] = []
    for i, m in enumerate(dims, start=1):
        if i == ell:
            out.append(2 * C)
        elif P.residual >= 1 and i == len(dims):
            out.append(2 * C - 1 + 3 * inv(m))
        else:
            out.append(2 * (C + inv(m)))
    return out


def reduce_M(bundle: QuadraticFormBundle) -> np.ndarray:
    """Compression of M onto the block-average vectors v_i = indicator/n_i.

    Entries in closed form: 2C at (ell, ell), 2C - 1 + 3/n_{k+1} at the
    residual position, 2(C + 1/n_i) elsewhere on the diagonal, and 2C - 1
    off the diagonal.  Equals V M V^T for V stacking the v_i.
    """
    diag = [float(d) for d in _reduced_diagonal(bundle.P, bundle.ell, bundle.C)]
    out = np.full((len(diag), len(diag)), 2 * float(bundle.C) - 1.0)
    np.fill_diagonal(out, diag)
    return out


def _reduced_minors(P: PartitionSpec, ell: int, C: Number) -> list:
    """Leading principal minors of M'' = M'/(2C-1); empty when 2C = 1."""
    two_c_minus_1 = 2 * C - 1
    if two_c_minus_1 == 0:
        return []
    diag = [d / two_c_minus_1 for d in _reduced_diagonal(P, ell, C)]
    return [det_closed(diag[: j + 1]) for j in range(len(diag))]


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
    as (-1)^j (zeros allowed at the threshold).
    """
    C = bundle.C
    exact = isinstance(C, Fraction)
    two_c_minus_1 = 2 * C - 1
    if (two_c_minus_1 == 0) if exact else (abs(two_c_minus_1) < 1e-14):
        return True
    minors = bundle.minors or _reduced_minors(bundle.P, bundle.ell, C)
    zero_tol = 0 if exact else 1e-12
    if two_c_minus_1 > 0:
        return all(d > zero_tol for d in minors)
    ok = True
    for j, d in enumerate(minors, start=1):
        signed = d if j % 2 == 0 else -d
        ok = ok and (signed >= -zero_tol)
    return ok


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


def block_average_vectors(P: PartitionSpec) -> np.ndarray:
    """Rows v_i = (1/n_i) * indicator(block i), residual block included."""
    dims = _reduced_dims(P)
    return (np.arange(len(dims))[:, None] == P.owner) / np.array(dims)[:, None]
