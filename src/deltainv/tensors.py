"""Symmetric cubic tensors, orthonormal frames, and Gauss-equation curvature.

The pointwise data of a Lagrangian submanifold of a complex space form is a
fully symmetric real 3-tensor h_{ABC} (the second fundamental form paired
with the complex structure, in an orthonormal frame) together with one real
constant c, a quarter of the ambient holomorphic sectional curvature.  Every
curvature quantity in this package comes from one kernel, the h part K of
the Gauss-equation sectional curvatures c + K[i, j] (``_sectional_matrix``):

    K[i, j] = sum_C ( h_{iiC} h_{jjC} - h_{ijC}^2 ),   i != j,

and tau of the span of an index set S is 1/2 1_S^T K 1_S + c C(|S|, 2).
c is added only there: every delta is delta_h + b c, every gap c-free.

Conventions
-----------
* All public indices are 1-based.
* Tensors are stored once, as an exactly symmetric dense (n, n, n) array;
  their canonical entries on sorted triples A <= B <= C derive from it.
* Supported dimensions are 2 <= n <= 12, which keeps the coordinate
  oracle's 2^n index masks and the test suite's brute-force reference
  enumerations tractable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

import math
import numbers
import operator

import numpy as np

from .errors import (
    ConflictingEntry,
    DimensionMismatch,
    EqualIndices,
    FormatError,
    InadmissiblePartition,
    IndexOutOfRange,
    InvariantViolation,
    RankDeficientFrame,
    UnsupportedDimension,
)

MIN_DIMENSION = 2
MAX_DIMENSION = 12

_FRAME_RANK_TOL = 1e-6


def _check_dimension(n) -> int:
    n = _as_integer(n, "dimension", UnsupportedDimension)
    if not MIN_DIMENSION <= n <= MAX_DIMENSION:
        raise UnsupportedDimension(
            f"dimension {n} outside supported range "
            f"{MIN_DIMENSION}..{MAX_DIMENSION}"
        )
    return n


def _as_integer(value, what: str, error=FormatError, least=None) -> int:
    """An integral input value (3, or 3.0 from JSON) as an int, and at least
    ``least`` when that is given (0 for a seed), else ``error``.  JSON true
    and false are not integers here, though bool subclasses int."""
    if isinstance(value, bool):
        raise error(f"{what} must be an integer, got {value!r}")
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise error(f"{what} must be >= {least}, got {value}")
    return value


def _as_real(value, what: str, error=FormatError) -> float:
    """A JSON number (not true, false or a string) as a float, else ``error``."""
    if type(value) is float:  # most JSON numbers; skips the ABC check below
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{what} is an integer beyond float range")


def _as_real_array(values, what: str, error=FormatError) -> np.ndarray:
    """Nested lists of numbers, each as in ``_as_real``, as a float array; a
    numpy array of integers or floats passes whole.  ``error`` otherwise."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind in "iuf":
            return values.astype(float, copy=False)
        values = values.tolist()
    if not isinstance(values, (list, tuple)):
        return np.array(_as_real(values, f"an entry of {what}", error))
    rows = [_as_real_array(v, what, error) for v in values]
    if len({row.shape for row in rows}) > 1:
        raise error(f"the entries of {what} do not form a regular array")
    return np.array(rows, dtype=float)


def _entry_value(value, key) -> float:
    """A tensor entry: a number as ``_as_real`` reads it, and finite."""
    v = _as_real(value, "entry value")
    if not math.isfinite(v):
        raise InvariantViolation(f"non-finite entry {v!r} at {key!r}")
    return v


def _as_object(data, what: str, required=(), optional=()) -> dict:
    """A JSON object holding every ``required`` key and no key outside
    ``required`` and ``optional``, else FormatError."""
    if not isinstance(data, dict):
        raise FormatError(f"{what} must be a JSON object")
    missing = [key for key in required if key not in data]
    if missing:
        raise FormatError(f"missing {what} fields: {missing}")
    unknown = set(data).difference(required, optional)
    if unknown:
        raise FormatError(f"unknown {what} fields: {sorted(unknown)}")
    return data


@lru_cache(maxsize=None)
def _canonical_triples(n: int) -> tuple[tuple[int, int, int], ...]:
    """All 1-based triples with A <= B <= C."""
    return tuple(
        (a, b, c)
        for a in range(1, n + 1)
        for b in range(a, n + 1)
        for c in range(b, n + 1)
    )


def _as_index(value, n: int, where: str, *args) -> int:
    """A 1-based index in 1..n, read as ``_as_integer`` reads it (so not
    1.5, true or "2"); IndexOutOfRange naming ``where.format(*args)``
    otherwise, a text built on the error path only."""
    if type(value) is int and 1 <= value <= n:
        return value
    where = where.format(*args)
    v = _as_integer(value, f"an index of {where}", IndexOutOfRange)
    if not 1 <= v <= n:
        raise IndexOutOfRange(f"index {v} outside 1..{n} in {where}")
    return v


def _validated_triple(key, n: int) -> tuple[int, int, int]:
    """Three indices, each read by ``_as_index``, sorted; IndexOutOfRange
    otherwise."""
    try:
        raw = tuple(key)
    except TypeError:
        raw = ()
    if len(raw) != 3:
        raise IndexOutOfRange(f"index triple {key!r} is not three integers")
    return tuple(sorted(_as_index(v, n, "triple {!r}", key) for v in raw))


@lru_cache(maxsize=None)
def _triple_positions(n: int):
    """Flat (n^3,) table: position (a, b, c) -> index of its sorted triple."""
    where = {t: k for k, t in enumerate(_canonical_triples(n))}
    cube = range(1, n + 1)
    return np.array(
        [where[tuple(sorted((a, b, c)))] for a in cube for b in cube for c in cube],
        dtype=np.intp,
    )


def _symmetrize_dense(arr):
    """Average of an (m, m, m) array over the six permutations of its axes."""
    return (
        arr
        + arr.transpose(0, 2, 1)
        + arr.transpose(1, 0, 2)
        + arr.transpose(1, 2, 0)
        + arr.transpose(2, 0, 1)
        + arr.transpose(2, 1, 0)
    ) / 6.0


class CubicForm:
    """Fully symmetric cubic tensor on R^n.

    The tensor is held once, as an exactly symmetric dense (n, n, n) array;
    ``entries`` derives the canonical nonzero entries on sorted triples
    from it.  Instances are immutable.
    """

    __slots__ = ("n", "_dense")

    def __init__(self, n: int, entries: Mapping | None = None):
        n = _check_dimension(n)
        seen: dict[tuple[int, int, int], float] = {}
        for key, value in (entries or {}).items():
            triple = _validated_triple(key, n)
            v = _entry_value(value, key)
            if triple in seen and seen[triple] != v:
                raise ConflictingEntry(
                    f"triple {key!r} conflicts with an earlier permutation-"
                    f"equivalent entry ({seen[triple]} vs {v})"
                )
            seen[triple] = v
        self._set_dense(n, [seen.get(t, 0.0) for t in _canonical_triples(n)])

    def _set_dense(self, n: int, values):
        """Store finite values listed in canonical triple order as the dense
        array; a zero value, -0.0 included, is stored as 0.0."""
        values = np.asarray(values, dtype=float) + 0.0
        dense = values[_triple_positions(n)].reshape(n, n, n)
        dense.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_dense", dense)

    @classmethod
    def _of_values(cls, n: int, values) -> "CubicForm":
        """From finite values listed in canonical triple order, so no triple
        needs the checks ``__init__`` makes."""
        h = object.__new__(cls)
        h._set_dense(_check_dimension(n), values)
        return h

    def __setattr__(self, name, value):
        raise AttributeError("CubicForm is immutable")

    @classmethod
    def zero(cls, n: int) -> "CubicForm":
        return cls(n, {})

    @classmethod
    def from_dense(cls, array, atol: float = 1e-8) -> "CubicForm":
        """Build from a dense (n, n, n) array, which must be symmetric.

        Roundoff-level asymmetry (below ``atol`` relative to the largest
        entry) is averaged away; anything larger raises ConflictingEntry.
        """
        arr = np.asarray(array, dtype=float)
        if arr.ndim != 3 or len(set(arr.shape)) != 1:
            raise DimensionMismatch(f"expected a cubic array, got shape {arr.shape}")
        n = _check_dimension(int(arr.shape[0]))
        if not np.all(np.isfinite(arr)):
            raise InvariantViolation("dense array contains non-finite entries")
        sym = _symmetrize_dense(arr)
        scale = max(1.0, float(np.max(np.abs(arr))) if arr.size else 1.0)
        if float(np.max(np.abs(arr - sym))) > atol * scale:
            raise ConflictingEntry("dense array is not symmetric in its three indices")
        a, b, c = (np.array(_canonical_triples(n)) - 1).T
        return cls._of_values(n, sym[a, b, c])

    # -- access ---------------------------------------------------------

    def lookup(self, a: int, b: int, c: int) -> float:
        a, b, c = _validated_triple((a, b, c), self.n)
        return float(self._dense[a - 1, b - 1, c - 1])

    @property
    def entries(self) -> dict[tuple[int, int, int], float]:
        """Canonical nonzero entries, keyed by sorted 1-based triples."""
        out = {}
        for a, b, c in _canonical_triples(self.n):
            v = float(self._dense[a - 1, b - 1, c - 1])
            if v != 0.0:
                out[(a, b, c)] = v
        return out

    @property
    def dense_view(self):
        """Read-only dense (n, n, n) array; exactly symmetric."""
        return self._dense

    def dense(self):
        return self._dense.copy()

    def scaled(self, t: float) -> "CubicForm":
        return CubicForm(self.n, {k: t * v for k, v in self.entries.items()})

    def allclose(self, other: "CubicForm", tol: float = 1e-12) -> bool:
        return self.n == other.n and bool(
            np.allclose(self._dense, other._dense, rtol=0.0, atol=tol)
        )

    def __repr__(self):
        return f"CubicForm(n={self.n}, nnz={len(self.entries)})"

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "entries": [
                {"idx": list(t), "value": v} for t, v in self.entries.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, data) -> "CubicForm":
        """Load the JSON wire format; duplicate triples are a load error.

        Each triple and value is checked once, here, and the checked values
        go to the dense array without the checks of ``__init__``.
        """
        data = _as_object(data, "tensor", required=("n",), optional=("entries",))
        n = _check_dimension(_as_integer(data["n"], "dimension"))
        raw_entries = data.get("entries", [])
        if not isinstance(raw_entries, list):
            raise FormatError("'entries' must be a list")
        entries: dict[tuple[int, int, int], float] = {}
        for item in raw_entries:
            idx = _as_object(item, "tensor entry", required=("idx", "value"))["idx"]
            triple = _validated_triple(idx, n)
            if triple in entries:
                raise ConflictingEntry(
                    f"duplicate or permutation-conflicting triple {idx!r}"
                )
            entries[triple] = _entry_value(item["value"], idx)
        return cls._of_values(n, [entries.get(t, 0.0) for t in _canonical_triples(n)])


def symmetrize(raw: Mapping, n: int) -> CubicForm:
    """Canonicalize a sparse index->value mapping into a CubicForm.

    Triples may be given in any order; permutation-equivalent triples with
    different values raise ConflictingEntry, unlisted triples are zero.
    """
    return CubicForm(n, raw)


def random_cubic_form(n: int, scale: float, rng: np.random.Generator) -> CubicForm:
    """I.i.d. uniform entries on [-scale, scale] over canonical triples."""
    values = rng.uniform(-scale, scale, size=len(_canonical_triples(n)))
    return CubicForm._of_values(n, values)


# ---------------------------------------------------------------------------
# Ambient curvature constant
# ---------------------------------------------------------------------------


def finite_or_none(value):
    """A float as a strict JSON number: None (null) unless it is finite."""
    return value if value is not None and math.isfinite(value) else None


def ambient_value(c, what="ambient constant", error=InvariantViolation) -> float:
    """c, one quarter of the constant holomorphic sectional curvature: a
    number as ``_as_real`` reads it, as a finite float, else ``error``."""
    v = _as_real(c, what, error)
    if not math.isfinite(v):
        raise error(f"{what} must be finite, got {c!r}")
    return v


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionSpec:
    """Admissible block sizes (n_1, ..., n_k) for a delta-invariant on R^n.

    Admissibility: 2 <= n_1 <= ... <= n_k <= n-1 and sum(n_i) <= n.  The
    residual block size n_{k+1} = n - sum(n_i) may be zero.
    """

    n: int
    blocks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _check_dimension(self.n))
        try:
            blocks = tuple(_as_integer(b, "block size") for b in self.blocks)
        except (TypeError, FormatError):
            raise InadmissiblePartition(f"blocks {self.blocks!r} are not integers")
        object.__setattr__(self, "blocks", _check_blocks(blocks))
        if any(b > self.n - 1 for b in blocks):
            raise InadmissiblePartition(
                f"block sizes must be <= n-1 = {self.n - 1}: {blocks}"
            )
        if sum(blocks) > self.n:
            raise InadmissiblePartition(
                f"sum of blocks {sum(blocks)} exceeds n = {self.n}"
            )

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def residual(self) -> int:
        """Size of the leftover block n_{k+1}."""
        return self.n - sum(self.blocks)

    @property
    def saturating(self) -> bool:
        """True when the blocks use up the whole dimension."""
        return self.residual == 0

    @property
    def owner(self) -> np.ndarray:
        """Block of each 0-based index: 0..k-1 for the leading blocks, k for
        the residual block; blocks are contiguous and in order."""
        return np.repeat(np.arange(self.k + 1), self.blocks + (self.residual,))

    @property
    def index_blocks(self) -> tuple[tuple[int, ...], ...]:
        """1-based index blocks of ``owner``, the residual block last (may be
        empty)."""
        own = self.owner.tolist()
        return tuple(
            tuple(a + 1 for a in range(self.n) if own[a] == i) for i in range(self.k + 1)
        )

    def label(self) -> str:
        return "+".join(str(b) for b in self.blocks)

    def __str__(self):
        return f"({', '.join(str(b) for b in self.blocks)}) on n={self.n}"


def _check_blocks(blocks: tuple[int, ...], error=InadmissiblePartition):
    """The blocks, unless they break a rule of ``PartitionSpec`` that holds
    whatever n (one block or more, each >= 2, nondecreasing): ``error``."""
    if not blocks:
        raise error("at least one block is required")
    if any(b < 2 for b in blocks):
        raise error(f"every block must have size >= 2: {blocks}")
    if list(blocks) != sorted(blocks):
        raise error(f"blocks must be nondecreasing: {blocks}")
    return blocks


def _check_partition(h: CubicForm, P: PartitionSpec):
    """InadmissiblePartition unless P partitions the dimension of h."""
    if P.n != h.n:
        raise InadmissiblePartition(
            f"partition is for n={P.n} but the tensor has n={h.n}"
        )


def enumerate_partitions(n: int) -> list[PartitionSpec]:
    """Every admissible partition for dimension n, lexicographically ordered."""
    n = _check_dimension(n)
    found: list[PartitionSpec] = []

    def extend(prefix: list[int], minimum: int, remaining: int):
        for b in range(minimum, min(n - 1, remaining) + 1):
            cur = prefix + [b]
            found.append(PartitionSpec(n, tuple(cur)))
            extend(cur, b, remaining - b)

    extend([], 2, n)
    found.sort(key=lambda p: (p.k, p.blocks))
    return found


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------


def _qr_rows(arr):
    """Rows of the sign-fixed Q of arr^T = QR, and diag R.

    ``arr`` is one (n, n) array or a stack (..., n, n) of them.  Flipping
    each column of Q to make diag R nonnegative gives the rows Gram-Schmidt
    of the rows of ``arr`` would; |R_ii| is row i's residual norm against
    the rows before it.  The rows are orthonormal however small |R_ii| is.
    """
    Q, R = np.linalg.qr(arr.swapaxes(-1, -2))
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    signs = np.where(diag < 0.0, -1.0, 1.0)
    return (Q * signs[..., None, :]).swapaxes(-1, -2), diag


def _orthonormalize_rows(arr):
    """Gram-Schmidt of the rows in order, computed as a QR of the transpose
    (``_qr_rows``); a row whose residual norm is below the rank tolerance
    raises RankDeficientFrame."""
    rows, diag = _qr_rows(arr)
    weak = np.argwhere(np.abs(diag) < _FRAME_RANK_TOL)
    if weak.size:
        *stack, i = (int(v) for v in weak[0])
        where = f" of frame {tuple(stack)}" if stack else ""
        raise RankDeficientFrame(
            f"row {i + 1}{where} is numerically dependent on earlier rows "
            f"(residual norm {abs(diag[(*stack, i)]):.3e})"
        )
    return rows


def _haar_rows(gauss):
    """Haar-distributed orthogonal rows from standard normal (..., n, n)
    draws: the rows are the orthonormalized columns of each draw.

    No rank test: about one draw in a million has some |R_ii| below the
    rank tolerance, and its Q is orthonormal all the same, so such a draw
    is a valid sample, not an error.
    """
    return _qr_rows(gauss.swapaxes(-1, -2))[0]


class Frame:
    """An orthogonal array whose rows form an orthonormal basis of R^n.

    Construction re-orthonormalizes, so accumulated drift from optimizer
    steps is tolerated; genuinely rank-deficient input is a hard error.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows):
        arr = np.asarray(rows, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"frame must be square, got shape {arr.shape}")
        _check_dimension(int(arr.shape[0]))
        if not np.all(np.isfinite(arr)):
            raise InvariantViolation("frame contains non-finite entries")
        self._set_rows(_orthonormalize_rows(arr))

    def _set_rows(self, Q):
        Q.flags.writeable = False
        object.__setattr__(self, "_rows", Q)

    def __setattr__(self, name, value):
        raise AttributeError("Frame is immutable")

    @classmethod
    def identity(cls, n: int) -> "Frame":
        return cls(np.eye(_check_dimension(n)))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "Frame":
        """Haar-distributed orthogonal frame, orthonormalized once."""
        n = _check_dimension(n)
        return cls._of_rows(_haar_rows(rng.standard_normal((n, n))))

    @classmethod
    def _of_rows(cls, Q) -> "Frame":
        """A frame of rows that are already orthonormal, taken as they are."""
        frame = object.__new__(cls)
        frame._set_rows(Q)
        return frame

    @property
    def n(self) -> int:
        return int(self._rows.shape[0])

    @property
    def matrix(self):
        """Read-only (n, n) array; row A is the A-th basis vector."""
        return self._rows

    def transposed(self) -> "Frame":
        return Frame(self._rows.T)

    def __repr__(self):
        return f"Frame(n={self.n})"


def _rotate_dense(T, R):
    """new_{ABC} = sum R_{Aa} R_{Bb} R_{Cc} T_{abc} for (..., n, n, n) T.

    R is (n, n) or a stack (..., n, n) that broadcasts against T's stack
    shape: a matching stack, or a stack of frames for one T.  Three matmuls
    and no transposed copies: R on the first axis, R^T from the right on
    the last axis, then R on the middle axis, broadcast over the first.
    """
    n = T.shape[-1]
    R1 = R[..., None, :, :]
    X = R @ T.reshape(T.shape[:-3] + (n, n * n))
    X = X.reshape(X.shape[:-1] + (n, n))
    return R1 @ (X @ R1.swapaxes(-1, -2))


def rotate(h: CubicForm, frame: Frame) -> CubicForm:
    """Express h in the rotated orthonormal frame given by the rows of R."""
    if h.n != frame.n:
        raise DimensionMismatch(f"tensor n={h.n} vs frame n={frame.n}")
    return CubicForm.from_dense(_rotate_dense(h.dense_view, frame.matrix), atol=1e-6)


# ---------------------------------------------------------------------------
# Curvature quantities
# ---------------------------------------------------------------------------


def mean_curvature_sq(h: CubicForm) -> float:
    """Squared mean curvature (1/n^2) sum_C (sum_A h_{AAC})^2."""
    traces = np.einsum("aac->c", h.dense_view)
    return float(traces @ traces) / h.n**2


def _sectional_matrix(T):
    """K = D D^T - sum_C h_{..C}^2 with D[i, C] = h_{iiC}, without c.

    T is a dense (n, n, n) tensor or an (m, m, n) slab T[S, S, :], or a
    stack (..., m, m, n) of them.  c + K[i, j] is the sectional curvature of
    the plane of the i-th and j-th listed directions, and tau of their span
    S is 1/2 1^T K 1 + c C(|S|, 2).  The diagonal, zero in exact arithmetic,
    is set to zero.
    """
    D = np.einsum("...iic->...ic", T)
    K = D @ D.swapaxes(-1, -2) - np.einsum("...ijc,...ijc->...ij", T, T)
    np.einsum("...ii->...i", K)[...] = 0.0  # a writeable view of the diagonal
    return K


def sectional_curvature(h: CubicForm, c, i: int, j: int) -> float:
    """Gauss-equation sectional curvature of the coordinate plane (e_i, e_j)."""
    cval = ambient_value(c)
    i, j = (_as_index(v, h.n, "the plane") for v in (i, j))
    if i == j:
        raise EqualIndices(f"sectional curvature needs two distinct indices, got {i}")
    idx0 = [i - 1, j - 1]
    return float(_sectional_matrix(h.dense_view[np.ix_(idx0, idx0)])[0, 1]) + cval


def _tau_dense(T, idx0, cval: float) -> float:
    """tau of the span S of the 0-based index list idx0: 1/2 sum K of
    T[S, S, :] plus c C(|S|, 2)."""
    idx = np.asarray(idx0, dtype=np.intp)
    pairs = len(idx) * (len(idx) - 1) // 2
    return 0.5 * float(_sectional_matrix(T[idx[:, None], idx]).sum()) + cval * pairs


def tau_subspace(h: CubicForm, c, indices: Iterable[int]) -> float:
    """tau of the span of the listed coordinate directions.

    Sets with fewer than two elements return 0 by the empty-sum convention.
    """
    cval = ambient_value(c)
    idx = sorted({_as_index(v, h.n, "the subspace") for v in indices})
    return _tau_dense(h.dense_view, [v - 1 for v in idx], cval)


def scalar_curvature(h: CubicForm, c) -> float:
    """tau of the full tangent space."""
    return _tau_dense(h.dense_view, list(range(h.n)), ambient_value(c))
