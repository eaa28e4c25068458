"""Symmetric cubic tensors, orthonormal frames, and Gauss-equation curvature.

The pointwise data of a Lagrangian submanifold of a complex space form is a
fully symmetric real 3-tensor h_{ABC} (the second fundamental form paired
with the complex structure, in an orthonormal frame) together with one real
constant c, a quarter of the ambient holomorphic sectional curvature.  Every
curvature quantity in this package reduces to Gauss-equation sums over the
entries of h:

    K(e_i, e_j) = c + sum_C ( h_{iiC} h_{jjC} - h_{ijC}^2 )

and tau of a subspace is the sum of K over index pairs inside it.

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


def _check_dimension(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool):
        raise UnsupportedDimension(f"dimension must be an integer, got {n!r}")
    if not MIN_DIMENSION <= n <= MAX_DIMENSION:
        raise UnsupportedDimension(
            f"dimension {n} outside supported range "
            f"{MIN_DIMENSION}..{MAX_DIMENSION}"
        )
    return n


@lru_cache(maxsize=None)
def _canonical_triples(n: int) -> tuple[tuple[int, int, int], ...]:
    """All 1-based triples with A <= B <= C."""
    return tuple(
        (a, b, c)
        for a in range(1, n + 1)
        for b in range(a, n + 1)
        for c in range(b, n + 1)
    )


def _validated_triple(key, n: int) -> tuple[int, int, int]:
    try:
        raw = tuple(key)
        if len(raw) != 3 or any(float(v) != int(v) for v in raw):
            raise ValueError
        a, b, c = (int(v) for v in raw)
    except (TypeError, ValueError, OverflowError):
        raise IndexOutOfRange(f"index triple {key!r} is not three integers")
    for v in (a, b, c):
        if not 1 <= v <= n:
            raise IndexOutOfRange(f"index {v} outside 1..{n} in triple {key!r}")
    return tuple(sorted((a, b, c)))


def _dense_from_entries(n: int, entries: Mapping[tuple[int, int, int], float]):
    T = np.zeros((n, n, n))
    for (a, b, c), v in entries.items():
        i, j, k = a - 1, b - 1, c - 1
        for p in {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)}:
            T[p] = v
    T.flags.writeable = False
    return T


class CubicForm:
    """Fully symmetric cubic tensor on R^n.

    The tensor is held once, as an exactly symmetric dense (n, n, n) array;
    ``entries`` derives the canonical nonzero entries on sorted triples
    from it.  Instances are immutable.
    """

    __slots__ = ("n", "_dense")

    def __init__(self, n: int, entries: Mapping | None = None):
        _check_dimension(n)
        seen: dict[tuple[int, int, int], float] = {}
        for key, value in (entries or {}).items():
            triple = _validated_triple(key, n)
            v = float(value)
            if not math.isfinite(v):
                raise InvariantViolation(f"non-finite entry {value!r} at {key!r}")
            if triple in seen and seen[triple] != v:
                raise ConflictingEntry(
                    f"triple {key!r} conflicts with an earlier permutation-"
                    f"equivalent entry ({seen[triple]} vs {v})"
                )
            seen[triple] = v
        canonical = {t: v for t, v in seen.items() if v != 0.0}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_dense", _dense_from_entries(n, canonical))

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
        sym = (
            arr
            + arr.transpose(0, 2, 1)
            + arr.transpose(1, 0, 2)
            + arr.transpose(1, 2, 0)
            + arr.transpose(2, 0, 1)
            + arr.transpose(2, 1, 0)
        ) / 6.0
        scale = max(1.0, float(np.max(np.abs(arr))) if arr.size else 1.0)
        if float(np.max(np.abs(arr - sym))) > atol * scale:
            raise ConflictingEntry("dense array is not symmetric in its three indices")
        entries = {}
        for (a, b, c) in _canonical_triples(n):
            v = float(sym[a - 1, b - 1, c - 1])
            if v != 0.0:
                entries[(a, b, c)] = v
        return cls(n, entries)

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

    def norm(self) -> float:
        """Frobenius norm over all n^3 positions."""
        return float(np.sqrt((self._dense * self._dense).sum()))

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
        """Load the JSON wire format; duplicate triples are a load error."""
        if not isinstance(data, dict) or "n" not in data:
            raise FormatError("tensor JSON must be an object with an 'n' field")
        try:
            n = int(data["n"])
        except (TypeError, ValueError):
            raise FormatError(f"invalid dimension {data.get('n')!r}")
        raw_entries = data.get("entries", [])
        if not isinstance(raw_entries, list):
            raise FormatError("'entries' must be a list")
        entries: dict[tuple[int, int, int], float] = {}
        _check_dimension(n)
        for item in raw_entries:
            if not isinstance(item, dict) or "idx" not in item or "value" not in item:
                raise FormatError(f"malformed entry {item!r}")
            idx = item["idx"]
            if not isinstance(idx, (list, tuple)) or len(idx) != 3:
                raise FormatError(f"'idx' must hold three indices, got {idx!r}")
            triple = _validated_triple(idx, n)
            if triple in entries:
                raise ConflictingEntry(
                    f"duplicate or permutation-conflicting triple {idx!r}"
                )
            try:
                entries[triple] = float(item["value"])
            except (TypeError, ValueError):
                raise FormatError(f"non-numeric value {item['value']!r}")
        return cls(n, entries)


def symmetrize(raw: Mapping, n: int) -> CubicForm:
    """Canonicalize a sparse index->value mapping into a CubicForm.

    Triples may be given in any order; permutation-equivalent triples with
    different values raise ConflictingEntry, unlisted triples are zero.
    """
    return CubicForm(n, raw)


def random_cubic_form(n: int, scale: float, rng: np.random.Generator) -> CubicForm:
    """I.i.d. uniform entries on [-scale, scale] over canonical triples."""
    triples = _canonical_triples(n)
    values = rng.uniform(-scale, scale, size=len(triples))
    return CubicForm(n, dict(zip(triples, values)))


# ---------------------------------------------------------------------------
# Ambient curvature constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmbientConstant:
    """One quarter of the constant holomorphic sectional curvature."""

    c: float

    def __post_init__(self):
        object.__setattr__(self, "c", float(self.c))
        if not math.isfinite(self.c):
            raise InvariantViolation(f"ambient constant must be finite, got {self.c}")


def ambient_value(c) -> float:
    v = c.c if isinstance(c, AmbientConstant) else float(c)
    if not math.isfinite(v):
        raise InvariantViolation(f"ambient constant must be finite, got {c!r}")
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
        _check_dimension(self.n)
        try:
            blocks = tuple(int(b) for b in self.blocks)
        except (TypeError, ValueError):
            raise InadmissiblePartition(f"blocks {self.blocks!r} are not integers")
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise InadmissiblePartition("at least one block is required")
        if any(b < 2 for b in blocks):
            raise InadmissiblePartition(f"every block must have size >= 2: {blocks}")
        if any(b > self.n - 1 for b in blocks):
            raise InadmissiblePartition(
                f"block sizes must be <= n-1 = {self.n - 1}: {blocks}"
            )
        if list(blocks) != sorted(blocks):
            raise InadmissiblePartition(f"blocks must be nondecreasing: {blocks}")
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
    def index_blocks(self) -> tuple[tuple[int, ...], ...]:
        """Contiguous 1-based index blocks, the residual block last (may be empty)."""
        out = []
        start = 1
        for b in self.blocks:
            out.append(tuple(range(start, start + b)))
            start += b
        out.append(tuple(range(start, self.n + 1)))
        return tuple(out)

    def label(self) -> str:
        return "+".join(str(b) for b in self.blocks)

    def __str__(self):
        return f"({', '.join(str(b) for b in self.blocks)}) on n={self.n}"


def enumerate_partitions(n: int) -> list[PartitionSpec]:
    """Every admissible partition for dimension n, lexicographically ordered."""
    _check_dimension(n)
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


def _orthonormalize_rows(arr):
    """Gram-Schmidt of the rows in order, computed as a QR of the transpose.

    Flipping each column of Q to make diag R positive gives the rows
    Gram-Schmidt would; |R_ii| is row i's residual norm against the rows
    before it.
    """
    Q, R = np.linalg.qr(arr.T)
    diag = np.diag(R)
    weak = np.flatnonzero(np.abs(diag) < _FRAME_RANK_TOL)
    if weak.size:
        i = int(weak[0])
        raise RankDeficientFrame(
            f"row {i + 1} is numerically dependent on earlier rows "
            f"(residual norm {abs(diag[i]):.3e})"
        )
    return (Q * np.sign(diag)).T


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
        Q = _orthonormalize_rows(arr)
        Q.flags.writeable = False
        object.__setattr__(self, "_rows", Q)

    def __setattr__(self, name, value):
        raise AttributeError("Frame is immutable")

    @classmethod
    def identity(cls, n: int) -> "Frame":
        return cls(np.eye(_check_dimension(n)))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "Frame":
        """Haar-distributed orthogonal frame."""
        _check_dimension(n)
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        q = q * np.sign(np.diag(r))
        return cls(q.T)

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
    """new_{ABC} = sum R_{Aa} R_{Bb} R_{Cc} T_{abc} for an (n,n,n) array."""
    X = np.tensordot(R, T, axes=(1, 0))
    X = np.tensordot(R, X, axes=(1, 1))
    X = np.tensordot(R, X, axes=(1, 2))
    return X.transpose(2, 1, 0)


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


def sectional_curvature(h: CubicForm, c, i: int, j: int) -> float:
    """Gauss-equation sectional curvature of the coordinate plane (e_i, e_j)."""
    cval = ambient_value(c)
    for v in (i, j):
        if not 1 <= int(v) <= h.n:
            raise IndexOutOfRange(f"index {v} outside 1..{h.n}")
    if i == j:
        raise EqualIndices(f"sectional curvature needs two distinct indices, got {i}")
    T = h.dense_view
    a, b = i - 1, j - 1
    return float(cval + T[a, a, :] @ T[b, b, :] - T[a, b, :] @ T[a, b, :])


def _tau_dense(T, idx0, cval: float) -> float:
    """Sum of K over pairs inside the 0-based index list idx0."""
    m = len(idx0)
    if m < 2:
        return 0.0
    d = T[idx0, idx0, :]
    s = d.sum(axis=0)
    sub = T[np.ix_(idx0, idx0)]
    hpart = 0.5 * (float(s @ s) - float((sub * sub).sum()))
    return hpart + cval * (m * (m - 1) // 2)


def tau_subspace(h: CubicForm, c, indices: Iterable[int]) -> float:
    """tau of the span of the listed coordinate directions.

    Sets with fewer than two elements return 0 by the empty-sum convention.
    """
    cval = ambient_value(c)
    idx = sorted({int(v) for v in indices})
    for v in idx:
        if not 1 <= v <= h.n:
            raise IndexOutOfRange(f"index {v} outside 1..{h.n}")
    return _tau_dense(h.dense_view, [v - 1 for v in idx], cval)


def scalar_curvature(h: CubicForm, c) -> float:
    """tau of the full tangent space."""
    return tau_subspace(h, c, range(1, h.n + 1))
