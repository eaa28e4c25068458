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
The c-free Ricci tensor ``_ricci``, whose diagonal is K's row sums, gives
tau less tau of a hyperplane in any direction, and the c-free curvature
operator on 2-vectors ``_curvature_operator``, which holds K on its
diagonal, gives the descent's proved lower bound.

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

import itertools
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

# relative asymmetry that ``CubicForm.from_dense`` averages away: far above
# the roundoff of a rotation (below 1e-15) and far below any real asymmetry
_DENSE_SYMMETRY_TOL = 1e-8


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


def _as_scale(value, what: str) -> float:
    """A number > 0 as ``_as_real`` reads it, with 2 * value finite (the
    width of a uniform draw on [-value, value]), else FormatError."""
    v = _as_real(value, what)
    if not (v > 0 and math.isfinite(2.0 * v)):
        raise FormatError(f"{what} must be positive with 2 * {what} finite, got {v!r}")
    return v


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


def _as_list(values, what: str, length=None, error=FormatError) -> list:
    """A JSON list (or a tuple), of ``length`` items if given, else ``error``."""
    if not isinstance(values, (list, tuple)):
        raise error(f"{what} must be a list, got {values!r}")
    if length is not None and len(values) != length:
        raise error(f"{what} must hold {length} items, got {len(values)}")
    return list(values)


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


class _SlotTable:
    """Where each entry of an (n, n, n) symmetric tensor lives among its
    N = C(n + 2, 3) canonical values, for a dimension n that
    ``_check_dimension`` has read.  Built once per n, by ``_slot_table``;
    its arrays are read-only."""

    __slots__ = ("triples", "slot", "gather", "index")

    def __init__(self, n: int):
        cube = range(1, n + 1)
        # the 1-based triples with A <= B <= C, in slot order
        self.triples = tuple(
            (a, b, c) for a in cube for b in range(a, n + 1) for c in range(b, n + 1)
        )
        # each of those triples -> its slot
        self.slot = {t: k for k, t in enumerate(self.triples)}
        # flat (n^3,) position -> slot
        self.gather = np.array(
            [self.slot[tuple(sorted(t))] for t in itertools.product(cube, repeat=3)],
            np.intp,
        )
        # the (3, N) 0-based axes of each slot
        index = np.array(self.triples, dtype=np.intp).T - 1
        for arr in (self.gather, index):
            arr.flags.writeable = False
        self.index = tuple(index)


_slot_table = lru_cache(maxsize=None)(_SlotTable)


def _triple_slot(key, n: int, slot: dict) -> int:
    """The slot of ``key``'s sorted triple, read as ``_validated_triple``
    reads it; a tuple or list of three sorted in-range ints is looked up
    directly (the ``type`` tests keep True, 2.0 and np.int64(2), which
    hash like ints, on the checked path)."""
    if (type(key) is tuple or type(key) is list) and len(key) == 3:
        a, b, c = key
        if type(a) is int and type(b) is int and type(c) is int:
            s = slot.get((a, b, c))
            if s is not None:
                return s
    return slot[_validated_triple(key, n)]


def _symmetrize_dense(arr):
    """Average of an (m, m, m) array over the six permutations of its axes,
    summed as arr plus the mean of the differences p(arr) - arr: an exactly
    symmetric array comes back bit for bit, and entries near the float
    limit do not overflow."""
    moves = ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    return arr + sum(arr.transpose(p) - arr for p in moves) / 6.0


def _as_cube(values, what: str, atol: float, m=None) -> np.ndarray:
    """A symmetric (m, m, m) array of numbers read by ``_as_real_array``,
    as its symmetrization; m is free when not given.  FormatError for a
    non-number, DimensionMismatch for another shape, InvariantViolation for
    a non-finite entry, and ConflictingEntry when an entry lies further
    than atol * max(1, max |entry|) from the symmetrization (atol 0 asks
    for exact symmetry)."""
    arr = _as_real_array(values, what)
    if arr.ndim != 3 or len(set(arr.shape)) != 1 or m not in (None, arr.shape[0]):
        side = "" if m is None else f" of side {m}"
        raise DimensionMismatch(f"{what} must be a cubic array{side}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvariantViolation(f"{what} contains non-finite entries")
    sym = _symmetrize_dense(arr)
    scale = max(1.0, float(np.max(np.abs(arr), initial=0.0)))
    # not <=, so a NaN from differences that overflow fails too
    if not float(np.max(np.abs(arr - sym), initial=0.0)) <= atol * scale:
        raise ConflictingEntry(f"{what} is not symmetric in its three indices")
    return sym


class CubicForm:
    """Fully symmetric cubic tensor on R^n.

    The tensor is held once, as an exactly symmetric dense (n, n, n) array;
    ``entries`` derives the canonical nonzero entries on sorted triples
    from it.  ``CubicForm(n)`` is the zero tensor.  Instances are
    immutable.
    """

    __slots__ = ("n", "_dense")

    def __init__(self, n: int, entries: Mapping | None = None):
        n = _check_dimension(n)
        if not isinstance(entries, (Mapping, type(None))):
            raise FormatError(f"entries must map triples to values, got {entries!r}")
        table = _slot_table(n)
        seen: dict[int, float] = {}  # slot -> value
        for key, value in (entries or {}).items():
            s = _triple_slot(key, n, table.slot)
            v = _entry_value(value, key)
            if seen.get(s, v) != v:
                raise ConflictingEntry(
                    f"triple {key!r} conflicts with an earlier permutation-"
                    f"equivalent entry ({seen[s]} vs {v})"
                )
            seen[s] = v
        self._set_dense(n, _slot_values(len(table.triples), seen))

    def _set_dense(self, n: int, values):
        """Store finite values listed in slot order (``_slot_table``) as the
        dense array; a zero value, -0.0 included, is stored as 0.0."""
        values = np.asarray(values, dtype=float) + 0.0
        dense = values[_slot_table(n).gather].reshape(n, n, n)
        dense.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_dense", dense)

    @classmethod
    def _of_values(cls, n: int, values) -> "CubicForm":
        """From finite values listed in slot order, so no triple
        needs the checks ``__init__`` makes; n is a dimension that
        ``_check_dimension`` has already read."""
        h = object.__new__(cls)
        h._set_dense(n, values)
        return h

    def __setattr__(self, name, value):
        raise AttributeError("CubicForm is immutable")

    @classmethod
    def from_dense(cls, array) -> "CubicForm":
        """Build from a dense (n, n, n) array, which must be symmetric.

        Roundoff-level asymmetry (below 1e-8 relative to the largest entry)
        is averaged away; anything larger raises ConflictingEntry, as
        ``_as_cube`` reads it.  An exactly symmetric array is kept.
        """
        sym = _as_cube(array, "dense array", _DENSE_SYMMETRY_TOL)
        n = _check_dimension(sym.shape[0])
        return cls._of_values(n, sym[_slot_table(n).index])

    # -- access ---------------------------------------------------------

    def lookup(self, a: int, b: int, c: int) -> float:
        a, b, c = _validated_triple((a, b, c), self.n)
        return float(self._dense[a - 1, b - 1, c - 1])

    def _values(self) -> np.ndarray:
        """The canonical values, in slot order."""
        return self._dense[_slot_table(self.n).index]

    @property
    def entries(self) -> dict[tuple[int, int, int], float]:
        """Canonical nonzero entries, keyed by sorted 1-based triples."""
        values = self._values()
        nonzero = np.flatnonzero(values).tolist()
        triples = _slot_table(self.n).triples
        return {triples[k]: v for k, v in zip(nonzero, values[nonzero].tolist())}

    @property
    def dense_view(self):
        """Read-only dense (n, n, n) array; exactly symmetric."""
        return self._dense

    def scaled(self, t: float) -> "CubicForm":
        """t h, for a number t as ``_as_real`` reads it; InvariantViolation
        at the first canonical triple whose t h_ABC is not finite.  A zero
        entry stays zero, whatever t."""
        t = _as_real(t, "t")
        return CubicForm(self.n, {k: t * v for k, v in self.entries.items()})

    def __repr__(self):
        return f"CubicForm(n={self.n}, nnz={np.count_nonzero(self._values())})"

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

        Each triple and value is checked once, here, and written to its
        slot without the checks of ``__init__``.
        """
        data = _as_object(data, "tensor", required=("n",), optional=("entries",))
        n = _check_dimension(_as_integer(data["n"], "dimension"))
        raw_entries = _as_list(data.get("entries", []), "'entries'")
        table = _slot_table(n)
        seen: dict[int, float] = {}  # slot -> value
        for item in raw_entries:
            idx = _as_object(item, "tensor entry", required=("idx", "value"))["idx"]
            s = _triple_slot(idx, n, table.slot)
            if s in seen:
                raise ConflictingEntry(
                    f"duplicate or permutation-conflicting triple {idx!r}"
                )
            seen[s] = _entry_value(item["value"], idx)
        return cls._of_values(n, _slot_values(len(table.triples), seen))


def _slot_values(size: int, seen: dict) -> np.ndarray:
    """The (size,) canonical values with seen[slot] at each written slot and
    zero elsewhere."""
    values = np.zeros(size)
    values[np.fromiter(seen, np.intp, len(seen))] = np.fromiter(
        seen.values(), float, len(seen)
    )
    return values


def random_cubic_form(n: int, scale: float, rng: np.random.Generator) -> CubicForm:
    """I.i.d. uniform entries on [-scale, scale] over canonical triples;
    n is read by ``_check_dimension`` and scale by ``_as_scale``."""
    n = _check_dimension(n)
    scale = _as_scale(scale, "scale")
    values = rng.uniform(-scale, scale, size=len(_slot_table(n).triples))
    return CubicForm._of_values(n, values)


# ---------------------------------------------------------------------------
# Ambient curvature constant
# ---------------------------------------------------------------------------


def finite_or_none(value):
    """A float as a strict JSON number: None (null) unless it is finite."""
    return value if value is not None and math.isfinite(value) else None


def ambient_value(c, what="ambient constant", error=InvariantViolation) -> float:
    """c, one quarter of the constant holomorphic sectional curvature (or a
    bundle's C): a number as ``_as_real`` reads it, as a finite float, else
    ``error``."""
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
        blocks = _check_blocks(self.blocks, "block size")
        object.__setattr__(self, "blocks", blocks)
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


def _check_blocks(blocks, what: str, error=InadmissiblePartition) -> tuple[int, ...]:
    """A list of blocks, each an integer (``_as_integer`` names it ``what``),
    as a tuple, unless they break a rule of ``PartitionSpec`` that holds
    whatever n (one block or more, each >= 2, nondecreasing): ``error``."""
    items = _as_list(blocks, "blocks", error=error)
    blocks = tuple(_as_integer(b, what, error) for b in items)
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


def _check_frame(h: CubicForm, R: Frame):
    """DimensionMismatch unless the frame R is of the dimension of h."""
    if R.n != h.n:
        raise DimensionMismatch(f"frame n={R.n} does not match tensor n={h.n}")


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
    # + 0.0 stores as +0.0 each -0.0 that the QR or the sign flip leaves
    return (Q * signs[..., None, :] + 0.0).swapaxes(-1, -2), diag


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
        arr = _as_real_array(rows, "frame")
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


def _rotate_two_slots(T, R):
    """new_{ABc} = sum R_{Aa} R_{Bb} T_{abc}: ``_rotate_dense`` with slot 3
    left alone, for the same T and R shapes.

    Every Gauss sum of ``_sectional_matrix`` contracts slot 3 with itself,
    and an orthogonal rotation of that slot keeps each such contraction, so
    K of the result is K of the full rotation up to rounding.  Two matmuls:
    R on the first axis, then R on the middle axis, broadcast over the
    first.
    """
    n = T.shape[-1]
    X = R @ T.reshape(T.shape[:-3] + (n, n * n))
    return R[..., None, :, :] @ X.reshape(X.shape[:-1] + (n, n))


def rotate(h: CubicForm, frame: Frame) -> CubicForm:
    """Express h in the rotated orthonormal frame given by the rows of R."""
    _check_frame(h, frame)
    return CubicForm.from_dense(_rotate_dense(h.dense_view, frame.matrix))


# ---------------------------------------------------------------------------
# Curvature quantities
# ---------------------------------------------------------------------------


def mean_curvature_sq(h: CubicForm) -> float:
    """Squared mean curvature (1/n^2) sum_C (sum_A h_{AAC})^2."""
    traces = h.dense_view.trace()
    return float(traces @ traces) / h.n**2


def _sectional_matrix(T):
    """K = D D^T - sum_C h_{..C}^2 with D[i, C] = h_{iiC}, without c.

    T is a dense (n, n, n) tensor or an (m, m, n) slab T[S, S, :], or a
    stack (..., m, m, n) of them.  c + K[i, j] is the sectional curvature of
    the plane of the i-th and j-th listed directions, and tau of their span
    S is 1/2 1^T K 1 + c C(|S|, 2).  The diagonal, zero in exact arithmetic,
    is set to zero.
    """
    m = T.shape[-2]
    # D[..., i, c] = T[..., i, i, c]: the rows i (m + 1) of the (m^2, n) reshape
    D = T.reshape(T.shape[:-3] + (m * m, T.shape[-1]))[..., :: m + 1, :]
    K = D @ D.swapaxes(-1, -2) - np.einsum("...ijc,...ijc->...ij", T, T)
    np.einsum("...ii->...i", K)[...] = 0.0  # a writeable view of the diagonal
    return K


def _curvature_operator(T):
    """The c-free curvature operator Q on 2-vectors, a C(n, 2)-square:

        Q[(ij), (kl)] = sum_C ( h_{ikC} h_{jlC} - h_{ilC} h_{jkC} ),

    for i < j and k < l, rows and columns in ``np.triu_indices(n, 1)``
    order.  T is a dense (n, n, n) tensor.  Q is symmetric, its diagonal at
    e_i ^ e_j is K[i, j], so tr Q = 1/2 sum K = tau_h, and rotating h by R
    conjugates Q by the orthogonal Lambda^2 R, which keeps its eigenvalues.
    """
    n = T.shape[-1]
    X = T.reshape(n * n, n)
    # Y[i, j, k, l] = sum_C h_ikC h_jlC
    Y = (X @ X.T).reshape(n, n, n, n).transpose(0, 2, 1, 3)
    # the flat indices i n + j with i < j, ascending (np.triu_indices costs
    # more than all the rest of this function at n <= 6)
    index = np.arange(n)
    pairs = np.flatnonzero(index[:, None] < index)
    Q = (Y - Y.swapaxes(-1, -2)).reshape(n * n, n * n)
    return Q[pairs[:, None], pairs]


def _ricci(T):
    """Ric_h = sum_C (sum_i h_iiC) h_..C - X X^T with X = T.reshape(n, n^2),
    without c.

    T is a dense (n, n, n) tensor.  Its diagonal is the row sums of K, and
    Ric_h(u, u) + (n - 1) c is tau minus tau of the hyperplane u^perp, for
    a unit u.
    """
    n = T.shape[-1]
    X = T.reshape(n, n * n)
    return T @ np.einsum("iic->c", T) - X @ X.T


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

    ``indices`` is any iterable (a list, tuple, set or range) of 1-based
    indices, else FormatError.  Sets with fewer than two elements return 0
    by the empty-sum convention.
    """
    cval = ambient_value(c)
    try:
        items = list(indices)
    except TypeError:
        raise FormatError(f"the subspace must list its indices, got {indices!r}")
    idx = sorted({_as_index(v, h.n, "the subspace") for v in items})
    return _tau_dense(h.dense_view, [v - 1 for v in idx], cval)


def scalar_curvature(h: CubicForm, c) -> float:
    """tau of the full tangent space."""
    return _tau_dense(h.dense_view, list(range(h.n)), ambient_value(c))
