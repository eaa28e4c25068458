"""Constructing and checking equality-attaining cubic tensors.

Both optimal bounds admit pointwise equality cases with nonvanishing mean
curvature.  The structural conditions, stated for a basis adapted to the
minimizing blocks, are:

Non-saturating partitions (residual block present), driven by one scalar
lambda_r per residual index r:

  1. entries with three mutually different indices vanish unless all three
     lie in the same leading block;
  2. for every leading-block index a: the couplings h^a_{bb} to other
     blocks and to the residual indices vanish, and the in-block partial
     trace sum_b h^a_{bb} vanishes;
  3. for every residual index r:  h^r_{rr} = 3 h^r_{ss} = (n_i+2) h^r_{aa}
     for all other residual s and all indices a of leading block i.

Saturating partitions, driven by one trace value per index of a
minimal-size block:

  1. h^A_{ab} = 0 when a, b belong to different blocks and A differs from
     both;
  2. indices b of non-minimal blocks: cross couplings h^b_{aa} vanish and
     the in-block partial trace vanishes;
  3. indices b of minimal blocks: sum_{a in own block} h^b_{aa}
     = (n_i+2) h^b_{cc} for every index c of any other block i.

Builders take explicit free parameters; ``random_witness`` fills them from
a seeded distribution.  Each constructed witness should be verified
numerically against the optimizer rather than trusted blindly, since the
structural conditions are stated at a minimizing tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InadmissiblePartition, InvariantViolation
from .tensors import CubicForm, PartitionSpec, _symmetrize_dense

TRACE_TOL = 1e-10
CHECK_TOL = 1e-10


@dataclass(frozen=True)
class Violation:
    """One broken equality condition: which rule, where, and by how much."""

    bullet: str
    indices: tuple[int, ...]
    residual: float

    def __str__(self):
        return f"{self.bullet} at {self.indices}: residual {self.residual:.3e}"


def _as_block_array(values, size: int, what: str):
    if values is None:
        return np.zeros((size, size, size))
    arr = np.asarray(values, dtype=float)
    if arr.shape != (size, size, size):
        raise InvariantViolation(
            f"{what} must have shape {(size, size, size)}, got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise InvariantViolation(f"{what} contains non-finite entries")
    sym = _symmetrize_dense(arr)
    if float(np.max(np.abs(arr - sym))) > 1e-12 * max(1.0, float(np.max(np.abs(arr)))):
        raise InvariantViolation(f"{what} is not symmetric")
    return arr


def _partial_traces(block_arr) -> np.ndarray:
    """Vector of sums over the doubled index: t_a = sum_b arr[a, b, b]."""
    return np.einsum("abb->a", block_arr)


def _with_partial_traces(t) -> np.ndarray:
    """Symmetric (m, m, m) array sym(I (x) t) scaled to partial traces t."""
    m = len(t)
    return _symmetrize_dense(np.multiply.outer(np.eye(m), t)) * (3.0 / (m + 2))


@dataclass(frozen=True)
class EqualityParamsT1:
    """Free parameters of a non-saturating equality tensor.

    ``lambdas`` has one entry per residual index (in block order) and sets
    h^r_{rrr}; ``inblock`` holds one symmetric (n_i)^3 array per leading
    block whose partial traces must vanish (None means zero).
    """

    P: PartitionSpec
    lambdas: Sequence[float]
    inblock: Sequence[Optional[np.ndarray]] = None

    def __post_init__(self):
        if self.P.residual < 1:
            raise InadmissiblePartition(
                "non-saturating equality tensors need a nonempty residual block"
            )
        lambdas = tuple(float(v) for v in self.lambdas)
        if len(lambdas) != self.P.residual:
            raise InvariantViolation(
                f"expected {self.P.residual} lambda values, got {len(lambdas)}"
            )
        object.__setattr__(self, "lambdas", lambdas)
        raw = self.inblock if self.inblock is not None else [None] * self.P.k
        if len(raw) != self.P.k:
            raise InvariantViolation(f"expected {self.P.k} in-block arrays")
        arrays = []
        for i, (size, values) in enumerate(zip(self.P.blocks, raw), start=1):
            arr = _as_block_array(values, size, f"in-block array {i}")
            traces = _partial_traces(arr)
            if float(np.max(np.abs(traces))) > TRACE_TOL:
                raise InvariantViolation(
                    f"in-block array {i} has nonzero partial traces {traces}"
                )
            arrays.append(arr)
        object.__setattr__(self, "inblock", tuple(arrays))


@dataclass(frozen=True)
class EqualityParamsT2:
    """Free parameters of a saturating equality tensor.

    ``inblock`` holds one symmetric (n_i)^3 array per block.  Minimal-size
    blocks may carry arbitrary partial traces (these become the ``traces``
    values); non-minimal blocks must be traceless.  Explicit ``traces`` are
    validated against the arrays when supplied.
    """

    P: PartitionSpec
    inblock: Sequence[Optional[np.ndarray]] = None
    traces: Sequence[Optional[Sequence[float]]] = None

    def __post_init__(self):
        if self.P.residual != 0:
            raise InadmissiblePartition(
                "saturating equality tensors need sum(n_i) = n"
            )
        raw = self.inblock if self.inblock is not None else [None] * self.P.k
        if len(raw) != self.P.k:
            raise InvariantViolation(f"expected {self.P.k} in-block arrays")
        minimal = min(self.P.blocks)
        arrays = []
        derived = []
        for i, (size, values) in enumerate(zip(self.P.blocks, raw), start=1):
            arr = _as_block_array(values, size, f"in-block array {i}")
            tr = _partial_traces(arr)
            if size != minimal and float(np.max(np.abs(tr))) > TRACE_TOL:
                raise InvariantViolation(
                    f"block {i} is not of minimal size; its partial traces "
                    f"must vanish, got {tr}"
                )
            arrays.append(arr)
            derived.append(tr)
        if self.traces is not None:
            if len(self.traces) != self.P.k:
                raise InvariantViolation(f"expected {self.P.k} trace vectors")
            for i, (given, have) in enumerate(zip(self.traces, derived), start=1):
                if given is None:
                    continue
                g = np.asarray(given, dtype=float)
                if g.shape != have.shape or float(np.max(np.abs(g - have))) > TRACE_TOL:
                    raise InvariantViolation(
                        f"declared traces for block {i} disagree with the "
                        f"in-block array ({g} vs {have})"
                    )
        object.__setattr__(self, "inblock", tuple(arrays))
        object.__setattr__(self, "traces", tuple(derived))


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_t1(params: EqualityParamsT1) -> CubicForm:
    """Assemble the non-saturating equality tensor from its parameters."""
    P = params.P
    n = P.n
    T = np.zeros((n, n, n))
    residual = P.index_blocks[P.k]
    leading = P.index_blocks[: P.k]

    for arr, block in zip(params.inblock, leading):
        idx = np.asarray(block) - 1
        T[np.ix_(idx, idx, idx)] = arr

    for lam, r in zip(params.lambdas, residual):
        r0 = r - 1
        T[r0, r0, r0] = lam
        for s in residual:
            if s == r:
                continue
            s0 = s - 1
            for p in ((s0, s0, r0), (s0, r0, s0), (r0, s0, s0)):
                T[p] = lam / 3.0
        for size, block in zip(P.blocks, leading):
            v = lam / (size + 2)
            for a in block:
                a0 = a - 1
                for p in ((a0, a0, r0), (a0, r0, a0), (r0, a0, a0)):
                    T[p] = v
    return CubicForm.from_dense(T, atol=1e-12)


def build_t2(params: EqualityParamsT2) -> CubicForm:
    """Assemble the saturating equality tensor from its parameters."""
    P = params.P
    n = P.n
    T = np.zeros((n, n, n))
    minimal = min(P.blocks)
    leading = P.index_blocks[: P.k]

    for arr, block in zip(params.inblock, leading):
        idx = np.asarray(block) - 1
        T[np.ix_(idx, idx, idx)] = arr

    for j, (size_j, block_j) in enumerate(zip(P.blocks, leading)):
        if size_j != minimal:
            continue
        for pos, b in enumerate(block_j):
            t = params.traces[j][pos]
            if t == 0.0:
                continue
            b0 = b - 1
            for i, (size_i, block_i) in enumerate(zip(P.blocks, leading)):
                if i == j:
                    continue
                v = t / (size_i + 2)
                for a in block_i:
                    a0 = a - 1
                    for p in ((a0, a0, b0), (a0, b0, a0), (b0, a0, a0)):
                        T[p] = v
    return CubicForm.from_dense(T, atol=1e-12)


# ---------------------------------------------------------------------------
# Checkers (inverse predicates)
# ---------------------------------------------------------------------------


def _block_id(P: PartitionSpec):
    """Map 1-based index -> block number (k+1 for the residual block)."""
    owner = {}
    for i, block in enumerate(P.index_blocks, start=1):
        for v in block:
            owner[v] = i
    return owner


def check_t1(h: CubicForm, P: PartitionSpec, tol: float = CHECK_TOL) -> list[Violation]:
    """All broken non-saturating equality conditions, empty iff equality holds."""
    if P.n != h.n:
        raise InadmissiblePartition(f"partition n={P.n} vs tensor n={h.n}")
    if P.residual < 1:
        raise InadmissiblePartition("checker needs a nonempty residual block")
    owner = _block_id(P)
    kp1 = P.k + 1
    T = h.dense_view
    out: list[Violation] = []

    # bullet 1: three mutually different indices, not all in one leading block
    for a in range(1, P.n + 1):
        for b in range(a + 1, P.n + 1):
            for c in range(b + 1, P.n + 1):
                same_leading = owner[a] == owner[b] == owner[c] != kp1
                if same_leading:
                    continue
                v = T[a - 1, b - 1, c - 1]
                if abs(v) > tol:
                    out.append(Violation("bullet1", (a, b, c), abs(v)))

    residual = P.index_blocks[P.k]
    leading = P.index_blocks[: P.k]

    # bullet 2: cross couplings of leading-block upper indices vanish,
    # in-block partial traces vanish
    for i, block_i in enumerate(leading, start=1):
        for a in block_i:
            for j, block_j in enumerate(leading, start=1):
                if i == j:
                    continue
                for b in block_j:
                    v = T[a - 1, b - 1, b - 1]
                    if abs(v) > tol:
                        out.append(Violation("bullet2-cross", (a, b, b), abs(v)))
            for r in residual:
                v = T[a - 1, r - 1, r - 1]
                if abs(v) > tol:
                    out.append(Violation("bullet2-residual", (a, r, r), abs(v)))
            trace = sum(T[a - 1, b - 1, b - 1] for b in block_i)
            if abs(trace) > tol:
                out.append(Violation("bullet2-trace", (a,), abs(trace)))

    # bullet 3: the residual chain h^r_{rr} = 3 h^r_{ss} = (n_i+2) h^r_{aa}
    for r in residual:
        top = T[r - 1, r - 1, r - 1]
        for s in residual:
            if s == r:
                continue
            v = top - 3.0 * T[r - 1, s - 1, s - 1]
            if abs(v) > tol:
                out.append(Violation("bullet3-residual", (r, s, s), abs(v)))
        for size, block in zip(P.blocks, leading):
            for a in block:
                v = top - (size + 2) * T[r - 1, a - 1, a - 1]
                if abs(v) > tol:
                    out.append(Violation("bullet3-block", (r, a, a), abs(v)))
    return out


def check_t2(h: CubicForm, P: PartitionSpec, tol: float = CHECK_TOL) -> list[Violation]:
    """All broken saturating equality conditions, empty iff equality holds."""
    if P.n != h.n:
        raise InadmissiblePartition(f"partition n={P.n} vs tensor n={h.n}")
    if P.residual != 0:
        raise InadmissiblePartition("checker needs sum(n_i) = n")
    owner = _block_id(P)
    T = h.dense_view
    out: list[Violation] = []
    minimal = min(P.blocks)
    leading = P.index_blocks[: P.k]

    # bullet 1: cross pairs with an unrelated upper index vanish
    for a in range(1, P.n + 1):
        for b in range(a + 1, P.n + 1):
            if owner[a] == owner[b]:
                continue
            for A in range(1, P.n + 1):
                if A in (a, b):
                    continue
                v = T[A - 1, a - 1, b - 1]
                if abs(v) > tol:
                    out.append(Violation("bullet1", (A, a, b), abs(v)))

    for j, (size_j, block_j) in enumerate(zip(P.blocks, leading), start=1):
        for b in block_j:
            trace = sum(T[b - 1, a - 1, a - 1] for a in block_j)
            if size_j != minimal:
                # non-minimal: traceless and decoupled
                if abs(trace) > tol:
                    out.append(Violation("nonminimal-trace", (b,), abs(trace)))
                for i, block_i in enumerate(leading, start=1):
                    if i == j:
                        continue
                    for a in block_i:
                        v = T[b - 1, a - 1, a - 1]
                        if abs(v) > tol:
                            out.append(
                                Violation("nonminimal-cross", (b, a, a), abs(v))
                            )
            else:
                # minimal: the trace spreads as t/(n_i+2) over other blocks
                for i, (size_i, block_i) in enumerate(zip(P.blocks, leading), start=1):
                    if i == j:
                        continue
                    for a in block_i:
                        v = trace - (size_i + 2) * T[b - 1, a - 1, a - 1]
                        if abs(v) > tol:
                            out.append(
                                Violation("minimal-spread", (b, a, a), abs(v))
                            )
    return out


# ---------------------------------------------------------------------------
# Seeded witnesses
# ---------------------------------------------------------------------------


def _random_traceless_block(size: int, scale: float, rng: np.random.Generator):
    """Random symmetric in-block array projected to zero partial traces."""
    arr = _symmetrize_dense(rng.uniform(-scale, scale, size=(size, size, size)))
    return arr - _with_partial_traces(_partial_traces(arr))


def random_witness(
    theorem: int, P: PartitionSpec, seed: int, scale: float = 1.0
) -> CubicForm:
    """Seeded random equality witness with nonzero mean curvature."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), theorem)))
    if theorem == 1:
        signs = rng.choice([-1.0, 1.0], size=P.residual)
        lambdas = signs * rng.uniform(0.5 * scale, 2.0 * scale, size=P.residual)
        inblock = [
            _random_traceless_block(size, scale, rng) for size in P.blocks
        ]
        return build_t1(EqualityParamsT1(P, lambdas, inblock))
    if theorem == 2:
        minimal = min(P.blocks)
        inblock = []
        for size in P.blocks:
            arr = _random_traceless_block(size, scale, rng)
            if size == minimal:
                # plant a definite trace on each index of the block
                signs = rng.choice([-1.0, 1.0], size=size)
                t = signs * rng.uniform(0.5 * scale, 2.0 * scale, size=size)
                arr = arr + _with_partial_traces(t)
            inblock.append(arr)
        return build_t2(EqualityParamsT2(P, inblock))
    raise InvariantViolation(f"theorem must be 1 or 2, got {theorem!r}")
