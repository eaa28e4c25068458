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

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import InadmissiblePartition, InvariantViolation
from .tensors import CubicForm, PartitionSpec, _as_cube, _as_integer, _as_list
from .tensors import _as_real_array, _check_partition, _symmetrize_dense

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


def _block_arrays(P: PartitionSpec, values, free_trace):
    """Validated read-only in-block arrays, one per leading block, each
    read by ``_as_cube`` (None is zero), and their read-only partial
    traces; a block whose size is not in ``free_trace`` must be traceless."""
    arrays, traces = [], []
    raw = [None] * P.k if values is None else _as_list(
        values, "in-block arrays", P.k, InvariantViolation
    )
    for i, (size, value) in enumerate(zip(P.blocks, raw), start=1):
        arr = np.zeros((size, size, size))
        if value is not None:
            arr = _as_cube(value, f"in-block array {i}", 1e-12, size)
        tr = _partial_traces(arr)
        if size not in free_trace and float(np.max(np.abs(tr))) > TRACE_TOL:
            raise InvariantViolation(
                f"in-block array {i} (block size {size}) must be traceless, "
                f"got partial traces {tr}"
            )
        arr.flags.writeable = tr.flags.writeable = False
        arrays.append(arr)
        traces.append(tr)
    return tuple(arrays), tuple(traces)


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
        lambdas = _as_real_array(self.lambdas, "lambdas", InvariantViolation)
        if lambdas.shape != (self.P.residual,):
            raise InvariantViolation(
                f"expected {self.P.residual} lambda values, got shape {lambdas.shape}"
            )
        object.__setattr__(self, "lambdas", tuple(float(v) for v in lambdas))
        arrays, _ = _block_arrays(self.P, self.inblock, free_trace=())
        object.__setattr__(self, "inblock", arrays)


@dataclass(frozen=True)
class EqualityParamsT2:
    """Free parameters of a saturating equality tensor.

    ``inblock`` holds one symmetric (n_i)^3 array per block (None means
    zero).  Minimal-size blocks may carry arbitrary partial traces, and
    ``traces`` holds every block's, derived from its array; non-minimal
    blocks must be traceless.
    """

    P: PartitionSpec
    inblock: Sequence[Optional[np.ndarray]] = None
    traces: tuple[np.ndarray, ...] = field(init=False)

    def __post_init__(self):
        if self.P.residual != 0:
            raise InadmissiblePartition(
                "saturating equality tensors need sum(n_i) = n"
            )
        arrays, traces = _block_arrays(
            self.P, self.inblock, free_trace=(min(self.P.blocks),)
        )
        object.__setattr__(self, "inblock", arrays)
        object.__setattr__(self, "traces", traces)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _spread_divisors(P: PartitionSpec) -> np.ndarray:
    """m_a = n_i + 2 for an index a of leading block i, 3 for a residual one."""
    return np.append(np.asarray(P.blocks) + 2, 3)[P.owner]


def _assemble(P: PartitionSpec, inblock, V) -> CubicForm:
    """The in-block arrays on the leading blocks, then h^x_{aa} = V[x, a]
    in all three symmetric positions wherever V is nonzero."""
    own = P.owner
    T = np.zeros((P.n, P.n, P.n))
    for i, arr in enumerate(inblock):
        idx = np.flatnonzero(own == i)
        T[np.ix_(idx, idx, idx)] = arr
    x, a = np.nonzero(V)
    T[a, a, x] = T[a, x, a] = T[x, a, a] = V[x, a]
    return CubicForm.from_dense(T)


def build_t1(params: EqualityParamsT1) -> CubicForm:
    """Assemble the non-saturating equality tensor from its parameters.

    Each residual index r spreads lambda_r as h^r_{aa} = lambda_r / m_a
    over every other index a, with h^r_{rr} = lambda_r.
    """
    P = params.P
    res = np.flatnonzero(P.owner == P.k)
    lam = np.asarray(params.lambdas)
    V = np.zeros((P.n, P.n))
    V[res] = lam[:, None] / _spread_divisors(P)
    V[res, res] = lam
    return _assemble(P, params.inblock, V)


def build_t2(params: EqualityParamsT2) -> CubicForm:
    """Assemble the saturating equality tensor from its parameters.

    Each index b of a minimal-size block spreads its partial trace t_b as
    h^b_{aa} = t_b / (n_i + 2) over the indices a of every other block i.
    """
    P = params.P
    own = P.owner
    sizes = np.asarray(P.blocks)[own]
    t = np.where(sizes == min(P.blocks), np.concatenate(params.traces), 0.0)
    V = np.where(own[:, None] != own, t[:, None] / _spread_divisors(P), 0.0)
    return _assemble(P, params.inblock, V)


# ---------------------------------------------------------------------------
# Checkers (inverse predicates)
# ---------------------------------------------------------------------------


def _flag(out: list, bullet: str, idx0, v):
    """Record a violation at the 0-based indices idx0 when |v| > CHECK_TOL."""
    if abs(v) > CHECK_TOL:
        out.append(Violation(bullet, tuple(i + 1 for i in idx0), abs(v)))


def check_t1(h: CubicForm, P: PartitionSpec) -> list[Violation]:
    """All broken non-saturating equality conditions, empty iff equality holds."""
    _check_partition(h, P)
    if P.residual < 1:
        raise InadmissiblePartition("checker needs a nonempty residual block")
    own = P.owner
    k = P.k
    m = _spread_divisors(P)
    T = h.dense_view
    out: list[Violation] = []

    # bullet 1: three mutually different indices, not all in one leading block
    for a, b, c in itertools.combinations(range(P.n), 3):
        if not own[a] == own[b] == own[c] != k:
            _flag(out, "bullet1", (a, b, c), T[a, b, c])

    leading = [a for a in range(P.n) if own[a] < k]
    residual = [r for r in range(P.n) if own[r] == k]

    # bullet 2: cross couplings of leading-block upper indices vanish,
    # in-block partial traces vanish
    for a in leading:
        for b in range(P.n):
            if own[b] != own[a]:
                kind = "bullet2-residual" if own[b] == k else "bullet2-cross"
                _flag(out, kind, (a, b, b), T[a, b, b])
        trace = sum(T[a, b, b] for b in range(P.n) if own[b] == own[a])
        _flag(out, "bullet2-trace", (a,), trace)

    # bullet 3: the residual chain h^r_{rr} = 3 h^r_{ss} = (n_i+2) h^r_{aa},
    # residual s first, then the leading indices a
    for r in residual:
        top = T[r, r, r]
        for b in residual + leading:
            if b != r:
                kind = "bullet3-residual" if own[b] == k else "bullet3-block"
                _flag(out, kind, (r, b, b), top - m[b] * T[r, b, b])
    return out


def check_t2(h: CubicForm, P: PartitionSpec) -> list[Violation]:
    """All broken saturating equality conditions, empty iff equality holds."""
    _check_partition(h, P)
    if P.residual != 0:
        raise InadmissiblePartition("checker needs sum(n_i) = n")
    own = P.owner
    m = _spread_divisors(P)
    minimal = min(P.blocks)
    T = h.dense_view
    out: list[Violation] = []

    # bullet 1: cross pairs with an unrelated upper index vanish
    for a, b in itertools.combinations(range(P.n), 2):
        if own[a] != own[b]:
            for A in range(P.n):
                if A not in (a, b):
                    _flag(out, "bullet1", (A, a, b), T[A, a, b])

    for b in range(P.n):
        others = [a for a in range(P.n) if own[a] != own[b]]
        trace = sum(T[b, a, a] for a in range(P.n) if own[a] == own[b])
        if P.blocks[own[b]] != minimal:
            # non-minimal: traceless and decoupled
            _flag(out, "nonminimal-trace", (b,), trace)
            for a in others:
                _flag(out, "nonminimal-cross", (b, a, a), T[b, a, a])
        else:
            # minimal: the trace spreads as t/(n_i+2) over other blocks
            for a in others:
                _flag(out, "minimal-spread", (b, a, a), trace - m[a] * T[b, a, a])
    return out


# ---------------------------------------------------------------------------
# Seeded witnesses
# ---------------------------------------------------------------------------


def _random_traceless_block(size: int, rng: np.random.Generator):
    """Random symmetric in-block array, entries drawn on [-1, 1], projected
    to zero partial traces."""
    arr = _symmetrize_dense(rng.uniform(-1.0, 1.0, size=(size, size, size)))
    return arr - _with_partial_traces(_partial_traces(arr))


def random_witness(theorem: int, P: PartitionSpec, seed: int) -> CubicForm:
    """Seeded random equality witness with nonzero mean curvature.  The
    theorem must be the integer 1 or 2 (InvariantViolation otherwise) and
    the seed an integer >= 0 (FormatError otherwise)."""
    theorem = _as_integer(theorem, "theorem", InvariantViolation)
    if theorem not in (1, 2):
        raise InvariantViolation(f"theorem must be 1 or 2, got {theorem!r}")
    seed = _as_integer(seed, "seed", least=0)
    rng = np.random.default_rng(np.random.SeedSequence((seed, theorem)))
    if theorem == 1:
        signs = rng.choice([-1.0, 1.0], size=P.residual)
        lambdas = signs * rng.uniform(0.5, 2.0, size=P.residual)
        inblock = [
            _random_traceless_block(size, rng) for size in P.blocks
        ]
        return build_t1(EqualityParamsT1(P, lambdas, inblock))
    minimal = min(P.blocks)
    inblock = []
    for size in P.blocks:
        arr = _random_traceless_block(size, rng)
        if size == minimal:
            # plant a definite trace on each index of the block
            signs = rng.choice([-1.0, 1.0], size=size)
            t = signs * rng.uniform(0.5, 2.0, size=size)
            arr = arr + _with_partial_traces(t)
        inblock.append(arr)
    return build_t2(EqualityParamsT2(P, inblock))
