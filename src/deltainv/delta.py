"""Delta-invariants: restricted exact oracle and continuous minimization.

delta(n_1, ..., n_k) at a point is tau minus the infimum of
tau(L_1) + ... + tau(L_k) over k-tuples of mutually orthogonal subspaces
with the prescribed dimensions.  Two estimators are provided:

* ``delta_coordinate_oracle`` minimizes exactly over coordinate-spanned
  subspaces.  Restricting the minimization domain can only raise the
  minimum, so the resulting delta is a certified lower bound for the true
  invariant.  It is a subset dynamic program over bit masks of the
  indices (Held-Karp / Bellman), with pair tables cached per (n, blocks);
  its cost is the sum over blocks of reachable masks times candidate
  index sets, not the number of assignments.  Assignments whose sums tie
  within 1e-12 relative go to the lexicographically smallest canonical
  one.
* ``delta_invariant`` runs a multi-start descent over the orthogonal
  group: frames move along Cayley retractions of skew-symmetric
  directions, with the exact polynomial gradient of the Gauss sums.
  Starts are the identity, the oracle solution and seeded Haar-random
  frames, so the reported value never falls below the oracle's.

Both read the single Gauss-sum kernel, the sectional-curvature matrix K of
``tensors``.  The descent weighs K with the 0/1 block mask M (M_ij = 1 when
i and j share a leading block): its objective is 1/2 <M, K> of the rotated
tensor and its gradient (``_grad_skew``) needs no loop over blocks.
``universal_check`` reads tau minus the block taus as 1/2 <J - M, K>.

All randomness flows from a single 64-bit seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bounds import optimal_coefficients
from .errors import DimensionMismatch, InadmissiblePartition
from .tensors import (
    CubicForm,
    Frame,
    PartitionSpec,
    _rotate_dense,
    _sectional_matrix,
    _tau_dense,
    ambient_value,
    mean_curvature_sq,
    scalar_curvature,
)

DEFAULT_SEED = 0

# relative tolerance under which two oracle assignments count as tied
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs for the multi-start frame search."""

    restarts: int = 16
    max_iters: int = 500
    tol: float = 1e-9
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class DeltaResult:
    """A delta estimate together with the witnessing frame and blocks.

    ``value`` equals ``tau_total - sum(tau_blocks)``; ``assignment`` lists
    the 1-based row indices of ``frame`` spanning each subspace;
    ``certified_lower`` is the exact coordinate-restricted value, a lower
    bound for the true invariant.
    """

    value: float
    frame: Frame
    assignment: tuple[tuple[int, ...], ...]
    tau_total: float
    tau_blocks: tuple[float, ...]
    certified_lower: float
    converged: bool = True

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "certified_lower": self.certified_lower,
            "tau_total": self.tau_total,
            "tau_blocks": list(self.tau_blocks),
            "assignment": [list(b) for b in self.assignment],
            "frame": self.frame.matrix.tolist(),
            "converged": self.converged,
        }


def _check_partition(h: CubicForm, P: PartitionSpec):
    if P.n != h.n:
        raise InadmissiblePartition(
            f"partition is for n={P.n} but the tensor has n={h.n}"
        )


@lru_cache(maxsize=32)
def _dp_tables(n: int, blocks: tuple[int, ...]):
    """Index tables of the oracle's subset DP over bit masks of 0..n-1.

    Returns ``(masks, bits, stages)``: the masks of every size in
    ``blocks`` with their (len(masks), n) 0/1 indicator rows, and per
    block i the reachable masks ``used`` of indices taken by the blocks
    before it (popcount n_1 + ... + n_i, ascending), the masks ``cand`` of
    the free index sets of size n_{i+1} for each (rows in
    itertools.combinations order) and their unions ``nxt = used | cand``.
    """
    all_bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    popcount = all_bits.sum(axis=1)
    masks = np.flatnonzero(sum(popcount == b for b in set(blocks)))
    bits = all_bits[masks].astype(float)
    stages = []
    taken = 0
    for b in blocks:
        used = np.flatnonzero(popcount == taken)
        free = np.nonzero(all_bits[used] == 0)[1].reshape(len(used), n - taken)
        combos = np.array(list(itertools.combinations(range(n - taken), b)))
        cand = (1 << free[:, combos]).sum(axis=2)
        stages.append((used, cand, used[:, None] | cand))
        taken += b
    for arr in (masks, bits, *itertools.chain.from_iterable(stages)):
        arr.flags.writeable = False
    return masks, bits, tuple(stages)


def delta_coordinate_oracle(h: CubicForm, c, P: PartitionSpec) -> DeltaResult:
    """Exact minimum of sum tau(L_i) over coordinate-spanned subspaces.

    A subset DP over bit masks of the indices.  tau of every index set of
    a block's size comes from one K matrix (``_sectional_matrix``); then
    g_i[used] = min_S tau[S] + g_{i+1}[used | S], with g_k = 0, runs
    backward over the blocks.  S ranges over the free index sets of size
    n_{i+1}, and only the masks ``used`` reachable after i blocks take
    part.  The cost is the sum over blocks of reachable masks times
    candidates, C(n, n_1 + ... + n_i) * C(n - n_1 - ... - n_i, n_{i+1}):
    at most a few 10^4 table entries for n <= 12.

    A forward pass rebuilds the assignment: block by block it takes the
    first candidate, in itertools.combinations order, within
    _TIE_RTOL * max(1, |g_i|) of the stage minimum; equal-size blocks are
    then ordered by leading index.  So among assignments tied within
    1e-12 relative, the lexicographically smallest canonical one wins.
    The reported taus and value are recomputed with ``_tau_dense`` on the
    chosen blocks, summed in block order.
    """
    _check_partition(h, P)
    cval = ambient_value(c)
    T = h.dense_view
    masks, bits, stages = _dp_tables(P.n, P.blocks)
    tau = np.zeros(1 << P.n)
    tau[masks] = 0.5 * ((bits @ _sectional_matrix(T, cval)) * bits).sum(axis=1)

    # g[i][used]: least tau sum of blocks i.. once the indices in used are
    # taken; entries at masks unreachable before block i are never read,
    # and stage 0's single row is left to the forward pass
    g = [None] * P.k + [np.zeros(1 << P.n)]
    for i in reversed(range(1, P.k)):
        used, cand, nxt = stages[i]
        g[i] = np.zeros(1 << P.n)
        g[i][used] = (tau[cand] + g[i + 1][nxt]).min(axis=1)

    chosen = []
    taken = 0
    for i, (used, cand, nxt) in enumerate(stages):
        row = int(np.searchsorted(used, taken))
        vals = tau[cand[row]] + g[i + 1][nxt[row]]
        best = float(vals.min())
        tied = vals <= best + _TIE_RTOL * max(1.0, abs(best))
        pick = int(cand[row, np.argmax(tied)])
        chosen.append(tuple(v + 1 for v in range(P.n) if pick >> v & 1))
        taken |= pick
    # equal-size blocks already come out by leading index unless rounding
    # splits a tie across the tolerance; sorting keeps the order canonical
    assignment = tuple(sorted(chosen, key=lambda block: (len(block), block)))

    tau_total = scalar_curvature(h, cval)
    taus = tuple(
        _tau_dense(T, [v - 1 for v in block], cval) for block in assignment
    )
    value = tau_total - sum(taus)
    return DeltaResult(
        value=value,
        frame=Frame.identity(P.n),
        assignment=assignment,
        tau_total=tau_total,
        tau_blocks=taus,
        certified_lower=value,
        converged=True,
    )


# ---------------------------------------------------------------------------
# Continuous optimizer over the orthogonal group
# ---------------------------------------------------------------------------


def _block_mask(P: PartitionSpec) -> np.ndarray:
    """0/1 (n, n) mask M with M_ij = 1 when i and j share a leading block."""
    own = P.owner
    return ((own[:, None] == own) & (own < P.k)).astype(float)


def _block_tau_h(H, M) -> float:
    """h-dependent part of sum_i tau(block_i): 1/2 <M, K> of H at c = 0."""
    return 0.5 * float((M * _sectional_matrix(H, 0.0)).sum())


def _grad_skew(H, M):
    """Skew gradient A with d/dt f(cay(tS) R) at t=0 equal to <A, S>/2.

    W = df/dH of 1/2 <M, D D^T - sum_C H_{..C}^2> is -M_ab H_abc, plus
    (M D)[a, c] where a = b; the three terms contract W with the
    derivative of the rotated tensor in each of its slots.
    """
    W = -M[:, :, None] * H
    diag = np.arange(H.shape[0])
    W[diag, diag, :] += M @ np.einsum("iic->ic", H)
    G = (
        np.einsum("abc,xbc->ax", W, H)
        + np.einsum("abc,axc->bx", W, H)
        + np.einsum("abc,abx->cx", W, H)
    )
    return G - G.T


def _cayley_step(R, S, t):
    n = R.shape[0]
    eye = np.eye(n)
    return np.linalg.solve(eye - (t / 2.0) * S, (eye + (t / 2.0) * S) @ R)


def _descend(T, R0, M, max_iters, tol):
    """Gradient descent with Barzilai-Borwein steps and Armijo backtracking.

    Moves along R(t) = cay(-t A) R for the skew gradient A; returns
    (f_min, frame, converged) where converged means the gradient criterion
    was met or the iterate is numerically stationary.
    """
    R = np.array(R0, dtype=float)
    H = _rotate_dense(T, R)
    f = _block_tau_h(H, M)
    prev_A = None
    prev_t = None
    converged = False
    stagnant = 0
    for _ in range(max_iters):
        A = _grad_skew(H, M)
        gnorm = float(np.linalg.norm(A))
        if gnorm < tol:
            converged = True
            break
        if prev_A is None:
            t0 = 1.0 / max(gnorm, 1.0)
        else:
            denom = float(np.vdot(prev_A, prev_A - A))
            if denom > 1e-30:
                t0 = prev_t * float(np.vdot(prev_A, prev_A)) / denom
            else:
                t0 = 2.0 * prev_t
        t = float(min(max(t0, 1e-12), 1e4))
        slope = gnorm * gnorm / 2.0
        accepted = False
        while t > 1e-15:
            Rt = _cayley_step(R, -A, t)
            Ht = _rotate_dense(T, Rt)
            ft = _block_tau_h(Ht, M)
            if ft <= f - 1e-4 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            converged = gnorm < max(tol, 1e-7)
            break
        if f - ft <= 1e-15 * max(1.0, abs(f)):
            stagnant += 1
            if stagnant >= 10:
                R, H, f = Rt, Ht, ft
                converged = gnorm < max(tol, 1e-7)
                break
        else:
            stagnant = 0
        prev_A, prev_t = A, t
        R, H, f = Rt, Ht, ft
    return f, R, converged


def _oracle_start_frame(P: PartitionSpec, assignment) -> np.ndarray:
    """Permutation moving the oracle's index sets onto the leading blocks."""
    order = [v - 1 for block in assignment for v in block]
    order += [v for v in range(P.n) if v not in order]
    return np.eye(P.n)[order]


def delta_invariant(
    h: CubicForm, c, P: PartitionSpec, opts: OptimizerOptions | None = None
) -> DeltaResult:
    """Delta via multi-start descent over all orthonormal frames.

    The reported value is tau minus the best sum of block taus found; it is
    always at least the coordinate oracle's value because that solution
    seeds one of the starts, and it is a lower bound for the true invariant
    because every frame is feasible.
    """
    opts = opts or OptimizerOptions()
    _check_partition(h, P)
    cval = ambient_value(c)
    oracle = delta_coordinate_oracle(h, cval, P)

    T = h.dense_view
    M = _block_mask(P)

    # identity and the oracle permutation always run, so the reported value
    # can never fall below the certified lower bound
    starts = [np.eye(P.n), _oracle_start_frame(P, oracle.assignment)]
    rng = np.random.default_rng(np.random.SeedSequence(opts.seed))
    for _ in range(max(0, opts.restarts - 2)):
        starts.append(Frame.random(P.n, rng).matrix)

    best = None
    for index, R0 in enumerate(starts):
        f, R, converged = _descend(T, R0, M, opts.max_iters, opts.tol)
        # ties at float-noise level keep the earliest restart (deterministic)
        if best is None or f < best[0] - 1e-10 * max(1.0, abs(best[0])):
            best = (f, R, converged, index)

    frame = Frame(best[1])
    rotated = _rotate_dense(T, frame.matrix)
    assignment = tuple(P.index_blocks[: P.k])
    tau_blocks = tuple(
        _tau_dense(rotated, [v - 1 for v in block], cval) for block in assignment
    )
    tau_total = oracle.tau_total
    value = tau_total - sum(tau_blocks)
    return DeltaResult(
        value=value,
        frame=frame,
        assignment=assignment,
        tau_total=tau_total,
        tau_blocks=tau_blocks,
        certified_lower=oracle.value,
        converged=best[2],
    )


@lru_cache(maxsize=None)
def _gap_terms(P: PartitionSpec):
    """Float a and b of the optimal bound for P, and the off-block mask J - M."""
    coeffs = optimal_coefficients(P)
    off_block = 1.0 - _block_mask(P)
    off_block.flags.writeable = False
    return float(coeffs.a), float(coeffs.b), off_block


def universal_check(h: CubicForm, c, P: PartitionSpec, R: Frame) -> float:
    """Gap of the optimal bound at one frame.

    Returns rhs - (tau - sum_i tau(rows Delta_i of R)); the bound asserts
    this is nonnegative for every frame, which rearranges the definition of
    delta as a universal statement over subspace tuples.  tau minus the
    block taus is 1/2 <J - M, K> for the K of the rotated tensor.
    """
    _check_partition(h, P)
    if R.n != h.n:
        raise DimensionMismatch(f"frame n={R.n} does not match tensor n={h.n}")
    cval = ambient_value(c)
    a, b, off_block = _gap_terms(P)
    K = _sectional_matrix(_rotate_dense(h.dense_view, R.matrix), cval)
    rhs = a * mean_curvature_sq(h) + b * cval
    return float(rhs - 0.5 * (off_block * K).sum())
