"""Delta-invariants: restricted exact oracle and continuous minimization.

delta(n_1, ..., n_k) at a point is tau minus the infimum of
tau(L_1) + ... + tau(L_k) over k-tuples of mutually orthogonal subspaces
with the prescribed dimensions.  Two estimators are provided, and one
closed form:

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
  frames, so the reported value never falls below the oracle's; the
  first stack's random frames are drawn once per (n, count, seed) and
  cached (``_haar_starts``).  The
  starts descend together as one (r, n, n) stack of frames, at most
  ``_STACK`` at a time (after Wen & Yin, "A feasible method for
  optimization with orthogonality constraints", Math. Program. 2013):
  batched Cayley solves, and per-restart backtracking from a trial step
  that alternates the two Barzilai-Borwein quotients (Barzilai & Borwein,
  IMA J. Numer. Anal. 1988), <s,s>/<s,y> after an even count of accepted
  steps and <s,y>/<y,y> after an odd one, clamped to [1e-12, t_max] so that
  every Cayley solve is well conditioned.  The arrays hold only the
  running restarts: each round makes one trial step and takes one
  gradient for all of them, and the stack is compacted only when a
  restart stops.  Each restart takes the steps a descent from its start
  alone would take, up to float rounding; ``_stacked_descent`` states
  every rule that stops a restart and when it counts as converged.
  The optimal bound under test, delta_h <= a |H|^2 once its c terms
  cancel, would make floor = 1/2 sum K - a |H|^2 a lower bound on the
  descent's objective.  A restart that comes within 2.5e-11 relative of
  it behind an earlier restart that reached it stops, because it can no
  longer win unless the bound fails; the earliest such restart runs on,
  so the result does not change.  Ky Fan's principle gives a proved
  lower bound, the sum of the N smallest eigenvalues of the curvature
  operator on 2-vectors (``_ky_fan_floor``), which assumes nothing of
  the bound under test.  Once a restart reaches it, every later restart
  of its stack stops and no later stack is drawn, since none can win.
* For one block of size n - 1, ``delta_invariant`` needs no descent:
  tau - tau(u^perp) = Ric(u, u) for a unit u, so delta(n-1) is the top
  eigenvalue of the Ricci tensor, plus (n - 1) c, and Ric's eigenbasis
  with the top eigenvector last is a maximizing frame.  The result is
  exact, always converged, and the same for every ``OptimizerOptions``.

All read the single Gauss-sum kernel, the c-free matrix K of ``tensors``,
or its row sums, the c-free Ricci tensor (``tensors._ricci``); the proved
bound reads the curvature operator on 2-vectors, which holds K on its
diagonal (``tensors._curvature_operator``).
Every tau carries c C(dim L, 2), so delta = delta_h + b c exactly, with
b = C(n, 2) - sum C(n_i, 2): c is added only to the reported taus.  The
descent weighs K with the 0/1 block mask M (M_ij = 1 when i != j share
a leading block): its objective is 1/2 <M, K> of the rotated tensor and
its gradient (``_grad_skew``) needs no loop over blocks.  The objective
is quadratic in the tensor, so it is half the trace of the product the
gradient pass forms, and each round of the descent makes one Gauss pass;
M's diagonal is zero, like K's, so that trace has no exact-zero diagonal
pair left to round or overflow.  K contracts the third slot of the
tensor with itself, and an orthogonal rotation keeps each such
contraction, so neither the descent nor a gap rotates slot 3: their
frames turn slots 1 and 2 (``tensors._rotate_two_slots``), and only the
reported taus and the P = (n-1) scores are read from the full rotation.
delta_h at a frame is 1/2 <J - M, K> (``_delta_h``).

All randomness flows from a single 64-bit seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadforms import optimal_coefficients
from .tensors import (
    CubicForm,
    Frame,
    PartitionSpec,
    _as_integer,
    _check_frame,
    _check_partition,
    _curvature_operator,
    _haar_rows,
    _ricci,
    _rotate_dense,
    _rotate_two_slots,
    _sectional_matrix,
    _tau_dense,
    ambient_value,
    finite_or_none,
    mean_curvature_sq,
    scalar_curvature,
)

DEFAULT_SEED = 0

# relative tolerance under which two oracle assignments count as tied
_TIE_RTOL = 1e-12

# most starts descended in one stack; memory does not grow with --restarts
_STACK = 64

# relative margin by which a later restart must beat the best so far to win
# (``_earliest_best``), and relative half-width of the band around the
# assumed floor in which a restart behind one that reached it stops, and of
# the reach above the proved bound past which every later restart stops
# (``_stacked_descent``); the floor rule keeps the winner because the band's
# full width, 5e-11, is less than the margin
_BEST_RTOL = 1e-10
_FLOOR_RTOL = _BEST_RTOL / 4

# |A| below which a restart is stationary (``_stacked_descent``)
_STATIONARY = 1e-7


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs for the multi-start frame search; P = (n-1), solved in closed
    form, reads none of them.

    ``restarts`` starts in all (at least the identity and the oracle
    permutation, then seeded Haar-random frames), each descending for at
    most ``max_iters`` accepted steps; ``_stacked_descent`` states the
    rules that stop a restart and when it has converged.  ``restarts`` and
    ``max_iters`` (>= 1) and ``seed`` (>= 0, seeding the random starts) are
    integers, not booleans.  A bad value raises FormatError.
    """

    restarts: int = 16
    max_iters: int = 500
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for name, least in (("restarts", 1), ("max_iters", 1), ("seed", 0)):
            value = _as_integer(getattr(self, name), name, least=least)
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class DeltaResult:
    """A delta estimate together with the witnessing frame and blocks.

    ``value`` equals ``tau_total - sum(tau_blocks)``; ``assignment`` lists
    the 1-based row indices of ``frame`` spanning each subspace;
    ``certified_lower`` is the exact coordinate-restricted value, a lower
    bound for the true invariant.

    Every tau carries c C(dim L, 2), so for |c| >= 1e3 ``value`` is
    delta_h + b c to within one ulp of ``tau_total`` (9.8e-4 at c = 1e12 on
    the 5: 2+3 witness); summing delta_h + b c would gain only that ulp.
    The c-free gaps of ``universal_check`` and ``evaluate`` are exact.
    """

    value: float
    frame: Frame
    assignment: tuple[tuple[int, ...], ...]
    tau_total: float
    tau_blocks: tuple[float, ...]
    certified_lower: float
    converged: bool = True

    def to_json_dict(self) -> dict:
        """Strict JSON: a number that is not finite is written as null."""
        return {
            "value": finite_or_none(self.value),
            "certified_lower": finite_or_none(self.certified_lower),
            "tau_total": finite_or_none(self.tau_total),
            "tau_blocks": [finite_or_none(tau) for tau in self.tau_blocks],
            "assignment": [list(b) for b in self.assignment],
            "frame": self.frame.matrix.tolist(),
            "converged": self.converged,
        }


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

    A subset DP over bit masks of the indices.  tau, less its c part (the
    same for every assignment), of every index set of a block's size comes
    from one K matrix (``_sectional_matrix``); then
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
    tau[masks] = 0.5 * ((bits @ _sectional_matrix(T)) * bits).sum(axis=1)

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


@lru_cache(maxsize=None)
def _block_mask(P: PartitionSpec) -> np.ndarray:
    """Read-only 0/1 (n, n) mask M with M_ij = 1 when i != j share a
    leading block, built once per partition.

    The diagonal is zero: K's is zero, so <M, K> does not read it, and
    ``_grad_skew``'s trace form of f would otherwise carry the pairs
    |D_a|^2 - sum_C H_aaC^2, zero in exact arithmetic, which round, and
    overflow to inf - inf on huge tensors.
    """
    own = P.owner
    same = (own[:, None] == own) & (own < P.k)
    np.fill_diagonal(same, False)
    mask = same.astype(float)
    mask.flags.writeable = False
    return mask


def _block_tau_h(H, M):
    """h part of sum_i tau(block_i): 1/2 <M, K> of H, from K itself.

    H is one (n, n, n) tensor or a stack (..., n, n, n); one value each.
    The descent reads the same f from ``_grad_skew``; this K form scores
    the P = (n-1) frames and is the independent value the tests check it
    against.
    """
    return 0.5 * (M * _sectional_matrix(H)).sum(axis=(-2, -1))


def _ky_fan_floor(T, M):
    """A proved lower bound on the descent's f = 1/2 <M, K>, or -inf.

    At any frame f sums the curvature operator Q (``_curvature_operator``)
    over the N = 1/2 sum M orthonormal 2-vectors e_i ^ e_j of the blocks,
    so by Ky Fan's principle (PNAS 35, 1949) it is at least the sum of Q's
    N smallest eigenvalues.  This needs nothing of the inequality under
    test.  The float sum is off by at most
    gamma = 2 N eps (C(n, 2) |Q|_F + (n + 1) |h|^2): Q's entries, sums of
    2n products, are off by a matrix of Frobenius norm at most
    (n + 1) eps |h|^2, which moves a sum of N eigenvalues by N times that;
    ``eigvalsh`` moves each eigenvalue by about C(n, 2) eps |Q|_2, and the
    sum of N adds N^1.5 eps |Q|_F.  The bound is -inf where Q is not
    finite or gamma exceeds 1/2 _FLOOR_RTOL max(1, |bound|).
    """
    Q = _curvature_operator(T)
    if not np.isfinite(Q).all():
        return -np.inf
    n, N = T.shape[-1], int(M.sum()) // 2
    bound = float(np.linalg.eigvalsh(Q)[:N].sum())
    size = len(Q) * float(np.linalg.norm(Q)) + (n + 1) * float(np.vdot(T, T))
    gamma = 2.0 * N * np.finfo(float).eps * size
    if not gamma <= 0.5 * _FLOOR_RTOL * max(1.0, abs(bound)):
        return -np.inf
    return bound


def _grad_skew(H, M):
    """(f, A): f = 1/2 <M, K> of H, and the skew gradient A with d/dt
    f(cay(tS) R) at t=0 equal to <A, S>/2.

    W = df/dH of 1/2 <M, D D^T - sum_C H_{..C}^2> is -M_ab H_abc, plus
    (M D)[a, c] where a = b; G contracts W with the derivative of the
    rotated tensor in its first two slots.  W and H are symmetric in
    (a, b), so both slots give the same term and G is one matmul.  Slot 3
    is never rotated: f contracts it with itself, so f is unchanged when
    it turns and its term in G is symmetric, with no skew part.  f is
    quadratic in H, so <W, H> = tr G = 2f: with M's zero diagonal,
    1/2 tr G sums K's off-diagonal terms M_ab (D_a . D_b - |H_ab.|^2) one
    by one, and the descent needs no second pass for f.  H is one tensor
    rotated in slots 1 and 2 (``_rotate_two_slots``) or in all three,
    (n, n, n), or a stack (..., n, n, n) of them.
    """
    n = H.shape[-1]
    # H[..., a, a, c] is row a (n + 1) of the (n^2, n) reshape; W is built
    # in that contiguous shape, so its diagonal is a writable strided view
    flat = H.shape[:-3] + (n * n, n)
    diag = (..., slice(None, None, n + 1), slice(None))
    Hf = H.reshape(flat)
    W = -M.reshape(n * n, 1) * Hf
    W[diag] += M @ Hf[diag]
    rows = H.shape[:-3] + (n, n * n)
    G = W.reshape(rows) @ H.reshape(rows).swapaxes(-1, -2)
    return 0.5 * np.einsum("...ii->...", G), 2.0 * (G - G.swapaxes(-1, -2))


@lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """Read-only (n, n) identity, shared by every Cayley step of size n."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _cayley_step(R, S, t):
    """cay(tS) R = (I - tS/2)^{-1} (I + tS/2) R for one frame, or for a
    stack (..., n, n) of frames and skew S with one step t each.

    I + X = 2I - (I - X), so the same map is 2 (I - tS/2)^{-1} R - R: one
    solve and no matmul.
    """
    half = 0.5 * np.asarray(t, dtype=float)[..., None, None]
    moved = np.linalg.solve(_identity(R.shape[-1]) - half * S, R)
    moved *= 2.0
    moved -= R
    return moved


def _stacked_descent(T, starts, M, max_iters, floor, certified):
    """Descend every frame of an (r, n, n) stack of starts at once.

    Each restart is a gradient descent along R(t) = cay(-t A) R for the
    skew gradient A, with Armijo backtracking by halving.  Its first trial
    step is 1/max(|A|, 1); after an accepted step, with s = -t A and
    y = G - A for the next gradient G, the next trial step alternates the
    two Barzilai-Borwein quotients as in Wen & Yin's curvilinear search:
    <s, s>/<s, y> after an even count of accepted steps and <s, y>/<y, y>
    after an odd one, or 2t where the quotient is not positive.  Both
    read |A|^2, <A, G> and |G|^2, formed once per round.  Steps are
    clamped to [1e-12, t_max] with t_max = min(1e4, 1e9 / (4 n |h|^2)), and
    a rejected trial halves its step.  |A| <= 4 |G| <= 4 n |H|^2 = 4 n |h|^2
    on every frame, so no trial turns a frame by more than t |A| / 2 <= 5e8:
    I + tA/2, with singular values >= 1 and condition <= ~5e8, is solvable.

    A restart stops after ``max_iters`` accepted steps, not converged; when
    its step is NaN or halved to 1e-15 without an Armijo decrease; or, once
    |A| < _STATIONARY = 1e-7, before a trial whose Armijo test asks for a
    decrease 1e-4 t |A|^2 / 2 of at most 1e-15 max(1, |f|), which f cannot
    resolve (the resolution stop; t <= 1e4 makes it end any restart with
    |A| < 4.4e-8 at once).  Stopped by either of the last two rules, it is
    converged when |A| < 1e-7.  Non-finite input ends the loop, through NaN
    steps or steps halved away.  A start whose |A|^2 is NaN steps NaN; one
    whose |A|^2 overflows has t_max below 1e-15, and where |h|^2 overflows
    t_max is 0; each stops at its start before any trial.

    ``floor`` is the lower bound on f that the inequality under test would
    give (``delta_invariant`` passes the optimal bound's); it is assumed,
    not proved, and -inf turns this rule off.  A restart whose f lies
    within eps = _FLOOR_RTOL * max(1, |floor|) of the floor, 2.5e-11
    relative, stops, converged, once a lower-indexed restart of the stack
    has reached floor + eps.  f never rises, so that restart ends at most
    eps above the floor.  This one stops no lower than floor - eps, so it
    cannot beat that restart by _BEST_RTOL > 2 eps; run on, it could only
    by going below floor + eps - _BEST_RTOL, 7.5e-11 relative below the
    floor, further than the bound allows.  (A still earlier restart that
    ends above the band, but within _BEST_RTOL of the lead, keeps the win
    from the lead; a stopped restart that would have ended more than
    _BEST_RTOL below it no longer takes the win, and the value then moves
    by less than _BEST_RTOL relative.  No tested set shows that case.)  The
    earliest restart in the band runs on under the rules above, and one
    below the band, a violation of the bound, is never stopped by this
    rule.

    ``certified`` is a proved lower bound on f, good to within
    1/2 _FLOOR_RTOL max(1, |certified|) in floats (``_ky_fan_floor``); -inf
    turns this rule off.  Once a restart's f reaches
    certified + _FLOOR_RTOL * max(1, |certified|), every higher-indexed
    restart stops, converged, wherever its f lies: no frame's f is below
    the bound, so none can beat that restart by _BEST_RTOL (the caveat in
    parentheses above holds here too).  That restart and every earlier one
    run on under the other rules.  This rule reads nothing of the
    inequality under test, so it hides no violation.

    The arrays hold only the running restarts, the working stack.  One
    round makes one Armijo trial for each of them and takes the gradient
    at every trial frame, so an accepted step has its next gradient
    without a second pass; the trial's f comes from the same pass
    (``_grad_skew``), so K is never formed.  Frames rotate T in slots 1
    and 2 only (``_rotate_two_slots``), since f and its gradient cannot
    see slot 3 turn.  The stack is compacted only in a round where some
    restart stops.  Each restart keeps its own count of accepted steps,
    so it takes the steps it would take alone.  Returns (f, frames,
    converged), one entry per start.
    """
    R = np.array(starts, dtype=float)
    r = len(R)
    # min(1e4, 1e9 / (4 n |h|^2)), with no division by zero
    t_max = 1e9 / max(4.0 * R.shape[-1] * float(np.vdot(T, T)), 1e5)
    f, A = _grad_skew(_rotate_two_slots(T, R), M)
    aa = np.einsum("kij,kij->k", A, A)
    t = np.minimum(np.maximum(1.0 / np.maximum(np.sqrt(aa), 1.0), 1e-12), t_max)
    iters = np.zeros(r, dtype=int)
    row = np.arange(r)  # the start each working restart came from
    f_out, R_out = np.empty(r), np.empty_like(R)
    converged = np.zeros(r, dtype=bool)
    eps = _FLOOR_RTOL * max(1.0, abs(floor))
    band_lo, band_hi = floor - eps, floor + eps
    lead = r  # the first start whose f has reached band_hi
    proved_hi = certified + _FLOOR_RTOL * max(1.0, abs(certified))
    proved = r  # the first start whose f has reached proved_hi
    while True:
        # the decrease each Armijo test asks for, 1e-4 t |A|^2 / 2
        armijo = 5e-5 * t * aa
        stationary = np.sqrt(aa) < _STATIONARY
        maxed = iters >= max_iters
        # a NaN step, a step halved to 1e-15 without a decrease, or a
        # stationary restart's Armijo test asking for less than f resolves
        tiny = armijo <= 1e-15 * np.maximum(1.0, abs(f))
        spent = ~(t > 1e-15) | (tiny & stationary)
        near = f <= band_hi
        # rows ascend, so no working restart can lower a lead at or below
        # the first of them
        if lead > row[0] and near.any():
            lead = min(lead, int(row[near][0]))
        floored = near & (f >= band_lo) & (row > lead)
        if proved > row[0] and (reached := f <= proved_hi).any():
            proved = min(proved, int(row[reached][0]))
        behind = row > proved
        stop = maxed | spent | floored | behind
        if stop.any():
            gone = row[stop]
            f_out[gone], R_out[gone] = f[stop], R[stop]
            # out of steps: not converged; spent: by |A|; floored, or behind
            # a restart at the proved bound: converged
            verdict = np.where(spent, stationary, floored) & ~maxed | behind
            converged[gone] = verdict[stop]
            if len(gone) == len(row):
                return f_out, R_out, converged
            keep = np.flatnonzero(~stop)
            R, f, A, aa, t, iters, row, armijo = (
                x[keep] for x in (R, f, A, aa, t, iters, row, armijo)
            )

        Rt = _cayley_step(R, A, -t)
        ft, G = _grad_skew(_rotate_two_slots(T, Rt), M)
        ag = np.einsum("kij,kij->k", A, G)
        gg = np.einsum("kij,kij->k", G, G)
        ok = ft <= f - armijo
        # an accepted step's next trial is BB1 = <s,s>/<s,y> = t |A|^2 / sy
        # after an even count of accepted steps, BB2 = <s,y>/<y,y> = t sy / yy
        # after an odd one, with sy = <s,y>/t and yy = <y,y>; 2x the accepted
        # step where the quotient is not positive.  A rejected trial halves
        # its step
        sy = aa - ag
        odd = iters & 1  # then an accepted step makes the count even: BB1
        num = np.where(odd, aa, sy)
        denom = np.where(odd, sy, sy - ag + gg)
        bb = 2.0 * t
        np.divide(t * num, denom, out=bb, where=np.minimum(sy, denom) > 1e-30)
        t = np.where(ok, np.minimum(np.maximum(bb, 1e-12), t_max), 0.5 * t)
        iters += ok
        frames = ok[:, None, None]
        np.copyto(R, Rt, where=frames)
        np.copyto(A, G, where=frames)
        f, aa = np.where(ok, ft, f), np.where(ok, gg, aa)


def _earliest_best(values) -> int:
    """Index of the least value: a later value wins only when it is below
    the current best by more than _BEST_RTOL relative, so float-noise ties
    keep the earliest (deterministic)."""
    best = 0
    for i, v in enumerate(values):
        if v < values[best] - _BEST_RTOL * max(1.0, abs(values[best])):
            best = i
    return best


def _descend(T, starts, M, max_iters, floor, certified):
    """Descend an (r, n, n) stack of starts; the earliest best restart.

    Returns one (f_min, frame, converged) triple, converged and the use of
    the assumed ``floor`` and the proved ``certified`` bound as defined by
    ``_stacked_descent``.
    """
    f, R, converged = _stacked_descent(T, starts, M, max_iters, floor, certified)
    best = _earliest_best(f.tolist())
    return float(f[best]), R[best], bool(converged[best])


def _oracle_start_frame(P: PartitionSpec, assignment) -> np.ndarray:
    """Permutation moving the oracle's index sets onto the leading blocks."""
    order = [v - 1 for block in assignment for v in block]
    order += [v for v in range(P.n) if v not in order]
    return np.eye(P.n)[order]


@lru_cache(maxsize=32)
def _haar_starts(n: int, count: int, seed: int):
    """The first ``count`` seeded Haar-random starts of size n, read-only.

    One standard_normal((count, n, n)) and one stacked QR, bit for bit the
    frames ``Frame.random`` gives called once per start; cached, so a call
    with the default options draws nothing.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    gauss = rng.standard_normal((count, n, n))
    frames = _haar_rows(gauss) if count else gauss
    frames.flags.writeable = False
    return frames


def _start_stacks(P: PartitionSpec, assignment, restarts: int, seed: int):
    """The descent's starts, in stacks of at most _STACK frames.

    The identity and the oracle permutation come first and always run; then
    seeded Haar-random frames up to ``restarts`` starts in all.  The first
    stack's random frames come from ``_haar_starts``; past it, the seed's
    generator is made afresh and skips the first stack's draws, and each
    later stack draws its own with one standard_normal((m, n, n)) and one
    stacked QR, so no start depends on the stack it falls in, and the cache
    holds at most one stack per (n, count, seed).
    """
    fixed = np.stack([np.eye(P.n), _oracle_start_frame(P, assignment)])
    total = max(restarts, len(fixed))
    first = min(total, _STACK)
    yield np.concatenate([fixed, _haar_starts(P.n, first - len(fixed), seed)])
    if first < total:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        rng.standard_normal((first - len(fixed), P.n, P.n))
        for lo in range(first, total, _STACK):
            gauss = rng.standard_normal((min(_STACK, total - lo), P.n, P.n))
            yield _haar_rows(gauss)


def delta_invariant(
    h: CubicForm, c, P: PartitionSpec, opts: OptimizerOptions | None = None
) -> DeltaResult:
    """Delta via multi-start descent over all orthonormal frames.

    The starts descend together, a stack of at most _STACK at a time, so
    memory does not grow with the restart count; the earliest best restart
    wins.  The reported value is tau minus the best sum of block taus found;
    it is at least the coordinate oracle's value, because that solution
    seeds one of the starts, and a lower bound for the true invariant,
    because every frame is feasible.  Where rounding at a huge scale puts
    the winner more than _BEST_RTOL relative below the oracle, the oracle
    permutation is reported instead, unconverged.

    P = (n-1) takes no descent while Ric_h is finite: the identity, the
    oracle permutation and Ric_h's eigenbasis (top eigenvector last) are
    scored, and the earliest best wins, so a frame the oracle or the
    identity already makes optimal is kept.  That value is the invariant
    itself, reported converged whatever ``opts`` say.
    """
    opts = opts or OptimizerOptions()
    _check_partition(h, P)
    cval = ambient_value(c)
    oracle = delta_coordinate_oracle(h, cval, P)

    T = h.dense_view
    M = _block_mask(P)
    if P.blocks == (P.n - 1,) and np.isfinite(ric := _ricci(T)).all():
        # delta_h(n-1) = lambda_max(Ric_h): the frame V^T of eigh's ascending
        # eigenvectors puts the top one last, outside the block
        starts = np.stack([
            np.eye(P.n),
            _oracle_start_frame(P, oracle.assignment),
            np.linalg.eigh(ric)[1].T,
        ])
        f = _block_tau_h(_rotate_dense(T, starts), M)
        R, converged = starts[_earliest_best(f.tolist())], True
    else:
        # the optimal bound under test, delta_h <= a |H|^2, would bound the
        # descent's f, the h part of the block taus, from below; Ky Fan's
        # bound does so for every tensor
        a, _ = _gap_terms(P)
        floor = 0.5 * float(_sectional_matrix(T).sum()) - a * mean_curvature_sq(h)
        certified = _ky_fan_floor(T, M)
        proved_hi = certified + _FLOOR_RTOL * max(1.0, abs(certified))
        winners = []
        for stack in _start_stacks(P, oracle.assignment, opts.restarts, opts.seed):
            winners.append(_descend(T, stack, M, opts.max_iters, floor, certified))
            # no later stack can beat a winner at the proved bound, so none
            # is drawn
            if winners[-1][0] <= proved_hi:
                break
        _, R, converged = winners[_earliest_best([w[0] for w in winners])]

    assignment = tuple(P.index_blocks[: P.k])
    lowest = oracle.value - _BEST_RTOL * max(1.0, abs(oracle.value))
    # a winner whose value f rounded below the oracle's gives way to the
    # oracle permutation: it rotates exactly, so its taus are the oracle's
    for R in (R, _oracle_start_frame(P, oracle.assignment)):
        frame = Frame(R)
        rotated = _rotate_dense(T, frame.matrix)
        tau_blocks = tuple(
            _tau_dense(rotated, [v - 1 for v in block], cval) for block in assignment
        )
        if not oracle.tau_total - sum(tau_blocks) < lowest:  # NaN stays
            break
        converged = False
    return DeltaResult(
        value=oracle.tau_total - sum(tau_blocks),
        frame=frame,
        assignment=assignment,
        tau_total=oracle.tau_total,
        tau_blocks=tau_blocks,
        certified_lower=oracle.value,
        converged=converged,
    )


@lru_cache(maxsize=None)
def _gap_terms(P: PartitionSpec):
    """Float a of the optimal bound for P, and the off-block mask J - M."""
    off_block = 1.0 - _block_mask(P)
    off_block.flags.writeable = False
    return float(optimal_coefficients(P).a), off_block


def _delta_h(h: CubicForm, off_block, R: Frame) -> float:
    """delta_h at frame R, 1/2 <J - M, K> of the rotated tensor for the
    off-block mask J - M of ``_gap_terms``: tau minus the block taus there,
    less b c.

    K cannot see slot 3 turn, so R rotates slots 1 and 2 alone
    (``_rotate_two_slots``), and <J - M, K> is one dot product.
    """
    K = _sectional_matrix(_rotate_two_slots(h.dense_view, R.matrix))
    return 0.5 * float(np.vdot(off_block, K))


def universal_check(h: CubicForm, P: PartitionSpec, R: Frame) -> float:
    """Gap of the optimal bound at one frame.

    Returns rhs - (tau - sum_i tau(rows Delta_i of R)); the bound asserts
    this is nonnegative for every frame, which rearranges the definition of
    delta as a universal statement over subspace tuples.  Every tau carries
    c C(dim L, 2), so b c cancels for every c and the gap is
    a |H|^2 - ``_delta_h``.
    """
    _check_partition(h, P)
    _check_frame(h, R)
    a, off_block = _gap_terms(P)
    return a * mean_curvature_sq(h) - _delta_h(h, off_block, R)
