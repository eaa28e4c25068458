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
  frames, so the reported value never falls below the oracle's.  The
  starts descend together as one (r, n, n) stack of frames, at most
  ``_STACK`` at a time (after Wen & Yin, "A feasible method for
  optimization with orthogonality constraints", Math. Program. 2013):
  batched Cayley solves, and per-restart backtracking from a trial step
  that alternates the two Barzilai-Borwein quotients (Barzilai & Borwein,
  IMA J. Numer. Anal. 1988), <s,s>/<s,y> after an even count of accepted
  steps and <s,y>/<y,y> after an odd one.  The arrays hold only the
  running restarts: each round makes one trial step and takes one
  gradient for all of them, and the stack is compacted only when a
  restart stops.  Each restart takes the steps a descent from its start
  alone would take, up to float rounding; ``_stacked_descent`` states
  every rule that stops a restart and when it counts as converged.
  The optimal bound, delta_h <= a |H|^2 once its c terms cancel, makes
  floor = 1/2 sum K - a |H|^2 a certified lower bound on the descent's
  objective.  A restart that comes within 1e-12 relative of it
  behind an earlier restart that reached it stops, because it can no
  longer win; the earliest such restart runs on, so the result does not
  change.

Both read the single Gauss-sum kernel, the c-free matrix K of ``tensors``.
Every tau carries c C(dim L, 2), so delta = delta_h + b c exactly, with
b = C(n, 2) - sum C(n_i, 2): c is added only to the reported taus.  The
descent weighs K with the 0/1 block mask M (M_ij = 1 when i and j share
a leading block): its objective is 1/2 <M, K> of the rotated tensor and
its gradient (``_grad_skew``) needs no loop over blocks.  delta_h at a
frame is 1/2 <J - M, K> (``_delta_h``).

All randomness flows from a single 64-bit seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadforms import optimal_coefficients
from .errors import DimensionMismatch
from .tensors import (
    CubicForm,
    Frame,
    PartitionSpec,
    _as_integer,
    _check_partition,
    _haar_rows,
    _rotate_dense,
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
# certified floor in which a restart behind one that reached it stops
# (``_stacked_descent``); the floor rule keeps the winner because the band
# is far narrower than the margin
_BEST_RTOL = 1e-10
_FLOOR_RTOL = 1e-12

# |A| below which a restart is stationary (``_stacked_descent``)
_STATIONARY = 1e-7


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs for the multi-start frame search.

    ``restarts`` starts in all (at least the identity and the oracle
    permutation, then seeded Haar-random frames), each descending for at
    most ``max_iters`` accepted steps; ``_stacked_descent`` states the
    rules that stop a restart and when it has converged.  ``restarts`` and
    ``max_iters`` (>= 1) and ``seed`` (>= 0, seeding the random starts) are
    integers, not booleans.  A bad value raises ValueError.
    """

    restarts: int = 16
    max_iters: int = 500
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for name, least in (("restarts", 1), ("max_iters", 1), ("seed", 0)):
            value = _as_integer(getattr(self, name), name, ValueError, least)
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


def _block_mask(P: PartitionSpec) -> np.ndarray:
    """0/1 (n, n) mask M with M_ij = 1 when i and j share a leading block."""
    own = P.owner
    return ((own[:, None] == own) & (own < P.k)).astype(float)


def _block_tau_h(H, M):
    """h part of sum_i tau(block_i): 1/2 <M, K> of H.

    H is one (n, n, n) tensor or a stack (..., n, n, n); one value each.
    """
    return 0.5 * (M * _sectional_matrix(H)).sum(axis=(-2, -1))


def _grad_skew(H, M):
    """Skew gradient A with d/dt f(cay(tS) R) at t=0 equal to <A, S>/2.

    W = df/dH of 1/2 <M, D D^T - sum_C H_{..C}^2> is -M_ab H_abc, plus
    (M D)[a, c] where a = b; G contracts W with the derivative of the
    rotated tensor in each of its three slots.  W is symmetric in (a, b),
    so the first two slots give the same term and G is two matmuls.  H is
    one (n, n, n) tensor or a stack (..., n, n, n) of them.
    """
    n = H.shape[-1]
    W = -M[:, :, None] * H
    # einsum's diagonal of W is a writable view: W[..., a, a, c]
    np.einsum("...iic->...ic", W)[...] += M @ np.einsum("...iic->...ic", H)
    rows = H.shape[:-3] + (n, n * n)
    cols = H.shape[:-3] + (n * n, n)
    G = 2.0 * (W.reshape(rows) @ H.reshape(rows).swapaxes(-1, -2))
    G += W.reshape(cols).swapaxes(-1, -2) @ H.reshape(cols)
    return G - G.swapaxes(-1, -2)


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


def _stacked_descent(T, starts, M, max_iters, floor):
    """Descend every frame of an (r, n, n) stack of starts at once.

    Each restart is a gradient descent along R(t) = cay(-t A) R for the
    skew gradient A, with Armijo backtracking by halving.  Its first trial
    step is 1/max(|A|, 1); after an accepted step, with s = -t A and
    y = G - A for the next gradient G, the next trial step alternates the
    two Barzilai-Borwein quotients as in Wen & Yin's curvilinear search:
    <s, s>/<s, y> after an even count of accepted steps and <s, y>/<y, y>
    after an odd one, or 2t where the quotient is not positive.  Both
    read |A|^2, <A, G> and |G|^2, formed once per round.  Steps are
    clamped to [1e-12, 1e4], and a rejected trial halves its step.

    A restart stops after ``max_iters`` accepted steps, not converged; when
    its step is NaN or halved to 1e-15 without an Armijo decrease; or, once
    |A| < _STATIONARY = 1e-7, before a trial whose Armijo test asks for a
    decrease 1e-4 t |A|^2 / 2 of at most 1e-15 max(1, |f|), which f cannot
    resolve (the resolution stop; t <= 1e4 makes it end any restart with
    |A| < 4.4e-8 at once).  Stopped by either of the last two rules, it is
    converged when |A| < 1e-7.  Non-finite input ends the loop, through NaN
    steps or steps halved away.

    ``floor`` is a certified lower bound on f (``delta_invariant`` passes
    the one the optimal bound gives); -inf turns this rule off.  A restart
    whose f lies within eps = _FLOOR_RTOL * max(1, |floor|) of the floor
    stops, converged, once a lower-indexed restart of the stack has
    reached floor + eps.  f never rises, so that restart ends at
    most eps above the floor, and this one could win only by ending more
    than _BEST_RTOL below it: far further below the floor than the bound
    allows.  The earliest restart in the band runs on under the rules
    above, and one below the band, a violation of the bound, is never
    stopped by this rule.

    The arrays hold only the running restarts, the working stack.  One
    round makes one Armijo trial for each of them and takes the gradient
    at every trial frame, so an accepted step has its next gradient
    without a second pass.  The stop tests run in full only in a round
    where some restart can stop, and the stack is compacted only in a
    round where one does.  Each restart keeps its own count of accepted
    steps, so it takes the steps it would take alone.  Returns
    (f, frames, converged), one entry per start.
    """
    R = np.array(starts, dtype=float)
    r = len(R)
    H = _rotate_dense(T, R)
    f = _block_tau_h(H, M)
    A = _grad_skew(H, M)
    aa = np.einsum("kij,kij->k", A, A)
    t = np.minimum(np.maximum(1.0 / np.maximum(np.sqrt(aa), 1.0), 1e-12), 1e4)
    iters = np.zeros(r, dtype=int)
    row = np.arange(r)  # the start each working restart came from
    f_out, R_out = np.empty(r), np.empty_like(R)
    converged = np.zeros(r, dtype=bool)
    eps = _FLOOR_RTOL * max(1.0, abs(floor))
    band_lo, band_hi = floor - eps, floor + eps
    lead = r  # the first start whose f has reached band_hi
    while True:
        gnorm = np.sqrt(aa)
        # the decrease each Armijo test asks for, 1e-4 t |A|^2 / 2
        armijo = 5e-5 * t * aa
        # a restart can stop only with its step spent or NaN, its |A| below
        # _STATIONARY, its steps used up, or its f at the floor's band
        # (fmin skips a NaN |A|; a NaN step already counts as spent)
        if (
            not t.min() > 1e-15
            or np.fmin.reduce(gnorm) < _STATIONARY
            or iters.max() >= max_iters
            or ((f <= band_hi) & (row != lead)).any()
        ):
            stationary = gnorm < _STATIONARY
            maxed = iters >= max_iters
            # a NaN step, a step halved to 1e-15 without a decrease, or a
            # stationary restart's Armijo test asking for less than f
            # resolves
            tiny = armijo <= 1e-15 * np.maximum(1.0, abs(f))
            spent = ~(t > 1e-15) | (tiny & stationary)
            reached = row[f <= band_hi]
            if reached.size:
                lead = min(lead, int(reached[0]))
            floored = (f >= band_lo) & (f <= band_hi) & (row > lead)
            stop = maxed | spent | floored
            if stop.any():
                gone = row[stop]
                f_out[gone], R_out[gone] = f[stop], R[stop]
                # out of steps: not converged; spent: by |A|; floored:
                # converged
                verdict = np.where(spent, stationary, floored) & ~maxed
                converged[gone] = verdict[stop]
                keep = ~stop
                if not keep.any():
                    return f_out, R_out, converged
                R, f, A, aa, t, iters, row, armijo = (
                    x[keep] for x in (R, f, A, aa, t, iters, row, armijo)
                )

        Rt = _cayley_step(R, A, -t)
        Ht = _rotate_dense(T, Rt)
        ft = _block_tau_h(Ht, M)
        G = _grad_skew(Ht, M)
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
        t = np.where(ok, np.minimum(np.maximum(bb, 1e-12), 1e4), 0.5 * t)
        iters += ok
        if ok.all():
            R, f, A, aa = Rt, ft, G, gg
        else:
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


def _descend(T, starts, M, max_iters, floor):
    """Descend an (r, n, n) stack of starts; the earliest best restart.

    Returns one (f_min, frame, converged) triple, converged and the use of
    the certified ``floor`` as defined by ``_stacked_descent``.
    """
    f, R, converged = _stacked_descent(T, starts, M, max_iters, floor)
    best = _earliest_best(f.tolist())
    return float(f[best]), R[best], bool(converged[best])


def _oracle_start_frame(P: PartitionSpec, assignment) -> np.ndarray:
    """Permutation moving the oracle's index sets onto the leading blocks."""
    order = [v - 1 for block in assignment for v in block]
    order += [v for v in range(P.n) if v not in order]
    return np.eye(P.n)[order]


def _start_stacks(P: PartitionSpec, assignment, restarts: int, seed: int):
    """The descent's starts, in stacks of at most _STACK frames.

    The identity and the oracle permutation come first and always run; then
    seeded Haar-random frames up to ``restarts`` starts in all.  Each stack
    draws its random frames with one standard_normal((m, n, n)) and one
    stacked QR, bit for bit the frames ``Frame.random`` gives called once
    per start, so no start depends on the stack it falls in.
    """
    fixed = np.stack([np.eye(P.n), _oracle_start_frame(P, assignment)])
    total = max(restarts, len(fixed))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for lo in range(0, total, _STACK):
        hi = min(lo + _STACK, total)
        stack = fixed[lo:hi]
        drawn = hi - max(lo, len(fixed))
        if drawn > 0:
            gauss = rng.standard_normal((drawn, P.n, P.n))
            stack = np.concatenate([stack, _haar_rows(gauss)])
        yield stack


def delta_invariant(
    h: CubicForm, c, P: PartitionSpec, opts: OptimizerOptions | None = None
) -> DeltaResult:
    """Delta via multi-start descent over all orthonormal frames.

    The starts descend together, a stack of at most _STACK at a time, so
    memory does not grow with the restart count; the earliest best restart
    wins.  The reported value is tau minus the best sum of block taus found;
    it is always at least the coordinate oracle's value because that
    solution seeds one of the starts, and it is a lower bound for the true
    invariant because every frame is feasible.
    """
    opts = opts or OptimizerOptions()
    _check_partition(h, P)
    cval = ambient_value(c)
    oracle = delta_coordinate_oracle(h, cval, P)

    T = h.dense_view
    M = _block_mask(P)
    # the optimal bound, delta_h <= a |H|^2, bounds the descent's f, the h
    # part of the block taus, from below
    a, _ = _gap_terms(P)
    floor = 0.5 * float(_sectional_matrix(T).sum()) - a * mean_curvature_sq(h)
    winners = [
        _descend(T, stack, M, opts.max_iters, floor)
        for stack in _start_stacks(P, oracle.assignment, opts.restarts, opts.seed)
    ]
    _, R, converged = winners[_earliest_best([w[0] for w in winners])]

    frame = Frame(R)
    rotated = _rotate_dense(T, frame.matrix)
    assignment = tuple(P.index_blocks[: P.k])
    tau_blocks = tuple(
        _tau_dense(rotated, [v - 1 for v in block], cval) for block in assignment
    )
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


def _delta_h(h: CubicForm, P: PartitionSpec, R: Frame) -> float:
    """delta_h at frame R, 1/2 <J - M, K> of the rotated tensor: tau minus
    the block taus there, less b c."""
    K = _sectional_matrix(_rotate_dense(h.dense_view, R.matrix))
    return 0.5 * float((_gap_terms(P)[1] * K).sum())


def universal_check(h: CubicForm, c, P: PartitionSpec, R: Frame) -> float:
    """Gap of the optimal bound at one frame.

    Returns rhs - (tau - sum_i tau(rows Delta_i of R)); the bound asserts
    this is nonnegative for every frame, which rearranges the definition of
    delta as a universal statement over subspace tuples.  b c cancels, so
    it is a |H|^2 - ``_delta_h``; a bad c still raises.
    """
    _check_partition(h, P)
    if R.n != h.n:
        raise DimensionMismatch(f"frame n={R.n} does not match tensor n={h.n}")
    ambient_value(c)
    return _gap_terms(P)[0] * mean_curvature_sq(h) - _delta_h(h, P, R)
