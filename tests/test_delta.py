"""Coordinate oracle, continuous optimizer, and the universal gap check."""

import itertools
import math
from dataclasses import fields
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from deltainv import (
    CubicForm,
    DimensionMismatch,
    FormatError,
    Frame,
    InadmissiblePartition,
    OptimizerOptions,
    PartitionSpec,
    delta_coordinate_oracle,
    delta_invariant,
    enumerate_partitions,
    evaluate,
    random_cubic_form,
    random_witness,
    rotate,
    shared_b,
    tau_subspace,
    universal_check,
)
from deltainv.bounds import SHARP_TOL, optimal_coefficients, rhs_value
import deltainv.delta as delta_mod
from deltainv.delta import (
    _block_mask,
    _block_tau_h,
    _cayley_step,
    _earliest_best,
    _gap_terms,
    _grad_skew,
    _haar_starts,
    _ky_fan_floor,
    _oracle_start_frame,
    _stacked_descent,
    _start_stacks,
)
from deltainv.tensors import (
    _curvature_operator,
    _ricci,
    _rotate_dense,
    _rotate_two_slots,
    _sectional_matrix,
    _tau_dense,
    mean_curvature_sq,
    scalar_curvature,
)


# ---------------------------------------------------------------------------
# brute-force reference for the coordinate oracle
# ---------------------------------------------------------------------------


def _coordinate_assignments(n: int, sizes: tuple[int, ...]):
    """Disjoint index tuples of the given sizes, equal sizes deduplicated.

    Blocks of equal size are unordered in the definition of delta, so among
    them only assignments with increasing leading index are produced.
    """

    def rec(available: tuple[int, ...], i: int, prev: tuple[int, ...] | None):
        if i == len(sizes):
            yield ()
            return
        for combo in itertools.combinations(available, sizes[i]):
            if prev is not None and sizes[i] == sizes[i - 1] and combo[0] < prev[0]:
                continue
            rest = tuple(v for v in available if v not in combo)
            for tail in rec(rest, i + 1, combo):
                yield (combo,) + tail

    yield from rec(tuple(range(1, n + 1)), 0, None)


def _enumerated_oracle(h, c, P):
    """(value, assignment, block taus) by listing every assignment.

    The smallest block-order sum of ``_tau_dense`` values wins; exact ties
    go to the lexicographically smallest assignment.  Block taus are
    memoized, which leaves every sum bit-identical.
    """
    T = h.dense_view
    memo = {}

    def tau(block):
        if block not in memo:
            memo[block] = _tau_dense(T, [v - 1 for v in block], c)
        return memo[block]

    best_sum = best_assignment = best_taus = None
    for assignment in _coordinate_assignments(P.n, P.blocks):
        taus = tuple(tau(block) for block in assignment)
        s = sum(taus)
        if (
            best_sum is None
            or s < best_sum
            or (s == best_sum and assignment < best_assignment)
        ):
            best_sum, best_assignment, best_taus = s, assignment, taus
    return scalar_curvature(h, c) - best_sum, best_assignment, best_taus


def _integer_form(n, rng):
    """Entries in {-1, 0, 1}: every tau is exact, so exact ties abound."""
    triples = list(itertools.combinations_with_replacement(range(1, n + 1), 3))
    values = rng.integers(-1, 2, size=len(triples)).astype(float)
    return CubicForm(n, dict(zip(triples, values)))


def _assert_oracle_matches_enumeration(h, c, P):
    res = delta_coordinate_oracle(h, c, P)
    value, assignment, taus = _enumerated_oracle(h, c, P)
    assert res.assignment == assignment, (P, c)
    assert res.tau_blocks == taus, (P, c)
    assert res.value == value and res.certified_lower == value, (P, c)


@pytest.mark.parametrize(
    "P",
    [P for n in range(3, 9) for P in enumerate_partitions(n)],
    ids=lambda P: f"n{P.n}-{P.label()}",
)
def test_oracle_dp_matches_enumeration(P):
    rng = np.random.default_rng([P.n, *P.blocks])
    theorem = 2 if P.saturating else 1
    tensors = (
        [random_cubic_form(P.n, 1.0, rng) for _ in range(3)]
        + [CubicForm(P.n)]
        + [_integer_form(P.n, rng) for _ in range(4)]
        + [random_witness(theorem, P, seed=s) for s in range(2)]
    )
    for h in tensors:
        for c in (-1.0, 0.0, 1.0):
            _assert_oracle_matches_enumeration(h, c, P)


@pytest.mark.parametrize("n, blocks", [(10, (3, 3, 3)), (9, (2, 2, 2, 3))])
def test_oracle_dp_matches_enumeration_large(n, blocks):
    rng = np.random.default_rng(n)
    P = PartitionSpec(n, blocks)
    for h in (random_cubic_form(n, 1.0, rng), _integer_form(n, rng)):
        for c in (-1.0, 0.0, 1.0):
            _assert_oracle_matches_enumeration(h, c, P)


# ---------------------------------------------------------------------------
# coordinate oracle
# ---------------------------------------------------------------------------


def test_oracle_zero_tensor():
    h = CubicForm(5)
    for blocks in [(2,), (2, 2), (3,)]:
        assert delta_coordinate_oracle(h, 0.0, PartitionSpec(5, blocks)).value == 0.0


def test_oracle_constant_curvature():
    h = CubicForm(3)
    res = delta_coordinate_oracle(h, 1.0, PartitionSpec(3, (2,)))
    # tau = 3, every plane has tau(L) = 1
    assert res.value == pytest.approx(2.0)
    assert res.value == pytest.approx(float(shared_b(PartitionSpec(3, (2,)))))


def test_oracle_equality_witness(t1_witness_n3):
    h, P = t1_witness_n3
    res = delta_coordinate_oracle(h, 0.0, P)
    assert res.value == pytest.approx(1.5, abs=1e-12)
    assert res.assignment == ((1, 2),)
    assert res.tau_blocks[0] == pytest.approx(0.25, abs=1e-12)
    assert res.certified_lower == res.value


def test_oracle_partition_mismatch():
    h = CubicForm(4)
    with pytest.raises(InadmissiblePartition):
        delta_coordinate_oracle(h, 0.0, PartitionSpec(5, (2,)))


def test_assignment_enumeration_dedupes_equal_blocks():
    # two blocks of size 2 on n=4: three unordered pairings
    got = list(_coordinate_assignments(4, (2, 2)))
    assert len(got) == 3
    assert (((1, 2), (3, 4))) in got
    # unequal blocks are ordered, no dedup: C(5,2)*C(3,3) = 10
    assert len(list(_coordinate_assignments(5, (2, 3)))) == 10


def test_oracle_tie_break_lexicographic():
    h = CubicForm(4)
    res = delta_coordinate_oracle(h, 1.0, PartitionSpec(4, (2,)))
    assert res.assignment == ((1, 2),)


def test_oracle_result_invariants():
    rng = np.random.default_rng(15)
    for _ in range(5):
        h = random_cubic_form(5, 1.0, rng)
        P = PartitionSpec(5, (2, 2))
        res = delta_coordinate_oracle(h, 0.5, P)
        assert res.value == pytest.approx(
            res.tau_total - sum(res.tau_blocks), abs=1e-10
        )
        # the reported assignment reproduces the reported block taus
        for block, tau in zip(res.assignment, res.tau_blocks):
            assert tau_subspace(h, 0.5, block) == pytest.approx(tau, abs=1e-12)


# ---------------------------------------------------------------------------
# optimizer internals
# ---------------------------------------------------------------------------


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    for n, blocks in [(4, (2,)), (5, (2, 2)), (6, (2, 3))]:
        h = random_cubic_form(n, 1.0, rng)
        P = PartitionSpec(n, blocks)
        M = _block_mask(P)
        R = Frame.random(n, rng).matrix
        H = _rotate_dense(h.dense_view, R)
        _, A = _grad_skew(H, M)
        for _ in range(4):
            S = rng.standard_normal((n, n))
            S = S - S.T
            eps = 1e-6
            fp = _block_tau_h(
                _rotate_dense(h.dense_view, _cayley_step(R, S, eps)), M
            )
            fm = _block_tau_h(
                _rotate_dense(h.dense_view, _cayley_step(R, S, -eps)), M
            )
            fd = (fp - fm) / (2 * eps)
            analytic = float(np.vdot(A, S)) / 2.0
            assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_skew_gradient_is_bounded_by_4n_times_the_squared_norm():
    # |W| <= n |H| and |G| <= |W| |H|, so |A| <= 4 |G| <= 4 n |H|^2, and a
    # two-slot rotation keeps |H| = |h|: the bound the descent's step clamp
    # t_max = min(1e4, 1e9 / (4 n |h|^2)) rests on.  The largest ratio
    # |A| / (4 n |h|^2) over these cases is 0.027
    rng = np.random.default_rng(29)
    worst = 0.0
    for n in range(3, 13):
        frames = np.stack([np.eye(n)] + [Frame.random(n, rng).matrix for _ in range(4)])
        for P in enumerate_partitions(n):
            M = _block_mask(P)
            for h in (
                random_cubic_form(n, 1.0, rng),
                random_witness(2 if P.saturating else 1, P, seed=n),
            ):
                T = h.dense_view
                _, A = _grad_skew(_rotate_two_slots(T, frames), M)
                ratio = np.linalg.norm(A, axis=(-2, -1)) / (4 * n * np.vdot(T, T))
                worst = max(worst, float(ratio.max()))
    assert 0.0 < worst <= 1.0


def test_cayley_step_is_orthogonal():
    rng = np.random.default_rng(25)
    S = rng.standard_normal((5, 5))
    S = S - S.T
    R = _cayley_step(np.eye(5), S, 0.7)
    assert np.max(np.abs(R @ R.T - np.eye(5))) < 1e-12


# ---------------------------------------------------------------------------
# single-start reference for the stacked descent
# ---------------------------------------------------------------------------


def _dot(X, Y):
    """<X, Y> summed as the stacked loops sum it, on a stack of one frame."""
    return float(np.einsum("kij,kij->k", X[None], Y[None])[0])


def _reference_descend(T, R0, M, max_iters, tol, flat_steps=None):
    """One start at a time: gradient descent with Barzilai-Borwein steps and
    Armijo backtracking along R(t) = cay(-t A) R; (f_min, frame, converged).

    With ``flat_steps=None`` this is the loop that ships, plus the former
    stop at |A| < tol, kept as an oracle for the loop without it: with
    tol <= 4.4e-8 the resolution stop ends the same descent in the same
    round, converged (t <= 1e4 caps the Armijo decrease at |A|^2 / 2).
    After the k-th accepted step, with s = -t A and y = G - A for the next
    gradient G, the next trial step is BB1 = <s,s>/<s,y> for even k and
    BB2 = <s,y>/<y,y> for odd k, read from |A|^2, <A, G> and |G|^2 as
    ``_stacked_descent`` forms them.  Once |A| < max(tol, 1e-7), a trial
    whose Armijo test asks for a decrease of at most 1e-15 max(1, |f|) is
    not made and the descent stops, converged.  Frames rotate T in slots 1
    and 2 only (``_rotate_two_slots``), as the loop does.

    An integer gives the former loop of ``_ten_step_stacked_descent``, kept
    as an oracle with that loop's arithmetic: BB1 alone, as
    t <A, A> / <A, A - G>, and on top of the shipped stops, ``flat_steps``
    accepted steps in a row that leave f unchanged to 1e-15 relative end
    the descent at any |A| (10 in the former loop).
    """
    former = flat_steps is not None
    R = np.array(R0, dtype=float)
    H = _rotate_two_slots(T, R)
    f = float(_block_tau_h(H, M))
    _, A = _grad_skew(H, M)
    aa = _dot(A, A)
    gnorm = float(np.linalg.norm(A)) if former else math.sqrt(aa)
    t = min(max(1.0 / max(gnorm, 1.0), 1e-12), 1e4)
    converged = False
    stagnant = 0
    for k in range(1, max_iters + 1):  # looking for the k-th accepted step
        if gnorm < tol:
            converged = True
            break
        slope = (gnorm * gnorm if former else aa) / 2.0
        stationary = gnorm < max(tol, 1e-7)
        accepted = False
        while t > 1e-15:
            if stationary and 1e-4 * t * slope <= 1e-15 * max(1.0, abs(f)):
                break
            Rt = _cayley_step(R, -A, t)
            Ht = _rotate_two_slots(T, Rt)
            ft = float(_block_tau_h(Ht, M))
            if ft <= f - 1e-4 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            converged = stationary
            break
        _, G = _grad_skew(Ht, M)
        if former:
            num, denom = aa, _dot(A, A - G)
            positive = denom > 1e-30
        else:
            ag, gg = _dot(A, G), _dot(G, G)
            sy = aa - ag
            num, denom = (aa, sy) if k % 2 == 0 else (sy, sy - ag + gg)
            positive = min(sy, denom) > 1e-30
        t = min(max(t * num / denom if positive else 2.0 * t, 1e-12), 1e4)
        flat = f - ft <= 1e-15 * max(1.0, abs(f))
        stagnant = stagnant + 1 if flat else 0
        R, f, A = Rt, ft, G
        aa = _dot(A, A) if former else gg
        gnorm = float(np.linalg.norm(A)) if former else math.sqrt(aa)
        if former and stagnant >= flat_steps:
            converged = stationary
            break
    return f, R, converged


def _ten_step_stacked_descent(T, starts, M, max_iters, floor, certified):
    """The stacked loop with the former ten-step flat window, kept as an
    oracle: on top of the shipped stops, ten accepted steps in a row that
    leave f unchanged to 1e-15 relative end a restart at any |A|, and so
    does the former stop at |A| < 1e-9.  It predates the floor rule and the
    certified stop and ignores ``floor`` and ``certified``, and its step is
    the first Barzilai-Borwein quotient alone.  Its trials go through
    ``delta_mod._cayley_step``, so a test that counts them there counts
    this loop's too, and rotate T in slots 1 and 2 only, as the shipped
    loop does.
    """
    R = np.array(starts, dtype=float)
    r = len(R)
    H = _rotate_two_slots(T, R)
    f = _block_tau_h(H, M)
    A = np.empty_like(R)
    prev_A = np.zeros_like(R)
    gnorm, slope, t = (np.empty(r) for _ in range(3))
    prev_t = np.zeros(r)
    iters = np.zeros(r, dtype=int)
    stagnant = np.zeros(r, dtype=int)
    active = np.ones(r, dtype=bool)
    converged = np.zeros(r, dtype=bool)
    tol, stationary_tol = 1e-9, 1e-7
    moved = np.arange(r)
    while True:
        if moved.size:
            _, G = _grad_skew(H[moved], M)
            g = np.linalg.norm(G, axis=(-2, -1))
            last_A, last_t = prev_A[moved], prev_t[moved]
            num = np.einsum("kij,kij->k", last_A, last_A)
            denom = np.einsum("kij,kij->k", last_A, last_A - G)
            bb = 2.0 * last_t
            np.divide(last_t * num, denom, out=bb, where=denom > 1e-30)
            t0 = np.where(iters[moved] > 0, bb, 1.0 / np.maximum(g, 1.0))
            A[moved], gnorm[moved] = G, g
            t[moved] = np.minimum(np.maximum(t0, 1e-12), 1e4)
            slope[moved] = g * g / 2.0
            done = moved[g < tol]
            converged[done] = True
            active[done] = False

        trial = np.flatnonzero(active)
        steps = t[trial]
        tiny = 1e-4 * steps * slope[trial] <= 1e-15 * np.maximum(1.0, abs(f[trial]))
        live = (steps > 1e-15) & ~(tiny & (gnorm[trial] < stationary_tol))
        if not live.all():
            spent = trial[~live]
            converged[spent] = gnorm[spent] < stationary_tol
            active[spent] = False
            trial, steps = trial[live], steps[live]
        if not trial.size:
            return f, R, converged
        Rt = delta_mod._cayley_step(R[trial], -A[trial], steps)
        Ht = _rotate_two_slots(T, Rt)
        ft = _block_tau_h(Ht, M)
        ok = ft <= f[trial] - 1e-4 * steps * slope[trial]
        t[trial[~ok]] *= 0.5

        moved = trial[ok]
        if not moved.size:
            continue
        ft, f_old = ft[ok], f[moved]
        flat = f_old - ft <= 1e-15 * np.maximum(1.0, np.abs(f_old))
        stagnant[moved] = np.where(flat, stagnant[moved] + 1, 0)
        R[moved], H[moved], f[moved] = Rt[ok], Ht[ok], ft
        prev_A[moved], prev_t[moved] = A[moved], t[moved]
        iters[moved] += 1
        stalled = moved[stagnant[moved] >= 10]
        converged[stalled] = gnorm[stalled] < stationary_tol
        active[stalled] = False
        active[moved[iters[moved] >= max_iters]] = False
        moved = moved[active[moved]]


def _reference_starts(P, assignment, restarts, seed):
    """Identity, oracle permutation, then one ``Frame.random`` per start."""
    starts = [np.eye(P.n), _oracle_start_frame(P, assignment)]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for _ in range(max(0, restarts - 2)):
        starts.append(Frame.random(P.n, rng).matrix)
    return starts


def _descent_case(kind, n, seed):
    """A witness or a random tensor with n = 3..8, its partition and starts."""
    parts = enumerate_partitions(n)
    P = parts[seed % len(parts)]
    if kind == "witness":
        h = random_witness(2 if P.saturating else 1, P, seed=seed)
    else:
        h = random_cubic_form(n, 1.0, np.random.default_rng([n, seed]))
    assignment = delta_coordinate_oracle(h, 0.0, P).assignment
    return h, P, _reference_starts(P, assignment, 6, seed)


@pytest.mark.parametrize("restarts", [1, 2, 3, 7, 9])
def test_start_stacks_are_the_per_start_frames(monkeypatch, restarts):
    monkeypatch.setattr(delta_mod, "_STACK", 3)
    P = PartitionSpec(5, (2, 2))
    assignment = ((3, 5), (1, 4))
    stacks = list(_start_stacks(P, assignment, restarts, 11))
    assert [len(s) for s in stacks[:-1]] == [3] * (len(stacks) - 1)
    got = np.concatenate(stacks)
    assert np.array_equal(got, _reference_starts(P, assignment, restarts, 11))


def test_cached_start_frames_are_read_only():
    frames = _haar_starts(5, 14, 11)
    assert len(frames) == 14 and not frames.flags.writeable
    with pytest.raises(ValueError):
        frames[0, 0, 0] = 1.0
    # a stack handed to the descent is its own, writable array
    stack = next(_start_stacks(PartitionSpec(5, (2, 2)), ((3, 5), (1, 4)), 16, 11))
    assert stack.flags.writeable and not np.shares_memory(stack, frames)


@pytest.mark.parametrize("restarts", [1, 16, 200])
def test_repeat_calls_give_equal_start_stacks(restarts):
    # the second call reads the first stack's frames from the cache and, past
    # _STACK starts, draws on from a fresh generator that skips them
    P = PartitionSpec(6, (2, 3))
    assignment = ((1, 2), (3, 4, 5))
    first = list(_start_stacks(P, assignment, restarts, 5))
    again = list(_start_stacks(P, assignment, restarts, 5))
    assert len(first) == len(again) == -(-max(restarts, 2) // delta_mod._STACK)
    for a, b in zip(first, again):
        assert np.array_equal(a, b)
    want = _reference_starts(P, assignment, restarts, 5)
    assert np.array_equal(np.concatenate(first), want)


def test_many_restarts_cache_at_most_one_stack_of_frames():
    P = PartitionSpec(4, (2,))
    _haar_starts.cache_clear()
    sizes = [len(s) for s in _start_stacks(P, ((1, 2),), 10_000, 9)]
    assert sum(sizes) == 10_000 and max(sizes) == delta_mod._STACK
    assert _haar_starts.cache_info().currsize == 1
    # the one cached entry is the first stack's random frames
    frames = _haar_starts(4, delta_mod._STACK - 2, 9)
    assert _haar_starts.cache_info().hits == 1
    assert len(frames) == delta_mod._STACK - 2


def _assert_stacked_matches_reference(
    kind, n, max_iters, descent=_stacked_descent, flat_steps=None
):
    for seed in range(2):
        h, P, starts = _descent_case(kind, n, seed)
        T, M = h.dense_view, _block_mask(P)
        f, R, converged = descent(T, np.stack(starts), M, max_iters, -np.inf, -np.inf)
        for i, R0 in enumerate(starts):
            ref_f, ref_R, ref_converged = _reference_descend(
                T, R0, M, max_iters, 1e-9, flat_steps
            )
            assert abs(f[i] - ref_f) <= 1e-10 * max(1.0, abs(ref_f)), (P, seed, i)
            assert f[i] == pytest.approx(
                _block_tau_h(_rotate_dense(T, R[i]), M), rel=1e-12, abs=1e-12
            )
            assert converged[i] == ref_converged, (P, seed, i)
            # the shipped loop ends on its reference's frame bit for bit; the
            # former loop's witness restarts end 1.6e-15 from theirs, and its
            # random ones stop on flat ground, where rounding lets frames
            # part by up to 4.2e-9
            frame_tol = 1e-10 if kind == "witness" else 1e-8
            assert np.max(np.abs(R[i] - ref_R)) <= frame_tol, (P, seed, i)


@pytest.mark.parametrize("max_iters", [500, 7])
@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("kind", ["witness", "random"])
def test_stacked_descent_matches_single_start_reference(kind, n, max_iters):
    _assert_stacked_matches_reference(kind, n, max_iters)


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("kind", ["witness", "random"])
def test_ten_step_rule_matches_its_single_start_reference(kind, n):
    # the former loop that the oracle tests below run through delta_invariant
    _assert_stacked_matches_reference(kind, n, 500, _ten_step_stacked_descent, 10)


def test_earliest_best_keeps_the_first_of_float_noise_ties():
    assert _earliest_best([1.0, 1.0 - 5e-11, 2.0]) == 0
    assert _earliest_best([2.0, 1.0, 1.0 - 2e-10, 1.0 - 2.5e-10]) == 2
    assert _earliest_best([1e12, 1e12 - 50.0, 1e12 - 200.0]) == 2


@pytest.mark.parametrize("kind", ["witness", "random"])
def test_restarts_give_the_best_of_the_first_starts(monkeypatch, kind):
    monkeypatch.setattr(delta_mod, "_STACK", 3)
    h, P, _ = _descent_case(kind, 5, 3)
    T, M = h.dense_view, _block_mask(P)
    assignment = delta_coordinate_oracle(h, 0.0, P).assignment
    starts = _reference_starts(P, assignment, 8, 4)
    ref = [_reference_descend(T, R0, M, 500, 1e-9)[0] for R0 in starts]
    for restarts in (1, 2, 4, 6, 8):
        res = delta_invariant(h, 0.0, P, OptimizerOptions(restarts=restarts, seed=4))
        best = min(ref[: max(restarts, 2)])
        assert res.value == pytest.approx(res.tau_total - best, abs=1e-9)


def _sweep(cases, opts=None):
    """delta_invariant on every (h, P) at c = 0."""
    return [delta_invariant(h, 0.0, P, opts) for h, P in cases]


@lru_cache(maxsize=None)
def _witnesses():
    """The 18 partitions with n <= 6, three seeded witnesses each."""
    return tuple(
        (random_witness(2 if P.saturating else 1, P, seed=seed), P)
        for n in range(3, 7)
        for P in enumerate_partitions(n)
        for seed in range(3)
    )


# Every tau carries c C(dim L, 2), so delta = delta_h + b c with the same b
# as every bound's, and the c terms of every gap cancel: the descent, its
# frame and every gap are the same whatever c is
_C_SHIFTS = (-1.0, 0.5, 1e12, 1e17)
# the identity and oracle starts only, to keep the sweep short
_FEW_RESTARTS = OptimizerOptions(restarts=2)


@lru_cache(maxsize=None)
def _c_invariance_cases():
    """The 54 witnesses and seeded random tensors, one for every partition
    with n = 3..6 and for the first and last of n = 7 and 8."""
    rng = np.random.default_rng(2718)
    partitions = [P for n in range(3, 7) for P in enumerate_partitions(n)]
    partitions += [enumerate_partitions(n)[i] for n in (7, 8) for i in (0, -1)]
    randoms = tuple((random_cubic_form(P.n, 1.0, rng), P) for P in partitions)
    return _witnesses() + randoms


@lru_cache(maxsize=None)
def _c_free_reports():
    return tuple(evaluate(h, 0.0, P, _FEW_RESTARTS) for h, P in _c_invariance_cases())


@pytest.mark.parametrize("c", _C_SHIFTS)
def test_gaps_and_descent_do_not_depend_on_c(c):
    for i, (h, P) in enumerate(_c_invariance_cases()):
        base, report = _c_free_reports()[i], evaluate(h, c, P, _FEW_RESTARTS)
        for row, row0 in zip(report.rows, base.rows):
            if row0.gap is None:
                assert row.gap is None
            else:
                assert abs(row.gap - row0.gap) <= 1e-12 * max(1.0, abs(row0.gap))
        assert np.array_equal(report.delta.frame.matrix, base.delta.frame.matrix)
        assert report.delta.assignment == base.delta.assignment
        if i < len(_witnesses()):
            assert report.sharp, (P, c)


def _counted_sweep(monkeypatch, cases):
    """``_sweep`` with the count of stacked ``_cayley_step`` calls, one per
    round, and of the frames they pass, one per Armijo trial."""
    calls = []
    cayley_step = delta_mod._cayley_step

    def counted(R, S, t):
        calls.append(len(R))
        return cayley_step(R, S, t)

    monkeypatch.setattr(delta_mod, "_cayley_step", counted)
    results = _sweep(cases)
    monkeypatch.setattr(delta_mod, "_cayley_step", cayley_step)
    return results, len(calls), sum(calls)


def test_short_flat_window_keeps_witness_values_with_fewer_steps(monkeypatch):
    # without any flat window against the ten-step loop on the 54 witnesses:
    # the winners are bit-identical.  A few losing restarts that the window
    # ended above the stationary level run on, but the alternating step
    # more than pays for them: 11,661 trials against 14,056
    new, _, new_trials = _counted_sweep(monkeypatch, _witnesses())
    monkeypatch.setattr(delta_mod, "_stacked_descent", _ten_step_stacked_descent)
    former, _, former_trials = _counted_sweep(monkeypatch, _witnesses())
    for a, b in zip(new, former):
        assert abs(a.value - b.value) <= 1e-12 * max(1.0, abs(b.value))
        assert np.max(np.abs(a.frame.matrix - b.frame.matrix)) <= 1e-10
        assert a.converged and b.converged
    assert new_trials <= 1.01 * former_trials


def _descending(cases):
    """How many of the (h, P) cases descend: all but P = (n-1), whose
    closed form takes no round."""
    return sum(P.blocks != (P.n - 1,) for _, P in cases)


def test_witness_descent_rounds_stay_few(monkeypatch):
    # a round is one stacked Armijo trial, one _cayley_step call; the loop
    # before the resolution stop made 50.9 per witness, mostly trials f
    # could not resolve, 29.7 before the floor rule, 23.6 with the first
    # Barzilai-Borwein quotient alone and 23.90 with the floor band at
    # 1e-12.  The bounds are 1.15x the 22.86 rounds and 221.1 frame trials
    # measured per descending call with the band at _BEST_RTOL / 4 (960
    # rounds and 9,288 trials over the 42 witnesses with P != (n-1), against
    # 1,004 and 9,938 with the 1e-12 band), all with the certified stop off
    _proof_free(monkeypatch)
    _, rounds, trials = _counted_sweep(monkeypatch, _witnesses())
    assert rounds / _descending(_witnesses()) <= 1.15 * 22.86
    assert trials / _descending(_witnesses()) <= 1.15 * 221.1


@lru_cache(maxsize=None)
def _canonical_witnesses():
    """One witness per partition with n = 3..9, the i-th of seed i."""
    return tuple(
        (random_witness(2 if P.saturating else 1, P, seed=i), P)
        for i, P in enumerate(
            P for n in range(3, 10) for P in enumerate_partitions(n)
        )
    )


@lru_cache(maxsize=None)
def _rotated_witnesses():
    """The canonical witnesses with n = 3..9, each in a seeded Haar frame."""
    rng = np.random.default_rng(79)
    return tuple(
        (rotate(h, Frame.random(P.n, rng)), P) for h, P in _canonical_witnesses()
    )


def test_rotated_witness_descent_rounds_stay_few(monkeypatch):
    # a Haar frame hides the witness's blocks, so every restart descends
    # from far off: 60.8 rounds per call with the first Barzilai-Borwein
    # quotient alone and 49.67 with the floor band at 1e-12.  The bounds
    # are 1.15x the 48.42 rounds and 475.9 frame trials measured per
    # descending call with the band at _BEST_RTOL / 4 (3,486 rounds and
    # 34,268 trials over the 72 witnesses with P != (n-1), against 3,576
    # and 36,388 with the 1e-12 band), all with the certified stop off
    _proof_free(monkeypatch)
    _, rounds, trials = _counted_sweep(monkeypatch, _rotated_witnesses())
    assert rounds / _descending(_rotated_witnesses()) <= 1.15 * 48.42
    assert trials / _descending(_rotated_witnesses()) <= 1.15 * 475.9


@lru_cache(maxsize=None)
def _near_witnesses():
    """The 54 witnesses, each plus 8e-7 times a seeded random tensor.  No
    longer sharp, so the best f ends above the floor by about eps^2: on all
    42 that descend, between 1.3e-12 and 2.0e-11 relative of it, outside
    the former 1e-12 band and inside _FLOOR_RTOL = 2.5e-11."""
    rng = np.random.default_rng(97)
    return tuple(
        (CubicForm.from_dense(
            h.dense_view + 8e-7 * random_cubic_form(P.n, 1.0, rng).dense_view
        ), P)
        for h, P in _witnesses()
    )


def _floor_free(monkeypatch):
    """Make ``delta_invariant`` descend with the floor rule off."""
    stacked_descent = delta_mod._stacked_descent

    def floor_free(T, starts, M, max_iters, floor, certified):
        return stacked_descent(T, starts, M, max_iters, -np.inf, certified)

    monkeypatch.setattr(delta_mod, "_stacked_descent", floor_free)


def _proof_free(monkeypatch):
    """Make ``delta_invariant`` descend with the certified stop off."""
    monkeypatch.setattr(delta_mod, "_ky_fan_floor", lambda T, M: -np.inf)


@pytest.mark.parametrize(
    "cases",
    [_witnesses, _rotated_witnesses, _near_witnesses],
    ids=["canonical", "rotated", "near-equality"],
)
def test_floor_rule_keeps_every_result_bit_for_bit(monkeypatch, cases):
    # the floor rule stops only restarts behind an earlier one that reached
    # the certified minimum: the winner, its frame and converged stay the
    # same, bit for bit, in fewer rounds.  The near-equality set puts its
    # minima where only the band's outer part reaches
    new, rounds, _ = _counted_sweep(monkeypatch, cases())
    _floor_free(monkeypatch)
    free, free_rounds, _ = _counted_sweep(monkeypatch, cases())
    for (_, P), a, b in zip(cases(), new, free):
        assert a.value == b.value and a.tau_blocks == b.tau_blocks, P
        assert np.array_equal(a.frame.matrix, b.frame.matrix), P
        assert a.converged == b.converged, P
    assert rounds < free_rounds


def test_floor_band_is_narrower_than_the_winner_margin():
    # a restart stopped by the floor rule ends at or above floor - eps, and
    # the lead it stopped behind at or below floor + eps, so it cannot beat
    # the lead by the _BEST_RTOL that ``_earliest_best`` asks of a later
    # restart while 2 eps < _BEST_RTOL.  Run on, it could win only by going
    # below floor + eps - _BEST_RTOL: a violation of the bound of at least
    # 7.5e-11 relative, at eps = _BEST_RTOL / 4
    assert 2 * delta_mod._FLOOR_RTOL < delta_mod._BEST_RTOL


def test_near_equality_minima_lie_in_the_band_beyond_1e_12(monkeypatch):
    # every descending near-equality winner ends between 1e-12 and
    # _FLOOR_RTOL relative above its floor, so there the band stops
    # restarts that the former 1e-12 band let run; the floor-rule test
    # above checks that their results stay the same
    cases = _near_witnesses()
    results, _, trials = _counted_sweep(monkeypatch, cases)
    for (h, P), res in zip(cases, results):
        if P.blocks == (P.n - 1,):
            continue
        a, _ = _gap_terms(P)
        K = _sectional_matrix(h.dense_view)
        floor = 0.5 * float(K.sum()) - a * mean_curvature_sq(h)
        gap = universal_check(h, P, res.frame) / max(1.0, abs(floor))
        assert 1e-12 < gap < delta_mod._FLOOR_RTOL, P
    monkeypatch.setattr(delta_mod, "_FLOOR_RTOL", 1e-12)
    _, _, former_trials = _counted_sweep(monkeypatch, cases)
    assert trials < former_trials


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("kind", ["witness", "random"])
def test_floor_above_the_minimum_never_cuts_a_violation_short(kind, n):
    # a floor above the reachable minimum is what a false bound would give:
    # a restart below its band is a violation, and the rule lets it run
    h, P, starts = _descent_case(kind, n, 5)
    T, M, stack = h.dense_view, _block_mask(P), np.stack(starts)
    free = _stacked_descent(T, stack, M, 500, -np.inf, -np.inf)
    # above every start, every restart stays below the band and runs as
    # if there were no floor
    start_f = _block_tau_h(_rotate_dense(T, stack), M)
    above = _stacked_descent(T, stack, M, 500, float(start_f.max()) + 1.0, -np.inf)
    for got, want in zip(above, free):
        assert np.array_equal(got, want), P
    # just above the minimum, restarts pass through the band on the way
    # down; the winner is still the floor-free one
    best = free[0][_earliest_best(free[0].tolist())]
    floor = best + 1e-6 * max(1.0, abs(best))
    got, _, _ = _stacked_descent(T, stack, M, 500, floor, -np.inf)
    won = got[_earliest_best(got.tolist())]
    assert abs(won - best) <= 1e-12 * max(1.0, abs(best)), P


def _single_start_rounds(monkeypatch, T, R0, M, max_iters):
    """One start descended alone with no floor: its f and frame at each
    round, from the first to the one it stops in, and its (f, frame,
    converged).  A round's trial frame is kept when the next round starts
    from it bit for bit; then its f is the trial's, else f stays."""
    cayley_step, grad_skew = delta_mod._cayley_step, delta_mod._grad_skew
    trials, trial_f = [], []

    def cayley_recorded(R, S, t):
        moved = cayley_step(R, S, t)
        trials.append((R[0].copy(), moved[0].copy()))
        return moved

    def grad_recorded(H, M):
        f, A = grad_skew(H, M)
        trial_f.append(float(f[0]))
        return f, A

    with monkeypatch.context() as m:
        m.setattr(delta_mod, "_cayley_step", cayley_recorded)
        m.setattr(delta_mod, "_grad_skew", grad_recorded)
        f_end, R_end, converged = _stacked_descent(
            T, R0[None], M, max_iters, -np.inf, -np.inf
        )
    f, R = [trial_f[0]], [R0]
    for k, (start, moved) in enumerate(trials):
        assert np.array_equal(start, R[k])
        R.append(trials[k + 1][0] if k + 1 < len(trials) else R_end[0])
        f.append(trial_f[k + 1] if np.array_equal(R[-1], moved) else f[k])
    assert f[-1] == f_end[0]
    return f, R, (f_end[0], R_end[0], bool(converged[0]))


def _replay_floor_rule(runs, floor):
    """Each start's (f, frame, converged) under the floor rule, replayed
    round by round on the starts' single-start runs, and the (round, lead)
    of every move of the lead: the earliest start that has reached
    floor + eps while working.  A start in the band behind the lead stops
    there, converged; any other ends as it does alone."""
    eps = delta_mod._FLOOR_RTOL * max(1.0, abs(floor))
    lead, out, moves = len(runs), [None] * len(runs), []
    for k in itertools.count():
        working = [s for s, result in enumerate(out) if result is None]
        if not working:
            return out, moves
        near = [s for s in working if runs[s][0][k] <= floor + eps]
        if near and near[0] < lead:
            lead = near[0]
            moves.append((k, lead))
        for s in working:
            f, R, alone = runs[s]
            if k == len(f) - 1:
                out[s] = alone
            elif s > lead and floor - eps <= f[k] <= floor + eps:
                out[s] = (f[k], R[k], True)


def test_floor_rule_stops_each_restart_behind_the_earliest_lead(monkeypatch):
    # witnesses in a Haar frame, from six Haar starts: later starts often
    # reach the band first, and the lead then moves back to an earlier
    # start while later ones still run (in 20 of the 26 cases; 106 of the
    # 156 restarts stop in the band).  Each restart must end as the replay
    # of the rule on its own single-start run says, bit for bit
    rng = np.random.default_rng(79)
    moved_back = floored = 0
    for i, P in enumerate(P for n in range(4, 8) for P in enumerate_partitions(n)):
        h = rotate(random_witness(2 if P.saturating else 1, P, seed=i),
                   Frame.random(P.n, rng))
        if P.blocks == (P.n - 1,):
            continue
        T, M = h.dense_view, _block_mask(P)
        a, _ = _gap_terms(P)
        floor = 0.5 * float(_sectional_matrix(T).sum()) - a * mean_curvature_sq(h)
        starts = np.stack([Frame.random(P.n, rng).matrix for _ in range(6)])
        runs = [_single_start_rounds(monkeypatch, T, R0, M, 500) for R0 in starts]
        want, moves = _replay_floor_rule(runs, floor)
        f, R, converged = _stacked_descent(T, starts, M, 500, floor, -np.inf)
        for s, (want_f, want_R, want_converged) in enumerate(want):
            assert f[s] == want_f and np.array_equal(R[s], want_R), (P, s)
            assert converged[s] == want_converged, (P, s)
        moved_back += len(moves) > 1
        floored += sum(w is not run[2] for w, run in zip(want, runs))
    assert moved_back >= 10 and floored >= 10


# ---------------------------------------------------------------------------
# the certified stop: Ky Fan's proved lower bound on f
# ---------------------------------------------------------------------------


def _pair_count(P):
    """N = 1/2 sum M, the orthonormal 2-vectors e_i ^ e_j of the blocks."""
    return sum(math.comb(b, 2) for b in P.blocks)


def _ky_fan_rounding(T, P):
    """The rounding bound gamma that ``_ky_fan_floor`` states:
    2 N eps (C(n, 2) |Q|_F + (n + 1) |h|^2)."""
    Q, n = _curvature_operator(T), P.n
    size = math.comb(n, 2) * float(np.linalg.norm(Q)) + (n + 1) * float(np.vdot(T, T))
    return 2.0 * _pair_count(P) * np.finfo(float).eps * size


@lru_cache(maxsize=None)
def _random_descent_cases():
    """50 seeded random tensors, n = 4..10, each with a partition that
    descends."""
    rng = np.random.default_rng(101)
    cases = []
    for k in range(50):
        parts = [P for P in enumerate_partitions(4 + k % 7) if P.blocks != (P.n - 1,)]
        P = parts[k % len(parts)]
        cases.append((random_cubic_form(P.n, 1.0, rng), P))
    return tuple(cases)


@pytest.mark.parametrize(
    "cases",
    [_witnesses, _rotated_witnesses, _near_witnesses, _random_descent_cases],
    ids=["canonical", "rotated", "near-equality", "random"],
)
def test_ky_fan_floor_is_never_above_a_restarts_final_f(monkeypatch, cases):
    # every frame's f sums Q over N orthonormal 2-vectors, so no restart
    # ends below the bound; f itself rounds, and the largest excess
    # measured is 1.9e-15 relative (rotated witnesses).  The bound is
    # finite on every one of these tensors
    ended = []
    stacked_descent = delta_mod._stacked_descent

    def recorded(T, starts, M, max_iters, floor, certified):
        f, R, converged = stacked_descent(T, starts, M, max_iters, floor, certified)
        ended.append((certified, f))
        return f, R, converged

    monkeypatch.setattr(delta_mod, "_stacked_descent", recorded)
    _sweep(cases())
    assert len(ended) == _descending(cases())
    for bound, f in ended:
        assert math.isfinite(bound)
        assert (bound <= f + 1e-13 * np.maximum(1.0, np.abs(f))).all()


def _exact_ky_fan_floor(T, N):
    """The sum of the N smallest eigenvalues of Q, from T's float entries
    taken exactly, in 50-digit mpmath."""
    pairs = list(itertools.combinations(range(T.shape[-1]), 2))
    with mpmath.workdps(50):
        h = [[[mpmath.mpf(float(v)) for v in row] for row in plane] for plane in T]
        Q = mpmath.matrix(len(pairs), len(pairs))
        for p, (i, j) in enumerate(pairs):
            for q, (k, l) in enumerate(pairs):
                Q[p, q] = mpmath.fsum(
                    a * b - c * d for a, b, c, d in zip(h[i][k], h[j][l], h[i][l], h[j][k])
                )
        eig = sorted(mpmath.eigsy(Q, eigvals_only=True))
        return mpmath.fsum(eig[:N])


def test_ky_fan_floor_rounding_stays_within_its_stated_bound():
    # gamma covers the float error against a 50-digit eigen-sum, and the
    # stop rule reads a finite bound only while gamma is at most
    # 1/2 _FLOOR_RTOL max(1, |bound|); the errors measured on these ten
    # tensors are at most 0.018 gamma, and gamma at most 1.2e-13 relative
    rng = np.random.default_rng(103)
    cases = [(random_cubic_form(n, 1.0, rng), P)
             for n, P in ((4, PartitionSpec(4, (2,))), (5, PartitionSpec(5, (2, 2))),
                          (6, PartitionSpec(6, (2, 3))), (6, PartitionSpec(6, (4,))))]
    for P in (PartitionSpec(5, (2, 2)), PartitionSpec(6, (2,)), PartitionSpec(6, (3,))):
        witness = random_witness(2 if P.saturating else 1, P, seed=3)
        cases += [(witness, P), (rotate(witness, Frame.random(P.n, rng)), P)]
    for h, P in cases:
        T = h.dense_view
        bound = _ky_fan_floor(T, _block_mask(P))
        exact = _exact_ky_fan_floor(T, _pair_count(P))
        gamma = _ky_fan_rounding(T, P)
        assert abs(bound - exact) <= gamma, P
        assert gamma <= 0.5 * delta_mod._FLOOR_RTOL * max(1.0, abs(bound)), P


def test_ky_fan_floor_is_off_where_q_is_not_finite_or_rounds_too_coarsely():
    P = PartitionSpec(4, (2,))
    M = _block_mask(P)
    with np.errstate(over="ignore", invalid="ignore"):
        huge = CubicForm(4, {(1, 1, 1): 1e200, (1, 2, 3): -3e199, (2, 2, 4): 2e200})
        assert _ky_fan_floor(huge.dense_view, M) == -np.inf
    # h_111 alone is flat, Q = 0; in a Haar frame Q rounds at 1e-16 |h|^2,
    # and at |h|^2 = 1e8 gamma is 2e-7, far above the band of a bound near 0
    flat = rotate(CubicForm(4, {(1, 1, 1): 1e4}), Frame.random(4, np.random.default_rng(7)))
    assert _ky_fan_rounding(flat.dense_view, P) > 1e-7
    assert _ky_fan_floor(flat.dense_view, M) == -np.inf
    # the same tensor at |h|^2 = 1 keeps a finite bound, 0 to rounding
    unit = rotate(CubicForm(4, {(1, 1, 1): 1.0}), Frame.random(4, np.random.default_rng(7)))
    assert abs(_ky_fan_floor(unit.dense_view, M)) <= 1e-14


@pytest.mark.parametrize(
    "cases",
    [_witnesses, _rotated_witnesses, _near_witnesses],
    ids=["canonical", "rotated", "near-equality"],
)
def test_certified_stop_keeps_every_result_bit_for_bit(monkeypatch, cases):
    # the certified stop ends only restarts behind an earlier one that
    # reached Ky Fan's proved bound on f, which no frame goes below: the
    # winner, its frame, its taus and converged stay the same, bit for bit,
    # in fewer rounds (canonical 960 -> 556, rotated 3,486 -> 3,411,
    # near-equality 966 -> 673)
    new, rounds, _ = _counted_sweep(monkeypatch, cases())
    _proof_free(monkeypatch)
    free, free_rounds, _ = _counted_sweep(monkeypatch, cases())
    for (_, P), a, b in zip(cases(), new, free):
        assert a.value == b.value and a.tau_blocks == b.tau_blocks, P
        assert np.array_equal(a.frame.matrix, b.frame.matrix), P
        assert a.converged == b.converged, P
        assert a.certified_lower == b.certified_lower, P
    assert rounds < free_rounds


def test_canonical_witness_descent_rounds_stay_few_with_the_certified_stop(
    monkeypatch,
):
    # the round-bound tests above measure with the certified stop off; this
    # one pins what it saves on the canonical witnesses with n = 3..9: 2,736
    # rounds and 23,342 frame trials over the 72 that descend (38.00 and
    # 324.2 per call), against 3,352 and 29,748 with it off.  The bounds are
    # 1.15x the measured values
    _, rounds, trials = _counted_sweep(monkeypatch, _canonical_witnesses())
    assert rounds / _descending(_canonical_witnesses()) <= 1.15 * 38.00
    assert trials / _descending(_canonical_witnesses()) <= 1.15 * 324.2


def test_no_stack_is_drawn_behind_a_winner_at_the_proved_bound(monkeypatch):
    # at restarts=200 the starts come in four stacks (64, 64, 64, 8); once a
    # stack's winner reaches the proved bound no later one can win, so none
    # is drawn or descended.  20 of the 42 descending canonical witnesses
    # stop after the first stack, and every result is the one with the
    # certified stop off, bit for bit
    opts = OptimizerOptions(restarts=200)
    stacks = -(-opts.restarts // delta_mod._STACK)
    descend, draw = delta_mod._descend, delta_mod._haar_rows
    calls, draws = [], []

    def counted(T, starts, M, max_iters, floor, certified):
        out = descend(T, starts, M, max_iters, floor, certified)
        calls.append((certified, out[0]))
        return out

    def drawn(gauss):
        draws.append(len(gauss))
        return draw(gauss)

    monkeypatch.setattr(delta_mod, "_descend", counted)
    monkeypatch.setattr(delta_mod, "_haar_rows", drawn)
    cases = [(h, P) for h, P in _witnesses() if P.blocks != (P.n - 1,)]
    new, stopped = [], 0
    for h, P in cases:
        calls.clear()
        draws.clear()
        new.append(delta_invariant(h, 0.0, P, opts))
        bound, first = calls[0]
        if first <= bound + delta_mod._FLOOR_RTOL * max(1.0, abs(bound)):
            # only the first stack's random frames, if not cached
            assert len(calls) == 1 and draws in ([], [delta_mod._STACK - 2]), P
            stopped += 1
        else:
            assert len(calls) == stacks, P
    assert stopped == 20
    _proof_free(monkeypatch)
    for (h, P), a in zip(cases, new):
        calls.clear()
        b = delta_invariant(h, 0.0, P, opts)
        assert len(calls) == stacks
        assert a.value == b.value and a.tau_blocks == b.tau_blocks, P
        assert np.array_equal(a.frame.matrix, b.frame.matrix), P
        assert a.converged == b.converged, P


@pytest.mark.parametrize("n", range(3, 13))
def test_short_flat_window_never_unconverges_a_winner(monkeypatch, n):
    # the ten-step window ended restarts above the stationary level, always
    # unconverged: 111 of these 116 winners converge under it, all do now
    parts = enumerate_partitions(n)
    cases = [
        (random_cubic_form(n, 1.0, np.random.default_rng([n, seed])),
         parts[seed % len(parts)])
        for seed in range(18 if n <= 8 else 2)
    ]
    new = _sweep(cases)
    monkeypatch.setattr(delta_mod, "_stacked_descent", _ten_step_stacked_descent)
    former = _sweep(cases)
    for (_, P), a, b in zip(cases, new, former):
        assert a.converged, P
        # a higher winner f is a lower value
        assert a.value >= b.value - 1e-12 * max(1.0, abs(b.value)), P


def test_random_restarts_converge_for_n_9_to_12(monkeypatch):
    # three random tensors for each partition below, 16 restarts each: all
    # 192 restarts converge (96 under the ten-step window, 190 with the
    # first Barzilai-Borwein quotient alone, whose other 2 stopped at
    # max_iters).  The round bound, 1.25x the 201.3 rounds per call
    # measured when it was set (217.8 now, with the two-slot rotation and f
    # from the gradient pass; 365.7 with the first quotient alone), fails a
    # stopping rule that runs restarts to max_iters.
    verdicts = []
    stacked_descent = delta_mod._stacked_descent

    def recorded(*args):
        f, R, converged = stacked_descent(*args)
        verdicts.extend(converged.tolist())
        return f, R, converged

    monkeypatch.setattr(delta_mod, "_stacked_descent", recorded)
    cases = [
        (random_cubic_form(n, 1.0, np.random.default_rng([n, seed])),
         PartitionSpec(n, blocks))
        for n, blocks in [(9, (3, 3, 3)), (10, (2, 2, 2, 2)), (12, (4, 4, 4)),
                          (12, (2, 2, 2, 2, 2))]
        for seed in range(3)
    ]
    results, rounds, _ = _counted_sweep(monkeypatch, cases)
    assert len(verdicts) == 16 * len(cases)
    assert all(verdicts)
    assert all(res.converged for res in results)
    assert rounds / len(cases) <= 1.25 * 201.3


# ---------------------------------------------------------------------------
# P = (n-1): delta_h = lambda_max(Ric_h), no descent
# ---------------------------------------------------------------------------


def _one_block_cases(n):
    """P = (n-1) and its tensors: two seeded random ones, then a witness
    and the same witness in a seeded Haar frame, flagged as witnesses."""
    P = PartitionSpec(n, (n - 1,))
    rng = np.random.default_rng([61, n])
    witness = random_witness(1, P, seed=n)
    return P, [
        (random_cubic_form(n, 1.0, rng), False),
        (random_cubic_form(n, 1.0, rng), False),
        (witness, True),
        (rotate(witness, Frame.random(n, rng)), True),
    ]


@pytest.mark.parametrize("n", range(3, 13))
def test_one_block_closed_form_matches_top_ricci_eigenvalue_and_descent(n):
    # the descent from the same 16 starts, with no floor, can only find a
    # frame as good: the closed form is the global maximum of tau - tau(u^perp)
    P, cases = _one_block_cases(n)
    M, b = _block_mask(P), math.comb(n, 2) - math.comb(n - 1, 2)
    for h, witness in cases:
        T = h.dense_view
        top = float(np.linalg.eigvalsh(_ricci(T))[-1])
        assignment = delta_coordinate_oracle(h, 0.0, P).assignment
        starts = np.concatenate(list(_start_stacks(P, assignment, 16, 0)))
        f, _, _ = _stacked_descent(T, starts, M, 500, -np.inf, -np.inf)
        for c in (-1.0, 0.0, 0.5):
            res = delta_invariant(h, c, P)
            assert res.converged
            assert res.value >= res.certified_lower
            descent = res.tau_total - float(f.min()) - c * math.comb(n - 1, 2)
            assert res.value >= descent - 1e-12 * max(1.0, abs(descent)), c
            exact = top + b * c
            assert abs(res.value - exact) <= 1e-12 * max(1.0, abs(exact)), c
            if witness:
                rhs = rhs_value(optimal_coefficients(P), mean_curvature_sq(h), c)
                assert abs(res.value - rhs) <= SHARP_TOL, c


@pytest.mark.parametrize("n", [3, 4, 9])
def test_optimizer_options_do_not_apply_to_one_block(n):
    # P = (n-1) takes no descent, so no option changes its result; with
    # max_iters=1 the descent used to stop unconverged
    P = PartitionSpec(n, (n - 1,))
    h = random_cubic_form(n, 1.0, np.random.default_rng([67, n]))
    base = delta_invariant(h, 0.3, P)
    for opts in (OptimizerOptions(restarts=1, max_iters=1),
                 OptimizerOptions(restarts=40, seed=5)):
        res = delta_invariant(h, 0.3, P, opts)
        assert res.value == base.value and res.tau_blocks == base.tau_blocks
        assert np.array_equal(res.frame.matrix, base.frame.matrix)
        assert res.converged and base.converged


def test_one_block_with_a_non_finite_ricci_tensor_descends():
    # Ric_h overflows to inf - inf, which eigh cannot take; the descent runs
    # as for any other partition and reports what it always did for this
    # tensor: a NaN value from the overflowing taus, unconverged, in the
    # identity frame
    h = CubicForm(4, {(1, 1, 1): 1e200, (1, 2, 3): -3e199, (2, 2, 4): 2e200})
    P = PartitionSpec(4, (3,))
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(_ricci(h.dense_view)).all()
        for opts in (None, OptimizerOptions(restarts=3)):
            res = delta_invariant(h, 0.0, P, opts)
            assert math.isnan(res.value) and math.isnan(res.certified_lower)
            assert res.tau_total == -math.inf and res.tau_blocks == (-math.inf,)
            assert res.assignment == ((1, 2, 3),)
            assert np.array_equal(res.frame.matrix, np.eye(4))
            assert not res.converged


def test_a_nan_step_stops_its_restart_before_any_trial(monkeypatch):
    # |A|^2 overflows at every start, so every first step is NaN: the
    # spent-step stop ends each restart, unconverged, at its start, and no
    # Cayley step is ever tried (without that stop the loop never ends)
    h = CubicForm(4, {(1, 1, 1): 1e200, (1, 2, 3): -3e199, (2, 2, 4): 2e200})
    P = PartitionSpec(4, (2, 2))
    starts = np.stack([np.eye(4), Frame.random(4, np.random.default_rng(3)).matrix])

    def no_trial(R, S, t):
        raise AssertionError("a Cayley step was tried")

    monkeypatch.setattr(delta_mod, "_cayley_step", no_trial)
    with np.errstate(over="ignore", invalid="ignore"):
        _, R, converged = _stacked_descent(
            h.dense_view, starts, _block_mask(P), 500, -np.inf, -np.inf
        )
    assert np.array_equal(R, starts) and not converged.any()


def test_huge_finite_entries_never_make_the_descent_raise():
    # one entry of 1e152..1e200 overflows some gradients; the descent stops
    # such a start (a NaN first step, or a rejected trial) instead of
    # handing an infinite gradient to the Cayley solve, which would raise;
    # a value that is not finite never counts as converged, and a finite
    # one is never below the oracle's
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(3, 8):
            for P in enumerate_partitions(n):
                for value in (1e152, 1e155, 1e160, 1e200):
                    for key in ((1, 1, 1), (1, 2, 3), (1, 1, 2)):
                        res = delta_invariant(CubicForm(n, {key: value}), 0.0, P)
                        assert math.isfinite(res.value) or not res.converged
                        if math.isfinite(res.value) and math.isfinite(
                            res.certified_lower
                        ):
                            assert res.value >= res.certified_lower


def test_a_winner_rounded_below_the_oracle_gives_way_to_the_oracle_frame():
    # f rounds at the 1e304 scale of h^2, and the descent's winner scored
    # delta = -1.9e286 against the oracle's exact 0 (K vanishes)
    h = CubicForm(4, {(1, 1, 1): 1e152})
    P = PartitionSpec(4, (2,))
    with np.errstate(over="ignore", invalid="ignore"):
        res = delta_invariant(h, 0.0, P)
        oracle = delta_coordinate_oracle(h, 0.0, P)
    assert res.value == res.certified_lower == oracle.value == 0.0
    assert res.tau_blocks == oracle.tau_blocks
    assert np.array_equal(res.frame.matrix, _oracle_start_frame(P, oracle.assignment))
    assert not res.converged


def test_entries_near_1e75_keep_the_value_at_least_the_oracle():
    # entries near 1e75..1e79 make |A| near 1e150, and t_max, at most
    # 1.1e-143, stops every restart at its start before any trial; each of
    # these 360 calls still reports a value at least the oracle's
    with np.errstate(over="ignore", invalid="ignore"):
        res = delta_invariant(
            random_cubic_form(5, 1e75, np.random.default_rng(0)), 0.0,
            PartitionSpec(5, (2,)),
        )
        assert not res.converged and res.value >= res.certified_lower
        for seed in range(4):
            for n in range(3, 7):
                for P in enumerate_partitions(n):
                    for k in range(75, 80):
                        rng = np.random.default_rng([seed, n])
                        res = delta_invariant(random_cubic_form(n, 10.0**k, rng), 0.0, P)
                        lowest = res.certified_lower
                        assert res.value >= lowest - 1e-10 * abs(lowest)


@pytest.mark.parametrize(
    "seed, blocks", [(0, (2,)), ([0, 5], (2, 2))], ids=["rng-0", "rng-0-5"]
)
def test_a_huge_tensor_runs_rounds_past_its_first(monkeypatch, seed, blocks):
    # entries near 1e10: t_max = 1e9 / (4 n |h|^2) is near 1e-14, above the
    # 1e-15 spent rule, so the restarts make trials round after round (four
    # stacked solves in each case) and every one turns its frames by at
    # most 5e8 (1e7 measured).  Entries of 1e11 and up stop every restart
    # at its start before any trial; ROADMAP item 11's scale normalization
    # would let them descend
    h = random_cubic_form(5, 1e10, np.random.default_rng(seed))
    cayley_step = delta_mod._cayley_step
    rounds, turns = [], []

    def counted(R, S, t):
        rounds.append(len(R))
        turns.append(np.ravel(np.abs(t) * np.linalg.norm(S, axis=(-2, -1)) / 2))
        return cayley_step(R, S, t)

    monkeypatch.setattr(delta_mod, "_cayley_step", counted)
    with np.errstate(over="ignore", invalid="ignore"):
        res = delta_invariant(h, 0.0, PartitionSpec(5, blocks))
    assert len(rounds) > 1
    assert (np.concatenate(turns) <= 5e8).all()
    assert res.value >= res.certified_lower


def test_no_cayley_step_turns_a_frame_by_more_than_5e8(monkeypatch):
    # t_max = min(1e4, 1e9 / (4 n |h|^2)) and |A| <= 4 n |h|^2, so every
    # trial has t |A| / 2 <= 5e8 and its system I + tA/2 is solvable: no
    # call raises, from scales where the descent runs (1e-3..1e3) through
    # ones where t_max nears 1e-15 (1e8, 1e10) to huge ones where no trial
    # is made (1e12 and up; the largest turn measured is 1.3e7, at 1e10).
    # Under a clamp of 1e4 alone the 1e-12 step floor turns a frame by about
    # 1e138 at 1e75, where the solve raises LinAlgError
    cayley_step = delta_mod._cayley_step
    turns = []

    def recorded(R, S, t):
        turns.append(np.ravel(np.abs(t) * np.linalg.norm(S, axis=(-2, -1)) / 2))
        return cayley_step(R, S, t)

    monkeypatch.setattr(delta_mod, "_cayley_step", recorded)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(3, 7):
            for i, P in enumerate(enumerate_partitions(n)):
                for k in (-3, 0, 3, 8, 10, 12, 20, 40, 75, 80):
                    rng = np.random.default_rng([n, i, k + 3])
                    h = random_cubic_form(n, 10.0**k, rng)
                    delta_invariant(h, 0.0, P, OptimizerOptions(restarts=4))
    turns = np.concatenate(turns)
    assert turns.size and (turns <= 5e8).all()


# ---------------------------------------------------------------------------
# continuous optimizer
# ---------------------------------------------------------------------------


def test_optimizer_zero_tensor_matches_oracle():
    h = CubicForm(4)
    P = PartitionSpec(4, (2,))
    res = delta_invariant(h, 0.7, P, OptimizerOptions(restarts=4))
    oracle = delta_coordinate_oracle(h, 0.7, P)
    assert res.value == pytest.approx(oracle.value, abs=1e-9)
    assert res.converged


def test_optimizer_equality_witness(t1_witness_n3):
    h, P = t1_witness_n3
    res = delta_invariant(h, 0.0, P)
    assert res.value == pytest.approx(1.5, abs=1e-6)
    assert res.certified_lower == pytest.approx(1.5, abs=1e-12)
    assert res.converged


def test_optimizer_dominates_oracle_on_random_tensors():
    rng = np.random.default_rng(33)
    h = random_cubic_form(4, 1.0, rng)
    P = PartitionSpec(4, (2, 2))
    res = delta_invariant(h, 0.0, P, OptimizerOptions(restarts=32, seed=1))
    oracle = delta_coordinate_oracle(h, 0.0, P)
    assert res.value >= oracle.value - 1e-9
    assert res.certified_lower == oracle.value


def test_optimizer_monotone_in_restarts():
    rng = np.random.default_rng(35)
    h = random_cubic_form(4, 1.0, rng)
    P = PartitionSpec(4, (2,))
    values = [
        delta_invariant(h, 0.0, P, OptimizerOptions(restarts=r, seed=9)).value
        for r in (2, 4, 8, 16)
    ]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-12


def test_optimizer_frame_covariance():
    rng = np.random.default_rng(39)
    h = random_cubic_form(3, 1.0, rng)
    P = PartitionSpec(3, (2,))
    base = delta_invariant(h, 0.0, P, OptimizerOptions(seed=4)).value
    for _ in range(3):
        R = Frame.random(3, rng)
        rotated = delta_invariant(rotate(h, R), 0.0, P, OptimizerOptions(seed=4)).value
        assert rotated == pytest.approx(base, abs=2e-6)


def test_optimizer_constant_curvature_closed_form():
    for n, blocks in [(4, (2,)), (4, (3,)), (5, (2, 2)), (6, (2, 3)), (6, (5,))]:
        h = CubicForm(n)
        P = PartitionSpec(n, blocks)
        res = delta_invariant(h, 1.0, P, OptimizerOptions(restarts=3))
        assert res.value == pytest.approx(float(shared_b(P)), abs=1e-9)


def test_optimizer_result_reproduces_value():
    rng = np.random.default_rng(45)
    h = random_cubic_form(4, 1.0, rng)
    P = PartitionSpec(4, (2,))
    res = delta_invariant(h, 0.3, P, OptimizerOptions(restarts=6, seed=2))
    rotated = rotate(h, res.frame)
    replayed = sum(tau_subspace(rotated, 0.3, block) for block in res.assignment)
    assert res.value == pytest.approx(res.tau_total - replayed, abs=1e-9)
    assert res.value == pytest.approx(
        res.tau_total - sum(res.tau_blocks), abs=1e-10
    )


def test_optimizer_nonconvergence_flagged():
    rng = np.random.default_rng(49)
    h = random_cubic_form(4, 1.0, rng)
    P = PartitionSpec(4, (2,))
    res = delta_invariant(h, 0.0, P, OptimizerOptions(restarts=2, max_iters=1))
    assert not res.converged
    assert np.isfinite(res.value)


def test_optimizer_options_validation():
    for bad in (
        {"restarts": 0}, {"max_iters": 0}, {"seed": -1},
        # booleans and non-integral values are not integers
        {"restarts": 2.5}, {"restarts": True}, {"max_iters": 2.5},
        {"seed": 1.5}, {"seed": "3"}, {"seed": False},
    ):
        with pytest.raises(FormatError):
            OptimizerOptions(**bad)
    # an integral float is read as its int, as in JSON input
    assert OptimizerOptions(restarts=3.0, seed=np.int64(2)) == OptimizerOptions(
        restarts=3, seed=2
    )


def test_optimizer_options_have_no_tol():
    # the resolution stop ends every restart that a gradient-norm stop at
    # tol <= 4.4e-8 would, in the same round, so no tol is taken
    names = [f.name for f in fields(OptimizerOptions)]
    assert names == ["restarts", "max_iters", "seed"]
    with pytest.raises(TypeError):
        OptimizerOptions(tol=1e-9)


# every tol is an unknown keyword now, the bad values below included
@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_optimizer_options_reject_non_finite_or_negative_tol(tol):
    with pytest.raises(TypeError):
        OptimizerOptions(tol=tol)


@pytest.mark.parametrize(
    "tol",
    [True, False, "1e-9", None, [1e-9], 10**400],
    ids=["true", "false", "string", "none", "list", "beyond-float"],
)
def test_optimizer_options_reject_a_tol_that_is_not_a_number(tol):
    with pytest.raises(TypeError):
        OptimizerOptions(tol=tol)


# ---------------------------------------------------------------------------
# universal check
# ---------------------------------------------------------------------------


def test_universal_check_zero_tensor():
    h = CubicForm(3)
    P = PartitionSpec(3, (2,))
    assert universal_check(h, P, Frame.identity(3)) == pytest.approx(0.0)


def test_universal_check_equality_witness(t1_witness_n3):
    h, P = t1_witness_n3
    gap = universal_check(h, P, Frame.identity(3))
    assert gap == pytest.approx(0.0, abs=1e-9)


def test_universal_check_dimension_mismatch(t1_witness_n3):
    h, P = t1_witness_n3
    with pytest.raises(DimensionMismatch):
        universal_check(h, P, Frame.identity(4))


def test_universal_check_random_mini_campaign():
    rng = np.random.default_rng(55)
    worst = np.inf
    for _ in range(2000):
        n = int(rng.integers(3, 6))
        parts = enumerate_partitions(n)
        P = parts[int(rng.integers(len(parts)))]
        h = random_cubic_form(n, 1.0, rng)
        R = Frame.random(n, rng)
        worst = min(worst, universal_check(h, P, R))
    assert worst >= -1e-9
