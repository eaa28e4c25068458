"""Coordinate oracle, continuous optimizer, and the universal gap check."""

import itertools
import math
from dataclasses import fields
from functools import lru_cache

import numpy as np
import pytest

from deltainv import (
    CubicForm,
    DimensionMismatch,
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
import deltainv.delta as delta_mod
from deltainv.delta import (
    _block_mask,
    _block_tau_h,
    _cayley_step,
    _earliest_best,
    _grad_skew,
    _oracle_start_frame,
    _stacked_descent,
    _start_stacks,
)
from deltainv.tensors import (
    _canonical_triples,
    _rotate_dense,
    _tau_dense,
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
    triples = _canonical_triples(n)
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
        + [CubicForm.zero(P.n)]
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
    h = CubicForm.zero(5)
    for blocks in [(2,), (2, 2), (3,)]:
        assert delta_coordinate_oracle(h, 0.0, PartitionSpec(5, blocks)).value == 0.0


def test_oracle_constant_curvature():
    h = CubicForm.zero(3)
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
    h = CubicForm.zero(4)
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
    h = CubicForm.zero(4)
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
        A = _grad_skew(H, M)
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
    not made and the descent stops, converged.

    An integer gives the former loop of ``_ten_step_stacked_descent``, kept
    as an oracle with that loop's arithmetic: BB1 alone, as
    t <A, A> / <A, A - G>, and on top of the shipped stops, ``flat_steps``
    accepted steps in a row that leave f unchanged to 1e-15 relative end
    the descent at any |A| (10 in the former loop).
    """
    former = flat_steps is not None
    R = np.array(R0, dtype=float)
    H = _rotate_dense(T, R)
    f = float(_block_tau_h(H, M))
    A = _grad_skew(H, M)
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
            Ht = _rotate_dense(T, Rt)
            ft = float(_block_tau_h(Ht, M))
            if ft <= f - 1e-4 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            converged = stationary
            break
        G = _grad_skew(Ht, M)
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


def _ten_step_stacked_descent(T, starts, M, max_iters, floor):
    """The stacked loop with the former ten-step flat window, kept as an
    oracle: on top of the shipped stops, ten accepted steps in a row that
    leave f unchanged to 1e-15 relative end a restart at any |A|, and so
    does the former stop at |A| < 1e-9.  It predates the floor rule and
    ignores ``floor``, and its step is the first Barzilai-Borwein quotient
    alone.  Its trials go through ``delta_mod._cayley_step``, so a test
    that counts them there counts this loop's too.
    """
    R = np.array(starts, dtype=float)
    r = len(R)
    H = _rotate_dense(T, R)
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
            G = _grad_skew(H[moved], M)
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
        Ht = _rotate_dense(T, Rt)
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


def _assert_stacked_matches_reference(
    kind, n, max_iters, descent=_stacked_descent, flat_steps=None
):
    for seed in range(2):
        h, P, starts = _descent_case(kind, n, seed)
        T, M = h.dense_view, _block_mask(P)
        f, R, converged = descent(T, np.stack(starts), M, max_iters, -np.inf)
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
    with n = 3..6 and for the first and last of n = 7 and 8, each with a
    seeded random frame."""
    rng = np.random.default_rng(2718)
    partitions = [P for n in range(3, 7) for P in enumerate_partitions(n)]
    partitions += [enumerate_partitions(n)[i] for n in (7, 8) for i in (0, -1)]
    randoms = tuple((random_cubic_form(P.n, 1.0, rng), P) for P in partitions)
    return tuple((h, P, Frame.random(P.n, rng)) for h, P in _witnesses() + randoms)


@lru_cache(maxsize=None)
def _c_free_reports():
    return tuple(evaluate(h, 0.0, P, _FEW_RESTARTS) for h, P, _ in _c_invariance_cases())


@pytest.mark.parametrize("c", _C_SHIFTS)
def test_gaps_and_descent_do_not_depend_on_c(c):
    for i, (h, P, R) in enumerate(_c_invariance_cases()):
        ref = universal_check(h, 0.0, P, R)
        assert abs(universal_check(h, c, P, R) - ref) <= 1e-12 * max(1.0, abs(ref))
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
    """``_sweep`` with the count of ``_cayley_step`` calls and of the frames
    they pass, one per Armijo trial."""
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


def test_witness_descent_rounds_stay_few(monkeypatch):
    # a round is one stacked Armijo trial, one _cayley_step call; the loop
    # before the resolution stop made 50.9 per witness, mostly trials f
    # could not resolve, 29.7 before the floor rule and 23.6 with the first
    # Barzilai-Borwein quotient alone.  The bound is 1.15x the 21.65
    # measured with the alternating step
    _, rounds, _ = _counted_sweep(monkeypatch, _witnesses())
    assert rounds / len(_witnesses()) <= 1.15 * 21.65


@lru_cache(maxsize=None)
def _rotated_witnesses():
    """One witness per partition with n = 3..9, in a seeded Haar frame."""
    rng = np.random.default_rng(79)
    return tuple(
        (rotate(random_witness(2 if P.saturating else 1, P, seed=i),
                Frame.random(P.n, rng)), P)
        for i, P in enumerate(
            P for n in range(3, 10) for P in enumerate_partitions(n)
        )
    )


def test_rotated_witness_descent_rounds_stay_few(monkeypatch):
    # a Haar frame hides the witness's blocks, so every restart descends
    # from far off: 60.8 rounds per call with the first Barzilai-Borwein
    # quotient alone.  The bound is 1.15x the 46.65 measured with the
    # alternating step
    _, rounds, _ = _counted_sweep(monkeypatch, _rotated_witnesses())
    assert rounds / len(_rotated_witnesses()) <= 1.15 * 46.65


def _floor_free(monkeypatch):
    """Make ``delta_invariant`` descend with the floor rule off."""
    stacked_descent = delta_mod._stacked_descent

    def floor_free(T, starts, M, max_iters, floor):
        return stacked_descent(T, starts, M, max_iters, -np.inf)

    monkeypatch.setattr(delta_mod, "_stacked_descent", floor_free)


@pytest.mark.parametrize(
    "cases", [_witnesses, _rotated_witnesses], ids=["canonical", "rotated"]
)
def test_floor_rule_keeps_every_result_bit_for_bit(monkeypatch, cases):
    # the floor rule stops only restarts behind an earlier one that reached
    # the certified minimum: the winner, its frame and converged stay the
    # same, bit for bit, in fewer rounds
    new, rounds, _ = _counted_sweep(monkeypatch, cases())
    _floor_free(monkeypatch)
    free, free_rounds, _ = _counted_sweep(monkeypatch, cases())
    for (_, P), a, b in zip(cases(), new, free):
        assert a.value == b.value and a.tau_blocks == b.tau_blocks, P
        assert np.array_equal(a.frame.matrix, b.frame.matrix), P
        assert a.converged == b.converged, P
    assert rounds < free_rounds


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("kind", ["witness", "random"])
def test_floor_above_the_minimum_never_cuts_a_violation_short(kind, n):
    # a floor above the reachable minimum is what a false bound would give:
    # a restart below its band is a violation, and the rule lets it run
    h, P, starts = _descent_case(kind, n, 5)
    T, M, stack = h.dense_view, _block_mask(P), np.stack(starts)
    free = _stacked_descent(T, stack, M, 500, -np.inf)
    # above every start, every restart stays below the band and runs as
    # if there were no floor
    start_f = _block_tau_h(_rotate_dense(T, stack), M)
    above = _stacked_descent(T, stack, M, 500, float(start_f.max()) + 1.0)
    for got, want in zip(above, free):
        assert np.array_equal(got, want), P
    # just above the minimum, restarts pass through the band on the way
    # down; the winner is still the floor-free one
    best = free[0][_earliest_best(free[0].tolist())]
    floor = best + 1e-6 * max(1.0, abs(best))
    got, _, _ = _stacked_descent(T, stack, M, 500, floor)
    won = got[_earliest_best(got.tolist())]
    assert abs(won - best) <= 1e-12 * max(1.0, abs(best)), P


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
    # measured (365.7 with the first quotient alone), fails a stopping rule
    # that runs restarts to max_iters.
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
# continuous optimizer
# ---------------------------------------------------------------------------


def test_optimizer_zero_tensor_matches_oracle():
    h = CubicForm.zero(4)
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
    for n, blocks in [(4, (2,)), (5, (2, 2)), (6, (2, 3))]:
        h = CubicForm.zero(n)
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
        with pytest.raises(ValueError):
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
    h = CubicForm.zero(3)
    P = PartitionSpec(3, (2,))
    assert universal_check(h, 0.0, P, Frame.identity(3)) == pytest.approx(0.0)


def test_universal_check_equality_witness(t1_witness_n3):
    h, P = t1_witness_n3
    gap = universal_check(h, 0.0, P, Frame.identity(3))
    assert gap == pytest.approx(0.0, abs=1e-9)


def test_universal_check_dimension_mismatch(t1_witness_n3):
    h, P = t1_witness_n3
    with pytest.raises(DimensionMismatch):
        universal_check(h, 0.0, P, Frame.identity(4))


def test_universal_check_random_mini_campaign():
    rng = np.random.default_rng(55)
    worst = np.inf
    for _ in range(2000):
        n = int(rng.integers(3, 6))
        parts = enumerate_partitions(n)
        P = parts[int(rng.integers(len(parts)))]
        c = float(rng.choice([-1.0, 0.0, 1.0]))
        h = random_cubic_form(n, 1.0, rng)
        R = Frame.random(n, rng)
        worst = min(worst, universal_check(h, c, P, R))
    assert worst >= -1e-9
