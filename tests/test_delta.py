"""Coordinate oracle, continuous optimizer, and the universal gap check."""

import itertools

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
    random_cubic_form,
    random_witness,
    rotate,
    shared_b,
    tau_subspace,
    universal_check,
)
from deltainv.delta import (
    _block_tau_h,
    _cayley_step,
    _grad_skew,
    _leading_blocks0,
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
        blocks0 = _leading_blocks0(P)
        R = Frame.random(n, rng).matrix
        H = _rotate_dense(h.dense_view, R)
        A = _grad_skew(H, blocks0)
        for _ in range(4):
            S = rng.standard_normal((n, n))
            S = S - S.T
            eps = 1e-6
            fp = _block_tau_h(
                _rotate_dense(h.dense_view, _cayley_step(R, S, eps)), blocks0
            )
            fm = _block_tau_h(
                _rotate_dense(h.dense_view, _cayley_step(R, S, -eps)), blocks0
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
    res = delta_invariant(h, 0.0, P, OptimizerOptions(restarts=2, max_iters=1, tol=0.0))
    assert not res.converged
    assert np.isfinite(res.value)


def test_optimizer_options_validation():
    with pytest.raises(ValueError):
        OptimizerOptions(restarts=0)
    with pytest.raises(ValueError):
        OptimizerOptions(max_iters=0)


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
