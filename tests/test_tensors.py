"""Tensor storage, frames, and Gauss-equation curvature quantities."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltainv import (
    AmbientConstant,
    ConflictingEntry,
    CubicForm,
    DimensionMismatch,
    EqualIndices,
    FormatError,
    Frame,
    InadmissiblePartition,
    IndexOutOfRange,
    InvariantViolation,
    PartitionSpec,
    RankDeficientFrame,
    UnsupportedDimension,
    enumerate_partitions,
    mean_curvature_sq,
    random_cubic_form,
    rotate,
    scalar_curvature,
    sectional_curvature,
    symmetrize,
    tau_subspace,
)


def full_curvature_oracle(h, c):
    """Brute-force four-slot Gauss tensor R[i,j,k,l] = <R(e_i,e_j)e_k, e_l>-style.

    Independent of the sectional-curvature code path: materializes
    <h(X,W),h(Y,Z)> - <h(X,Z),h(Y,W)> + c(<X,W><Y,Z> - <X,Z><Y,W>)
    on all four slots, with normal-space inner products summed over J e_E.
    """
    n = h.n
    T = h.dense()
    R = np.zeros((n, n, n, n))
    eye = np.eye(n)
    for i, j, k, l in itertools.product(range(n), repeat=4):
        hh = sum(T[i, l, e] * T[j, k, e] - T[i, k, e] * T[j, l, e] for e in range(n))
        R[i, j, k, l] = hh + c * (eye[i, l] * eye[j, k] - eye[i, k] * eye[j, l])
    return R


# ---------------------------------------------------------------------------
# symmetrize and lookup
# ---------------------------------------------------------------------------


def test_symmetrize_sparse_default():
    h = symmetrize({(1, 1, 1): 2.0}, 2)
    assert h.lookup(1, 1, 1) == 2.0
    assert h.lookup(1, 1, 2) == 0.0


def test_symmetrize_permutation_lookup():
    h = symmetrize({(1, 2, 3): 5.0}, 3)
    assert h.lookup(3, 1, 2) == 5.0
    for perm in itertools.permutations((1, 2, 3)):
        assert h.lookup(*perm) == 5.0


def test_symmetrize_conflicting_entries():
    with pytest.raises(ConflictingEntry):
        symmetrize({(1, 2, 3): 5.0, (3, 2, 1): 6.0}, 3)


def test_symmetrize_equal_duplicates_allowed():
    h = symmetrize({(1, 2, 3): 5.0, (3, 2, 1): 5.0}, 3)
    assert h.lookup(2, 1, 3) == 5.0


def test_symmetrize_zero_conflicts_still_detected():
    with pytest.raises(ConflictingEntry):
        symmetrize({(1, 2, 3): 0.0, (3, 2, 1): 5.0}, 3)


def test_symmetrize_fractional_index_rejected():
    with pytest.raises(IndexOutOfRange):
        symmetrize({(1.5, 2, 3): 1.0}, 3)


def test_symmetrize_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        symmetrize({(0, 1, 1): 1.0}, 3)
    with pytest.raises(IndexOutOfRange):
        symmetrize({(1, 2, 4): 1.0}, 3)


def test_non_finite_entry_rejected():
    with pytest.raises(InvariantViolation):
        symmetrize({(1, 1, 1): float("nan")}, 2)


def test_unsupported_dimension():
    with pytest.raises(UnsupportedDimension):
        CubicForm.zero(1)
    with pytest.raises(UnsupportedDimension):
        CubicForm.zero(13)


def test_lookup_roundtrips_canonical_entries():
    rng = np.random.default_rng(11)
    h = random_cubic_form(4, 2.0, rng)
    for triple, value in h.entries.items():
        assert h.lookup(*triple) == value


def test_dense_is_exactly_symmetric():
    rng = np.random.default_rng(3)
    h = random_cubic_form(5, 1.0, rng)
    T = h.dense()
    for p in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        assert np.array_equal(T, T.transpose(p))


def test_from_dense_rejects_asymmetric():
    arr = np.zeros((3, 3, 3))
    arr[0, 1, 2] = 1.0
    with pytest.raises(ConflictingEntry):
        CubicForm.from_dense(arr)


# ---------------------------------------------------------------------------
# rotation
# ---------------------------------------------------------------------------


def test_rotate_identity(t1_witness_n3):
    h, _ = t1_witness_n3
    assert rotate(h, Frame.identity(3)).allclose(h, tol=1e-14)


def test_rotate_swap_permutation():
    h = symmetrize({(1, 1, 1): 1.0}, 2)
    swap = Frame([[0.0, 1.0], [1.0, 0.0]])
    rotated = rotate(h, swap)
    assert rotated.lookup(2, 2, 2) == pytest.approx(1.0, abs=1e-14)
    assert rotated.lookup(1, 1, 1) == pytest.approx(0.0, abs=1e-14)


def test_rotate_inverse_roundtrip():
    rng = np.random.default_rng(5)
    h = random_cubic_form(4, 1.5, rng)
    R = Frame.random(4, rng)
    back = rotate(rotate(h, R), R.transposed())
    assert back.allclose(h, tol=1e-10)


def test_rotate_preserves_frobenius_norm():
    rng = np.random.default_rng(8)
    for n in (3, 4, 6):
        h = random_cubic_form(n, 2.0, rng)
        R = Frame.random(n, rng)
        before = float((h.dense_view ** 2).sum())
        after = float((rotate(h, R).dense_view ** 2).sum())
        assert after == pytest.approx(before, rel=1e-10)


def test_rotate_dimension_mismatch():
    h = CubicForm.zero(3)
    with pytest.raises(DimensionMismatch):
        rotate(h, Frame.identity(4))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        min_size=10,
        max_size=10,
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rotation_invariants_hypothesis(values, frame_seed):
    """Scalar curvature and mean curvature do not depend on the frame."""
    triples = [
        (a, b, c)
        for a in range(1, 4)
        for b in range(a, 4)
        for c in range(b, 4)
    ]
    h = CubicForm(3, dict(zip(triples, values)))
    R = Frame.random(3, np.random.default_rng(frame_seed))
    hr = rotate(h, R)
    assert scalar_curvature(hr, 0.7) == pytest.approx(
        scalar_curvature(h, 0.7), abs=1e-9, rel=1e-9
    )
    assert mean_curvature_sq(hr) == pytest.approx(
        mean_curvature_sq(h), abs=1e-9, rel=1e-9
    )


# ---------------------------------------------------------------------------
# curvature quantities
# ---------------------------------------------------------------------------


def test_mean_curvature_zero_tensor():
    assert mean_curvature_sq(CubicForm.zero(4)) == 0.0


def test_mean_curvature_single_entry():
    h = symmetrize({(1, 1, 1): 2.0}, 2)
    assert mean_curvature_sq(h) == pytest.approx(1.0)


def test_mean_curvature_equality_witness(t1_witness_n3):
    h, _ = t1_witness_n3
    # trace of the residual slice is 1/2 + 1/2 + 2 = 3, giving 9/9
    assert mean_curvature_sq(h) == pytest.approx(1.0, abs=1e-12)


def test_sectional_zero_tensor_gives_c():
    h = CubicForm.zero(3)
    for c in (-1.0, 0.0, 2.5):
        assert sectional_curvature(h, c, 1, 3) == pytest.approx(c)


def test_sectional_curvature_equality_witness(t1_witness_n3):
    h, _ = t1_witness_n3
    assert sectional_curvature(h, 0.0, 1, 2) == pytest.approx(0.25, abs=1e-12)
    assert sectional_curvature(h, 0.0, 1, 3) == pytest.approx(0.75, abs=1e-12)
    assert sectional_curvature(h, 0.0, 2, 3) == pytest.approx(0.75, abs=1e-12)


def test_sectional_curvature_symmetric_in_ij():
    rng = np.random.default_rng(2)
    h = random_cubic_form(5, 1.0, rng)
    for i, j in itertools.combinations(range(1, 6), 2):
        assert sectional_curvature(h, 0.3, i, j) == sectional_curvature(h, 0.3, j, i)


def test_sectional_curvature_errors():
    h = CubicForm.zero(3)
    with pytest.raises(EqualIndices):
        sectional_curvature(h, 0.0, 2, 2)
    with pytest.raises(IndexOutOfRange):
        sectional_curvature(h, 0.0, 1, 4)


def test_sectional_agrees_with_full_curvature_oracle():
    rng = np.random.default_rng(17)
    for n in (3, 4, 5):
        h = random_cubic_form(n, 1.0, rng)
        c = float(rng.uniform(-1, 1))
        R = full_curvature_oracle(h, c)
        for i, j in itertools.combinations(range(n), 2):
            # K(e_i, e_j) = <R(e_i, e_j) e_j, e_i> with slots (i, j, j, i)
            assert sectional_curvature(h, c, i + 1, j + 1) == pytest.approx(
                R[i, j, j, i], abs=1e-12
            )


def test_tau_small_sets_are_zero():
    rng = np.random.default_rng(1)
    h = random_cubic_form(4, 1.0, rng)
    assert tau_subspace(h, 1.0, []) == 0.0
    assert tau_subspace(h, 1.0, [2]) == 0.0


def test_tau_zero_tensor_counts_pairs():
    h = CubicForm.zero(5)
    for m in (2, 3, 5):
        idx = list(range(1, m + 1))
        assert tau_subspace(h, 2.0, idx) == pytest.approx(m * (m - 1))


def test_tau_equality_witness(t1_witness_n3):
    h, _ = t1_witness_n3
    assert tau_subspace(h, 0.0, {1, 2}) == pytest.approx(0.25, abs=1e-12)
    assert tau_subspace(h, 0.0, {1, 2, 3}) == pytest.approx(1.75, abs=1e-12)


def test_tau_additivity_from_pairs():
    rng = np.random.default_rng(23)
    h = random_cubic_form(6, 1.0, rng)
    c = -0.4
    idx = [1, 3, 4, 6]
    expected = sum(
        sectional_curvature(h, c, i, j) for i, j in itertools.combinations(idx, 2)
    )
    assert tau_subspace(h, c, idx) == pytest.approx(expected, abs=1e-10)


def test_scalar_curvature_is_full_tau():
    rng = np.random.default_rng(29)
    h = random_cubic_form(4, 1.0, rng)
    assert scalar_curvature(h, 0.2) == tau_subspace(h, 0.2, range(1, 5))


def test_ambient_constant_validation():
    assert AmbientConstant(0.25).c == 0.25
    with pytest.raises(InvariantViolation):
        AmbientConstant(float("inf"))
    h = CubicForm.zero(3)
    assert sectional_curvature(h, AmbientConstant(1.5), 1, 2) == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


def test_frame_reorthonormalizes_drift():
    rng = np.random.default_rng(41)
    base = Frame.random(5, rng).matrix
    drifted = base + rng.normal(scale=1e-8, size=base.shape)
    F = Frame(drifted)
    gram = F.matrix @ F.matrix.T
    assert np.max(np.abs(gram - np.eye(5))) < 1e-12


def test_frame_rank_deficient_error():
    rows = np.ones((3, 3))
    with pytest.raises(RankDeficientFrame):
        Frame(rows)


def test_frame_random_is_orthogonal():
    rng = np.random.default_rng(7)
    F = Frame.random(6, rng)
    gram = F.matrix @ F.matrix.T
    assert np.max(np.abs(gram - np.eye(6))) < 1e-12


def test_frame_random_orthonormalizes_the_draw_once():
    """The rows are the sign-fixed Q of the Gaussian draw, as they come out
    of one QR; the frame is not orthonormalized a second time."""
    F = Frame.random(6, np.random.default_rng(8))
    G = np.random.default_rng(8).standard_normal((6, 6))
    q, r = np.linalg.qr(G)
    assert np.array_equal(F.matrix, (q * np.sign(np.diag(r))).T)


def test_random_cubic_form_equals_the_checked_constructor():
    """random_cubic_form skips the per-triple checks of CubicForm(n, entries);
    its tensor must be the one those checks build from the same draws."""
    from deltainv.tensors import _canonical_triples

    for n in (2, 3, 7, 12):
        h = random_cubic_form(n, 1.5, np.random.default_rng(n))
        triples = _canonical_triples(n)
        values = np.random.default_rng(n).uniform(-1.5, 1.5, size=len(triples))
        want = CubicForm(n, dict(zip(triples, values)))
        assert np.array_equal(h.dense_view, want.dense_view)
        assert not h.dense_view.flags.writeable


def test_negative_zero_entries_are_stored_as_zero():
    h = CubicForm(3, {(1, 2, 3): -0.0, (1, 1, 1): 2.0})
    assert not np.signbit(h.dense_view).any()
    assert h.entries == {(1, 1, 1): 2.0}


def test_frame_random_accepts_a_nearly_singular_draw():
    class NearlySingular:
        def standard_normal(self, shape):
            G = np.random.default_rng(9).standard_normal(shape)
            G[:, -1] = G[:, 0] - G[:, 1] + 1e-9
            return G

    F = Frame.random(4, NearlySingular())
    assert np.max(np.abs(F.matrix @ F.matrix.T - np.eye(4))) < 1e-12


def test_frame_shape_validation():
    with pytest.raises(DimensionMismatch):
        Frame(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def test_partition_admissibility():
    P = PartitionSpec(5, (2, 3))
    assert P.k == 2 and P.residual == 0 and P.saturating
    assert P.index_blocks == ((1, 2), (3, 4, 5), ())
    Q = PartitionSpec(6, (2, 3))
    assert Q.residual == 1
    assert Q.index_blocks == ((1, 2), (3, 4, 5), (6,))


def test_owner_matches_index_blocks():
    for n in range(2, 13):
        for P in enumerate_partitions(n):
            # contiguous blocks in order, the residual block last
            starts = np.cumsum((1,) + P.blocks)
            ends = np.append(starts[1:], n + 1)
            expected = tuple(tuple(range(s, e)) for s, e in zip(starts, ends))
            assert P.index_blocks == expected
            assert P.owner.tolist() == [
                i for i, block in enumerate(expected) for _ in block
            ]


@pytest.mark.parametrize(
    "n, blocks",
    [
        (4, (3, 2)),      # not sorted
        (4, (1, 2)),      # block below 2
        (4, (4,)),        # block above n-1
        (5, (2, 2, 2)),   # sum above n
        (4, ()),          # empty
        (4, (2.5,)),      # fractional block
        (5, (2, "3")),    # not a number
    ],
)
def test_partition_rejections(n, blocks):
    with pytest.raises(InadmissiblePartition):
        PartitionSpec(n, blocks)


def test_partition_integral_float_blocks_accepted():
    P = PartitionSpec(4, (2.0,))
    assert P.blocks == (2,) and type(P.blocks[0]) is int


def test_enumerate_partitions_small_n():
    assert enumerate_partitions(2) == []  # no admissible blocks at n=2
    assert [p.blocks for p in enumerate_partitions(3)] == [(2,)]
    got4 = {p.blocks for p in enumerate_partitions(4)}
    assert got4 == {(2,), (3,), (2, 2)}
    got5 = {p.blocks for p in enumerate_partitions(5)}
    assert got5 == {(2,), (3,), (4,), (2, 2), (2, 3)}


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def test_json_roundtrip():
    rng = np.random.default_rng(99)
    h = random_cubic_form(4, 1.0, rng)
    again = CubicForm.from_json_dict(h.to_json_dict())
    assert again.entries == h.entries


def test_json_duplicate_triple_rejected():
    data = {
        "n": 3,
        "entries": [
            {"idx": [1, 2, 3], "value": 1.0},
            {"idx": [1, 2, 3], "value": 1.0},
        ],
    }
    with pytest.raises(ConflictingEntry):
        CubicForm.from_json_dict(data)


def test_json_permutation_conflict_rejected():
    data = {
        "n": 3,
        "entries": [
            {"idx": [1, 2, 3], "value": 1.0},
            {"idx": [3, 2, 1], "value": 2.0},
        ],
    }
    with pytest.raises(ConflictingEntry):
        CubicForm.from_json_dict(data)


@pytest.mark.parametrize(
    "data",
    [
        [],
        {"entries": []},
        {"n": 3, "entries": [{"idx": [1, 2], "value": 1.0}]},
        {"n": 3, "entries": [{"idx": [1, 2, 3]}]},
        {"n": 3, "entries": [{"idx": [1, 2, 3], "value": "x"}]},
        {"n": "three", "entries": []},
    ],
)
def test_json_malformed_inputs(data):
    with pytest.raises((FormatError, IndexOutOfRange)):
        CubicForm.from_json_dict(data)
