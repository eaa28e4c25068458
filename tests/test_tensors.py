"""Tensor storage, frames, and Gauss-equation curvature quantities."""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltainv import (
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
    tau_subspace,
)
from deltainv.bounds import evaluate
from deltainv.cli import main
from deltainv.delta import delta_coordinate_oracle, delta_invariant, universal_check
from deltainv.tensors import _as_real_array, _haar_rows, ambient_value


def full_curvature_oracle(h, c):
    """Brute-force four-slot Gauss tensor R[i,j,k,l] = <R(e_i,e_j)e_k, e_l>-style.

    Independent of the sectional-curvature code path: materializes
    <h(X,W),h(Y,Z)> - <h(X,Z),h(Y,W)> + c(<X,W><Y,Z> - <X,Z><Y,W>)
    on all four slots, with normal-space inner products summed over J e_E.
    """
    n = h.n
    T = h.dense_view
    R = np.zeros((n, n, n, n))
    eye = np.eye(n)
    for i, j, k, l in itertools.product(range(n), repeat=4):
        hh = sum(T[i, l, e] * T[j, k, e] - T[i, k, e] * T[j, l, e] for e in range(n))
        R[i, j, k, l] = hh + c * (eye[i, l] * eye[j, k] - eye[i, k] * eye[j, l])
    return R


# ---------------------------------------------------------------------------
# construction and lookup
# ---------------------------------------------------------------------------


def test_symmetrize_sparse_default():
    h = CubicForm(2, {(1, 1, 1): 2.0})
    assert h.lookup(1, 1, 1) == 2.0
    assert h.lookup(1, 1, 2) == 0.0


def test_symmetrize_permutation_lookup():
    h = CubicForm(3, {(1, 2, 3): 5.0})
    assert h.lookup(3, 1, 2) == 5.0
    for perm in itertools.permutations((1, 2, 3)):
        assert h.lookup(*perm) == 5.0


def test_symmetrize_conflicting_entries():
    with pytest.raises(ConflictingEntry):
        CubicForm(3, {(1, 2, 3): 5.0, (3, 2, 1): 6.0})


def test_symmetrize_equal_duplicates_allowed():
    h = CubicForm(3, {(1, 2, 3): 5.0, (3, 2, 1): 5.0})
    assert h.lookup(2, 1, 3) == 5.0


def test_symmetrize_zero_conflicts_still_detected():
    with pytest.raises(ConflictingEntry):
        CubicForm(3, {(1, 2, 3): 0.0, (3, 2, 1): 5.0})


def test_symmetrize_fractional_index_rejected():
    with pytest.raises(IndexOutOfRange):
        CubicForm(3, {(1.5, 2, 3): 1.0})


@pytest.mark.parametrize("index", [True, "2", 1.5, float("inf")])
def test_index_must_be_an_integer_everywhere(index):
    # the constructor, lookup and the JSON loader read indices one way
    h = CubicForm(3, {(1.0, 2, 3): 0.5})
    assert h.lookup(np.int64(3), 2.0, 1) == 0.5
    with pytest.raises(IndexOutOfRange):
        CubicForm(3, {(index, 2, 3): 0.5})
    with pytest.raises(IndexOutOfRange):
        h.lookup(index, 2, 3)
    with pytest.raises(IndexOutOfRange):
        CubicForm.from_json_dict({"n": 3, "entries": [{"idx": [index, 2, 3], "value": 0.5}]})


class _UnprintableKey(tuple):
    def __repr__(self):
        raise AssertionError("an error message was built for a valid triple")


def test_valid_triples_build_no_error_text():
    h = CubicForm(3, {_UnprintableKey((1, 2, 3)): 0.5})
    assert h.lookup(3, 2, 1) == 0.5
    # the text is still there for a real error
    with pytest.raises(IndexOutOfRange, match=r"index 4 outside 1\.\.3 in triple \(1, 2, 4\)"):
        CubicForm(3, {(1, 2, 4): 0.5})


def test_symmetrize_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        CubicForm(3, {(0, 1, 1): 1.0})
    with pytest.raises(IndexOutOfRange):
        CubicForm(3, {(1, 2, 4): 1.0})


def test_non_finite_entry_rejected():
    with pytest.raises(InvariantViolation):
        CubicForm(2, {(1, 1, 1): float("nan")})


def test_unsupported_dimension():
    with pytest.raises(UnsupportedDimension):
        CubicForm(1)
    with pytest.raises(UnsupportedDimension):
        CubicForm(13)


def test_lookup_roundtrips_canonical_entries():
    rng = np.random.default_rng(11)
    h = random_cubic_form(4, 2.0, rng)
    for triple, value in h.entries.items():
        assert h.lookup(*triple) == value


def test_dense_is_exactly_symmetric():
    rng = np.random.default_rng(3)
    h = random_cubic_form(5, 1.0, rng)
    T = h.dense_view
    for p in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        assert np.array_equal(T, T.transpose(p))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_from_dense_keeps_a_symmetric_array_bit_for_bit(n, k, seed):
    # a power of two scales exactly, so the array stays exactly symmetric
    h = random_cubic_form(n, 2.0**k, np.random.default_rng(seed))
    assert np.array_equal(CubicForm.from_dense(h.dense_view).dense_view, h.dense_view)


def test_from_dense_keeps_a_constant_array():
    # a six-term average would give 0.09999999999999999 here
    assert np.all(CubicForm.from_dense(np.full((3, 3, 3), 0.1)).dense_view == 0.1)


def test_from_dense_near_the_float_limit():
    arr = np.full((2, 2, 2), 1.5e308)
    arr[1, 1, 1] = -1.7e308
    assert np.array_equal(CubicForm.from_dense(arr).dense_view, arr)


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
    assert np.max(np.abs(rotate(h, Frame.identity(3)).dense_view - h.dense_view)) <= 1e-14


def test_rotate_swap_permutation():
    h = CubicForm(2, {(1, 1, 1): 1.0})
    swap = Frame([[0.0, 1.0], [1.0, 0.0]])
    rotated = rotate(h, swap)
    assert rotated.lookup(2, 2, 2) == pytest.approx(1.0, abs=1e-14)
    assert rotated.lookup(1, 1, 1) == pytest.approx(0.0, abs=1e-14)


def test_rotate_inverse_roundtrip():
    # rotate reads its result through from_dense's fixed 1e-8 symmetry
    # tolerance: a rotation's roundoff stays far below it at every n and
    # at scales near both ends of the float range
    rng = np.random.default_rng(5)
    for n in range(2, 13):
        for k in (-900, -300, 0, 300, 900):
            h = random_cubic_form(n, 2.0**k, rng)
            for _ in range(3):
                R = Frame.random(n, rng)
                back = rotate(rotate(h, R), Frame(R.matrix.T))
                scale = max(1.0, float(np.max(np.abs(h.dense_view))))
                assert np.max(np.abs(back.dense_view - h.dense_view)) <= 1e-10 * scale


def test_rotate_preserves_frobenius_norm():
    rng = np.random.default_rng(8)
    for n in (3, 4, 6):
        h = random_cubic_form(n, 2.0, rng)
        R = Frame.random(n, rng)
        before = float((h.dense_view ** 2).sum())
        after = float((rotate(h, R).dense_view ** 2).sum())
        assert after == pytest.approx(before, rel=1e-10)


def test_rotate_dimension_mismatch():
    h = CubicForm(3)
    with pytest.raises(DimensionMismatch):
        rotate(h, Frame.identity(4))


def test_rotate_and_universal_check_share_the_frame_rule():
    h, R = CubicForm(3), Frame.identity(4)
    with pytest.raises(DimensionMismatch) as rotated:
        rotate(h, R)
    with pytest.raises(DimensionMismatch) as checked:
        universal_check(h, PartitionSpec(3, (2,)), R)
    assert str(rotated.value) == str(checked.value) == "frame n=4 does not match tensor n=3"


def test_random_cubic_form_reads_its_dimension():
    with pytest.raises(UnsupportedDimension):
        random_cubic_form(1.5, 1.0, np.random.default_rng(0))
    a = random_cubic_form(5.0, 1.0, np.random.default_rng(3))
    b = random_cubic_form(5, 1.0, np.random.default_rng(3))
    assert a.n == 5 and np.array_equal(a.dense_view, b.dense_view)


@pytest.mark.parametrize(
    "scale", [float("nan"), float("inf"), 1e308, -1, 0, True, "1", None],
    ids=["nan", "inf", "1e308", "negative", "zero", "true", "string", "none"],
)
def test_random_cubic_form_refuses_a_bad_scale(scale):
    # 0 once drew the zero tensor; nan, inf, 1e308 and -1 raised from numpy
    rng = np.random.default_rng(0)
    with pytest.raises(FormatError, match="scale must be"):
        random_cubic_form(4, scale, rng)


@pytest.mark.parametrize("t", ["a", None, True], ids=["string", "none", "true"])
def test_scaled_refuses_a_factor_that_is_not_a_number(t):
    with pytest.raises(FormatError, match="t must be a number"):
        CubicForm(3, {(1, 1, 1): 1.0}).scaled(t)


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
    assert mean_curvature_sq(CubicForm(4)) == 0.0


def test_mean_curvature_single_entry():
    h = CubicForm(2, {(1, 1, 1): 2.0})
    assert mean_curvature_sq(h) == pytest.approx(1.0)


def test_mean_curvature_equality_witness(t1_witness_n3):
    h, _ = t1_witness_n3
    # trace of the residual slice is 1/2 + 1/2 + 2 = 3, giving 9/9
    assert mean_curvature_sq(h) == pytest.approx(1.0, abs=1e-12)


def test_sectional_zero_tensor_gives_c():
    h = CubicForm(3)
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
    h = CubicForm(3)
    with pytest.raises(EqualIndices):
        sectional_curvature(h, 0.0, 2, 2)
    with pytest.raises(IndexOutOfRange):
        sectional_curvature(h, 0.0, 1, 4)


@pytest.mark.parametrize("index", [1.5, True, "a", 0, 4],
                         ids=["fraction", "bool", "string", "zero", "n+1"])
def test_curvature_indices_read_like_triple_indices(index):
    # 1.5 was truncated to 1, True counted as 1, and "a" escaped as ValueError
    h = random_cubic_form(3, 1.0, np.random.default_rng(0))
    with pytest.raises(IndexOutOfRange):
        tau_subspace(h, 0.0, [index, 2, 3])
    with pytest.raises(IndexOutOfRange):
        sectional_curvature(h, 0.0, index, 2)
    with pytest.raises(IndexOutOfRange):
        sectional_curvature(h, 0.0, 2, index)


@pytest.mark.parametrize("indices", [5, None, 2.0], ids=["int", "none", "float"])
def test_tau_subspace_refuses_a_non_collection(indices):
    h = random_cubic_form(3, 1.0, np.random.default_rng(0))
    with pytest.raises(FormatError, match="the subspace must list its indices"):
        tau_subspace(h, 0.0, indices)


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
    h = CubicForm(5)
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
    for c in (0.25, 1, np.float64(0.5), np.int64(-2), Fraction(1, 4)):
        assert type(ambient_value(c)) is float and ambient_value(c) == c
    with pytest.raises(InvariantViolation):
        ambient_value(float("inf"))
    h = CubicForm(3)
    assert sectional_curvature(h, 1.5, 1, 2) == pytest.approx(1.5)


_C_READERS = {
    "ambient_value": lambda h, P, c: ambient_value(c),
    "sectional_curvature": lambda h, P, c: sectional_curvature(h, c, 1, 2),
    "tau_subspace": lambda h, P, c: tau_subspace(h, c, (1, 2)),
    "scalar_curvature": lambda h, P, c: scalar_curvature(h, c),
    "oracle": lambda h, P, c: delta_coordinate_oracle(h, c, P),
    "delta_invariant": lambda h, P, c: delta_invariant(h, c, P),
    "evaluate": lambda h, P, c: evaluate(h, c, P),
}


@pytest.mark.parametrize("c", [True, "0.5", "x", None], ids=["true", "0.5", "x", "none"])
@pytest.mark.parametrize("reader", sorted(_C_READERS))
def test_ambient_constant_that_is_not_a_number_is_refused(reader, c):
    # float(True) is 1.0 and float("0.5") is 0.5: neither may run as c
    h = random_cubic_form(3, 1.0, np.random.default_rng(5))
    with pytest.raises(InvariantViolation, match="ambient constant must be a number"):
        _C_READERS[reader](h, PartitionSpec(3, (2,)), c)


@pytest.mark.parametrize("value", [True, "2", "x", None], ids=["true", "2", "x", "none"])
def test_entry_value_that_is_not_a_number_is_refused(value):
    # CubicForm reads entry values by the rule of its JSON loader
    with pytest.raises(FormatError, match="entry value must be a number"):
        CubicForm(3, {(1, 1, 1): value})
    with pytest.raises(FormatError, match="entry value must be a number"):
        CubicForm.from_json_dict({"n": 3, "entries": [{"idx": [1, 1, 1], "value": value}]})


def test_entry_values_are_stored_as_floats():
    h = CubicForm(3, {(1, 1, 1): 2, (1, 2, 3): np.float32(0.5), (2, 2, 2): np.int64(-1)})
    assert h.entries == {(1, 1, 1): 2.0, (1, 2, 3): 0.5, (2, 2, 2): -1.0}
    assert all(type(v) is float for v in h.entries.values())


def test_numpy_integer_dimension_is_read_as_an_int():
    P = PartitionSpec(np.int64(4), (np.int64(2),))
    assert P == PartitionSpec(4, (2,)) and type(P.n) is int
    assert enumerate_partitions(np.int64(4)) == enumerate_partitions(4)
    assert CubicForm(np.int64(3)).n == 3 and type(CubicForm(np.int64(3)).n) is int
    for bad in (3.5, True, "3"):
        with pytest.raises(UnsupportedDimension, match="dimension must be an integer"):
            PartitionSpec(bad, (2,))


def test_real_array_reader_raises_the_given_error():
    with pytest.raises(InvariantViolation, match="an entry of v must be a number"):
        _as_real_array([1.0, "x"], "v", InvariantViolation)
    with pytest.raises(InvariantViolation, match="do not form a regular array"):
        _as_real_array([[1.0], [1.0, 2.0]], "v", InvariantViolation)
    with pytest.raises(FormatError):
        _as_real_array([True], "v")


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
    for n in (2, 3, 7, 12):
        h = random_cubic_form(n, 1.5, np.random.default_rng(n))
        triples = list(itertools.combinations_with_replacement(range(1, n + 1), 3))
        values = np.random.default_rng(n).uniform(-1.5, 1.5, size=len(triples))
        want = CubicForm(n, dict(zip(triples, values)))
        assert np.array_equal(h.dense_view, want.dense_view)
        assert not h.dense_view.flags.writeable


def test_negative_zero_entries_are_stored_as_zero():
    h = CubicForm(3, {(1, 2, 3): -0.0, (1, 1, 1): 2.0})
    assert not np.signbit(h.dense_view).any()
    assert h.entries == {(1, 1, 1): 2.0}


def _has_negative_zero(arr):
    return bool((np.signbit(arr) & (arr == 0.0)).any())


def test_frames_carry_no_negative_zero(tmp_path, capsys, t1_witness_n3):
    # the QR's sign fix would leave -0.0 where it flips a zero; frames store
    # every zero as +0.0, as tensors do, so the CLI prints no "-0.0"
    rng = np.random.default_rng(17)
    for n in range(2, 13):
        assert not _has_negative_zero(Frame.identity(n).matrix), n
        assert not _has_negative_zero(Frame.random(n, rng).matrix), n
        # a draw with a zero row below the diagonal gives Q exact zeros
        gauss = rng.standard_normal((3, n, n))
        gauss[:, 1:, 0] = 0.0
        assert not _has_negative_zero(_haar_rows(gauss)), n
    h, _ = t1_witness_n3
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(h.to_json_dict()))
    for command in ("delta", "verify"):
        assert main([command, str(path), "--partition", "2", "--restarts", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        frame = np.array((out["delta"] if command == "verify" else out)["frame"])
        assert np.array_equal(frame, np.eye(3)), command
        assert not _has_negative_zero(frame), command


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


def test_json_load_equals_the_constructor():
    # the loader checks each triple once and skips the constructor's checks:
    # permuted triples, an integer value and -0.0 load as the constructor
    # reads them
    h = random_cubic_form(12, 1.0, np.random.default_rng(12))
    entries = {(c, a, b): v for (a, b, c), v in h.entries.items()}
    entries[(2, 1, 1)] = 3
    entries[(12, 12, 12)] = -0.0
    data = {
        "n": 12,
        "entries": [{"idx": list(k), "value": v} for k, v in entries.items()],
    }
    loaded, built = CubicForm.from_json_dict(data), CubicForm(12, entries)
    assert np.array_equal(loaded.dense_view, built.dense_view)
    assert np.array_equal(np.signbit(loaded.dense_view), np.signbit(built.dense_view))
    assert loaded.entries == built.entries


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_non_finite_value_rejected(value):
    data = {"n": 3, "entries": [{"idx": [1, 2, 3], "value": value}]}
    with pytest.raises(InvariantViolation):
        CubicForm.from_json_dict(data)


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
