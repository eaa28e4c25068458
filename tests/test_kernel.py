"""The sectional-curvature kernel K against slice-based reference sums.

Every Gauss-equation quantity comes from ``_sectional_matrix``: tau is
half the sum of K over a slab, and the descent weighs K with a 0/1 block
mask, zero on the diagonal, and reads that sum from the trace of its
gradient product (``_grad_skew``).  ``_ricci``, K's row sums on its
diagonal, gives tau less tau of a hyperplane.  The references below sum
the same terms from slices of T, one block at a time; the summation order
differs, so values agree to 1e-12 relative (floored at 1, the scale of the
random entries), not bit for bit.
K contracts slot 3 with itself, so the descent and every gap rotate only
slots 1 and 2 (``_rotate_two_slots``); the full rotation is the reference
there.
"""

import numpy as np
import pytest

import deltainv.delta
import deltainv.tensors
from deltainv import (
    Frame,
    enumerate_partitions,
    random_cubic_form,
    scalar_curvature,
    sectional_curvature,
    universal_check,
)
from deltainv.bounds import optimal_coefficients, rhs_value
from deltainv.delta import (
    _block_mask,
    _block_tau_h,
    _cayley_step,
    _gap_terms,
    _grad_skew,
)
from deltainv.errors import RankDeficientFrame
from deltainv.tensors import (
    _orthonormalize_rows,
    _ricci,
    _rotate_dense,
    _rotate_two_slots,
    _sectional_matrix,
    _tau_dense,
    mean_curvature_sq,
)

RTOL = 1e-12
# two-slot gap against the full rotation, in units of n^2 max(1, max|h|)^2
GAP_TOL = 4e-15
C_VALUES = (-1.0, 0.0, 0.5)


def _close(value, ref):
    scale = max(1.0, float(np.max(np.abs(ref))))
    return float(np.max(np.abs(np.asarray(value) - ref))) <= RTOL * scale


# ---------------------------------------------------------------------------
# slice-based references
# ---------------------------------------------------------------------------


def _tau_sliced(T, idx0, cval):
    """Sum of K over pairs inside idx0, from slices of T."""
    m = len(idx0)
    if m < 2:
        return 0.0
    d = T[idx0, idx0, :]
    s = d.sum(axis=0)
    sub = T[np.ix_(idx0, idx0)]
    hpart = 0.5 * (float(s @ s) - float((sub * sub).sum()))
    return hpart + cval * (m * (m - 1) // 2)


def _leading_blocks0(P):
    return [np.asarray(block) - 1 for block in P.index_blocks[: P.k]]


def _block_tau_h_sliced(H, blocks0):
    """h-dependent part of sum_i tau(block_i), one block at a time."""
    total = 0.0
    for idx in blocks0:
        d = H[idx, idx, :]
        s = d.sum(axis=0)
        sub = H[np.ix_(idx, idx)]
        total += 0.5 * (float(s @ s) - float((sub * sub).sum()))
    return total


def _grad_skew_sliced(H, blocks0):
    """Skew gradient of the block sums, W assembled one block at a time."""
    W = np.zeros_like(H)
    for idx in blocks0:
        d = H[idx, idx, :]
        s = d.sum(axis=0)
        W[np.ix_(idx, idx)] -= H[np.ix_(idx, idx)]
        W[idx, idx, :] += s[None, :]
    G = (
        np.einsum("abc,xbc->ax", W, H)
        + np.einsum("abc,axc->bx", W, H)
        + np.einsum("abc,abx->cx", W, H)
    )
    return G - G.T


def _three_slot_grad_skew(H, M):
    """The former ``_grad_skew``: W contracted with H in all three slots,
    the first two as one doubled term; the slot-3 term is symmetric up to
    rounding, so its skew part adds nothing."""
    n = H.shape[-1]
    W = -M[:, :, None] * H
    np.einsum("...iic->...ic", W)[...] += M @ np.einsum("...iic->...ic", H)
    rows = H.shape[:-3] + (n, n * n)
    cols = H.shape[:-3] + (n * n, n)
    G = 2.0 * (W.reshape(rows) @ H.reshape(rows).swapaxes(-1, -2))
    G += W.reshape(cols).swapaxes(-1, -2) @ H.reshape(cols)
    return G - G.swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 13))
def test_tau_and_sectional_curvature_match_slices(n):
    rng = np.random.default_rng([31, n])
    for _ in range(3):
        h = random_cubic_form(n, 1.0, rng)
        T = h.dense_view
        for cval in C_VALUES:
            for m in range(n + 1):
                idx0 = sorted(rng.choice(n, size=m, replace=False).tolist())
                assert _close(_tau_dense(T, idx0, cval), _tau_sliced(T, idx0, cval))
            assert _close(
                scalar_curvature(h, cval), _tau_sliced(T, list(range(n)), cval)
            )
            i, j = rng.choice(n, size=2, replace=False)
            ref = cval + T[i, i, :] @ T[j, j, :] - T[i, j, :] @ T[i, j, :]
            assert _close(sectional_curvature(h, cval, i + 1, j + 1), ref)


@pytest.mark.parametrize("n", range(2, 13))
def test_ricci_is_row_sums_of_K_rotates_and_gives_the_hyperplane_drop(n):
    rng = np.random.default_rng([53, n])
    for _ in range(3):
        T = random_cubic_form(n, 1.0, rng).dense_view
        ric = _ricci(T)
        assert _close(np.diag(ric), _sectional_matrix(T).sum(axis=1))
        R = Frame.random(n, rng).matrix
        H = _rotate_dense(T, R)
        assert _close(_ricci(H), R @ ric @ R.T)
        # tau less tau of u^perp, u the last row of the frame R
        u = R[-1]
        for cval in C_VALUES:
            drop = _tau_dense(H, range(n), cval) - _tau_dense(H, range(n - 1), cval)
            assert _close(drop, u @ ric @ u + (n - 1) * cval)


@pytest.mark.parametrize(
    "P",
    [P for n in range(3, 7) for P in enumerate_partitions(n)],
    ids=lambda P: f"n{P.n}-{P.label()}",
)
def test_mask_objective_gradient_and_gap_match_block_loops(P):
    rng = np.random.default_rng([37, P.n, *P.blocks])
    M = _block_mask(P)
    blocks0 = _leading_blocks0(P)
    for _ in range(4):
        h = random_cubic_form(P.n, 1.0, rng)
        R = Frame.random(P.n, rng)
        H = _rotate_dense(h.dense_view, R.matrix)
        f, A = _grad_skew(H, M)
        assert _close(_block_tau_h(H, M), _block_tau_h_sliced(H, blocks0))
        assert _close(f, _block_tau_h_sliced(H, blocks0))
        assert _close(A, _grad_skew_sliced(H, blocks0))
        for cval in C_VALUES:
            rhs = rhs_value(optimal_coefficients(P), mean_curvature_sq(h), cval)
            ref = rhs - (
                _tau_sliced(h.dense_view, list(range(P.n)), cval)
                - sum(_tau_sliced(H, list(idx), cval) for idx in blocks0)
            )
            assert _close(universal_check(h, P, R), ref)



@pytest.mark.parametrize("n", range(2, 13))
def test_stacked_kernels_match_per_slice_calls(n):
    rng = np.random.default_rng([41, n])
    s = 5
    T = np.stack([random_cubic_form(n, 1.0, rng).dense_view for _ in range(s)])
    G = rng.standard_normal((s, n, n))
    Q = _orthonormalize_rows(G)
    H = _rotate_dense(T, Q)
    K = _sectional_matrix(H)
    for k in range(s):
        assert _close(Q[k], _orthonormalize_rows(G[k]))
        assert _close(Q[k] @ Q[k].T, np.eye(n))
        assert _close(H[k], _rotate_dense(T[k], Q[k]))
        ref = np.einsum("Aa,Bb,Cc,abc->ABC", Q[k], Q[k], Q[k], T[k])
        assert _close(H[k], ref)
        assert _close(K[k], _sectional_matrix(H[k]))


@pytest.mark.parametrize("n", range(3, 13))
def test_descent_kernels_on_a_stack_of_frames_match_per_frame_calls(n):
    rng = np.random.default_rng([47, n])
    s = 4
    P = enumerate_partitions(n)[-1]
    M = _block_mask(P)
    blocks0 = _leading_blocks0(P)
    T = random_cubic_form(n, 1.0, rng).dense_view
    Q = _orthonormalize_rows(rng.standard_normal((s, n, n)))
    S = rng.standard_normal((s, n, n))
    S = S - S.swapaxes(-1, -2)
    t = rng.uniform(0.1, 2.0, s)
    H = _rotate_dense(T, Q)
    (f, A), C = _grad_skew(H, M), _cayley_step(Q, S, t)
    for k in range(s):
        assert _close(H[k], _rotate_dense(T, Q[k]))
        assert _close(f[k], _block_tau_h_sliced(H[k], blocks0))
        assert _close(_block_tau_h(H, M)[k], _block_tau_h_sliced(H[k], blocks0))
        assert _close(A[k], _grad_skew_sliced(H[k], blocks0))
        assert _close(C[k], _cayley_step(Q[k], S[k], t[k]))


@pytest.mark.parametrize("n", range(3, 13))
def test_two_slot_rotation_keeps_K_objective_and_gradient(n):
    # K, the block taus and the skew gradient never see slot 3 turn: the
    # two-slot rotation gives those of the full one, on one frame and on a
    # stack, and the gradient matches the former three-slot one
    rng = np.random.default_rng([59, n])
    s = 4
    for P in (enumerate_partitions(n)[0], enumerate_partitions(n)[-1]):
        M = _block_mask(P)
        T = random_cubic_form(n, 1.0, rng).dense_view
        Q = _orthonormalize_rows(rng.standard_normal((s, n, n)))
        for R in (Q, Q[0]):
            full, two = _rotate_dense(T, R), _rotate_two_slots(T, R)
            assert two.shape == full.shape
            assert _close(_sectional_matrix(two), _sectional_matrix(full))
            assert _close(_block_tau_h(two, M), _block_tau_h(full, M))
            former = _three_slot_grad_skew(full, M)
            assert _close(_grad_skew(two, M)[1], former)
            assert _close(_grad_skew(full, M)[1], former)
        ref = np.einsum("Aa,Bb,abc->ABc", Q[1], Q[1], T)
        assert _close(_rotate_two_slots(T, Q)[1], ref)


def _mask_with_diagonal(P):
    """The former block mask, from the index blocks: 1 where i and j, equal
    or not, lie in one leading block."""
    M = np.zeros((P.n, P.n))
    for idx in _leading_blocks0(P):
        M[np.ix_(idx, idx)] = 1.0
    return M


@pytest.mark.parametrize("n", range(3, 13))
def test_gradient_pass_f_is_the_K_form_of_the_block_taus(n):
    # 1/2 tr G of the gradient pass against 1/2 <M, K>, on every partition of
    # n, one frame and a stack, rotated in two slots and in all three
    rng = np.random.default_rng([71, n])
    s = 4
    for P in enumerate_partitions(n):
        M = _block_mask(P)
        T = random_cubic_form(n, 1.0, rng).dense_view
        Q = _orthonormalize_rows(rng.standard_normal((s, n, n)))
        for R in (Q, Q[0]):
            for H in (_rotate_two_slots(T, R), _rotate_dense(T, R)):
                f, _ = _grad_skew(H, M)
                ref = _block_tau_h(H, M)
                assert np.shape(f) == np.shape(ref)
                scale = np.maximum(1.0, np.abs(ref))
                assert (np.abs(f - ref) <= 1e-13 * scale).all(), P


def _einsum_sectional_matrix(T):
    """``_sectional_matrix`` as it read its diagonals before, through einsum
    views; the strided views must give its K bit for bit."""
    D = np.einsum("...iic->...ic", T)
    K = D @ D.swapaxes(-1, -2) - np.einsum("...ijc,...ijc->...ij", T, T)
    np.einsum("...ii->...i", K)[...] = 0.0
    return K


def _einsum_grad_skew(H, M):
    """``_grad_skew`` as it read and wrote W's diagonal before, through
    einsum views."""
    n = H.shape[-1]
    W = -M[:, :, None] * H
    np.einsum("...iic->...ic", W)[...] += M @ np.einsum("...iic->...ic", H)
    rows = H.shape[:-3] + (n, n * n)
    G = W.reshape(rows) @ H.reshape(rows).swapaxes(-1, -2)
    return 0.5 * np.einsum("...ii->...", G), 2.0 * (G - G.swapaxes(-1, -2))


@pytest.mark.parametrize("n", range(2, 13))
def test_strided_diagonals_give_the_einsum_kernels_bit_for_bit(n):
    # every layout the callers pass: one tensor, a stack, the slab copies
    # T[S, S, :] of _tau_dense and sectional_curvature, stacked slabs; and a
    # strided stack, which the reshape copies
    rng = np.random.default_rng([89, n])
    T = random_cubic_form(n, 1.0, rng).dense_view
    stack = np.stack([random_cubic_form(n, 1.0, rng).dense_view for _ in range(4)])
    layouts = [T, stack, stack[::2]]
    for m in range(1, n + 1):
        idx = np.sort(rng.choice(n, size=m, replace=False))
        layouts += [T[idx[:, None], idx], T[np.ix_(idx, idx)], stack[:, idx][:, :, idx]]
    for X in layouts:
        assert np.array_equal(_sectional_matrix(X), _einsum_sectional_matrix(X))
    # the gradient pass on one rotated tensor and on (r, n, n, n) stacks
    Q = _orthonormalize_rows(rng.standard_normal((5, n, n)))
    for P in enumerate_partitions(n):
        M = _block_mask(P)
        for H in (
            _rotate_two_slots(T, Q[0]),
            _rotate_two_slots(T, Q),
            _rotate_dense(T, Q[1]),
            _rotate_dense(T, Q),
            stack,
        ):
            f, A = _grad_skew(H, M)
            ref_f, ref_A = _einsum_grad_skew(H, M)
            assert np.array_equal(f, ref_f) and np.array_equal(A, ref_A), P


def test_block_mask_is_cached_and_read_only():
    # every caller shares one mask per partition, so none may write to it
    P = enumerate_partitions(5)[-1]
    M = _block_mask(P)
    assert _block_mask(P) is M
    assert not M.flags.writeable
    with pytest.raises(ValueError):
        M[0, 1] = 0.0


def test_block_mask_has_a_zero_diagonal():
    # every admissible P with n <= 12: only pairs i != j in a leading block
    for n in range(3, 13):
        for P in enumerate_partitions(n):
            M = _block_mask(P)
            assert not np.diag(M).any(), P
            off_diagonal = _mask_with_diagonal(P)
            np.fill_diagonal(off_diagonal, 0.0)
            assert np.array_equal(M, off_diagonal), P


@pytest.mark.parametrize("n", range(3, 9))
def test_gap_terms_and_universal_check_ignore_the_mask_diagonal(n):
    # K's diagonal is exactly zero, so the gap of the former mask, which
    # carried M_ii = 1 on the leading blocks, is the same bit for bit
    rng = np.random.default_rng([73, n])
    for P in enumerate_partitions(n):
        a, off_block = _gap_terms(P)
        assert a == float(optimal_coefficients(P).a)
        former_off = 1.0 - _mask_with_diagonal(P)
        outside = ~np.eye(n, dtype=bool)
        assert np.array_equal(off_block[outside], former_off[outside])
        for _ in range(3):
            h = random_cubic_form(n, 1.0, rng)
            R = Frame.random(n, rng)
            K = _sectional_matrix(_rotate_two_slots(h.dense_view, R.matrix))
            gap = a * mean_curvature_sq(h) - 0.5 * float(np.vdot(former_off, K))
            assert universal_check(h, P, R) == gap, P


def test_mean_curvature_sq_keeps_the_digits_of_the_einsum_traces():
    # the descent's floor reads |H|^2, so a new way to take the traces must
    # not move a digit of delta
    rng = np.random.default_rng(83)
    for n in range(2, 13):
        for _ in range(20):
            h = random_cubic_form(n, 1.0, rng)
            traces = np.einsum("aac->c", h.dense_view)
            assert mean_curvature_sq(h) == float(traces @ traces) / n**2, n


def _gap_rotated_in_full(h, P, R):
    """The gap from the full rotation and a product summed with .sum()."""
    a, off_block = _gap_terms(P)
    traces = np.einsum("aac->c", h.dense_view)
    hsq = float(traces @ traces) / h.n**2
    K = _sectional_matrix(_rotate_dense(h.dense_view, R.matrix))
    return a * hsq - 0.5 * float((off_block * K).sum())


@pytest.mark.parametrize("n", range(3, 13))
def test_gap_rotates_two_slots_and_agrees_with_the_full_rotation(n, monkeypatch):
    # K cannot see slot 3 turn, so the two-slot gap is the full rotation's
    # up to rounding: over 3,000 seeded (h, P, R) at each n the two differed
    # by at most 1.2e-15 n^2 max|h|^2
    rng = np.random.default_rng([79, n])
    cases = []
    for P in enumerate_partitions(n):
        for scale in (1e-3, 1.0, 1e3):
            h = random_cubic_form(n, scale, rng)
            R = Frame.random(n, rng)
            cases.append((h, P, R, _gap_rotated_in_full(h, P, R)))

    def refuse(*args):
        raise AssertionError("universal_check rotated slot 3")

    for module in (deltainv.delta, deltainv.tensors):
        monkeypatch.setattr(module, "_rotate_dense", refuse)
    for h, P, R, ref in cases:
        scale = max(1.0, float(np.abs(h.dense_view).max()))
        assert abs(universal_check(h, P, R) - ref) <= GAP_TOL * n**2 * scale**2, P


def test_dependent_row_in_a_stack_raises():
    rng = np.random.default_rng(43)
    G = rng.standard_normal((4, 5, 5))
    G[2, 3] = 2.0 * G[2, 0] - G[2, 1]
    with pytest.raises(RankDeficientFrame, match=r"row 4 of frame \(2,\)"):
        _orthonormalize_rows(G)
