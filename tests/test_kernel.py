"""The sectional-curvature kernel K against slice-based reference sums.

Every Gauss-equation quantity comes from ``_sectional_matrix``: tau is
half the sum of K over a slab, and the descent weighs K with a 0/1 block
mask.  The references below sum the same terms from slices of T, one block
at a time; the summation order differs, so values agree to 1e-12 relative
(floored at 1, the scale of the random entries), not bit for bit.
"""

import numpy as np
import pytest

from deltainv import (
    Frame,
    enumerate_partitions,
    random_cubic_form,
    scalar_curvature,
    sectional_curvature,
    universal_check,
)
from deltainv.bounds import optimal_coefficients, rhs_value
from deltainv.delta import _block_mask, _block_tau_h, _cayley_step, _grad_skew
from deltainv.errors import RankDeficientFrame
from deltainv.tensors import (
    _orthonormalize_rows,
    _rotate_dense,
    _sectional_matrix,
    _tau_dense,
    mean_curvature_sq,
)

RTOL = 1e-12
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
        assert _close(_block_tau_h(H, M), _block_tau_h_sliced(H, blocks0))
        assert _close(_grad_skew(H, M), _grad_skew_sliced(H, blocks0))
        for cval in C_VALUES:
            rhs = rhs_value(optimal_coefficients(P), mean_curvature_sq(h), cval)
            ref = rhs - (
                _tau_sliced(h.dense_view, list(range(P.n)), cval)
                - sum(_tau_sliced(H, list(idx), cval) for idx in blocks0)
            )
            assert _close(universal_check(h, cval, P, R), ref)



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
    f, A, C = _block_tau_h(H, M), _grad_skew(H, M), _cayley_step(Q, S, t)
    for k in range(s):
        assert _close(H[k], _rotate_dense(T, Q[k]))
        assert _close(f[k], _block_tau_h_sliced(H[k], blocks0))
        assert _close(A[k], _grad_skew_sliced(H[k], blocks0))
        assert _close(C[k], _cayley_step(Q[k], S[k], t[k]))


def test_dependent_row_in_a_stack_raises():
    rng = np.random.default_rng(43)
    G = rng.standard_normal((4, 5, 5))
    G[2, 3] = 2.0 * G[2, 0] - G[2, 1]
    with pytest.raises(RankDeficientFrame, match=r"row 4 of frame \(2,\)"):
        _orthonormalize_rows(G)
