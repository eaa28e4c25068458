"""Determinant identities, block matrices, thresholds, PSD verdicts."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from deltainv import (
    BadBlockIndex,
    CaseMismatch,
    EmptyList,
    FormatError,
    PartitionSpec,
    STATEMENT_I,
    STATEMENT_II,
    build_M,
    build_statement2_matrix,
    coeff_theorem1,
    coeff_theorem2,
    critical_C,
    det_closed,
    enumerate_partitions,
    kernel_solution_theorem2,
    psd_verdict,
    psd_verdict_minors,
)
from deltainv.quadforms import THEOREM2 as CASE_THEOREM2
from deltainv.quadforms import _reduced_diagonal


def det_recursive(values):
    """Oracle for ``det_closed``: the determinant of the matrix with the
    given diagonal and ones elsewhere, by the two-term recursion

    Delta(A_1..A_m) = (A_m + A_{m-1} - 2) Delta(A_1..A_{m-1})
                      - (A_{m-1} - 1)^2 Delta(A_1..A_{m-2}),

    with Delta(A_1) = A_1 and Delta(A_1, A_2) = A_1 A_2 - 1."""
    vals = list(values)
    if len(vals) == 1:
        return vals[0]
    prev2, prev1 = vals[0], vals[0] * vals[1] - 1
    for m in range(2, len(vals)):
        cur = (vals[m] + vals[m - 1] - 2) * prev1 - (vals[m - 1] - 1) ** 2 * prev2
        prev2, prev1 = prev1, cur
    return prev1


def block_average_vectors(P):
    """Rows v_i = indicator(block i) / n_i over the nonempty blocks, the
    residual block last: M' is V M V^T for V stacking them."""
    rows = []
    for block in P.index_blocks:
        if block:
            v = np.zeros(P.n)
            v[[a - 1 for a in block]] = 1.0 / len(block)
            rows.append(v)
    return np.array(rows)


def statement1_gap(P, ell, C, x):
    """Direct expansion oracle: C (sum x)^2 minus the block-ell left side."""
    blocks = P.index_blocks[: P.k]
    residual = P.index_blocks[P.k]
    lhs = 0.0
    for r, s in itertools.combinations(residual, 2):
        lhs += x[r - 1] * x[s - 1]
    for block in blocks:
        for a in block:
            for r in residual:
                lhs += x[a - 1] * x[r - 1]
    for bi, bj in itertools.combinations(blocks, 2):
        for a in bi:
            for b in bj:
                lhs += x[a - 1] * x[b - 1]
    for r in residual:
        lhs -= x[r - 1] ** 2
    for i, block in enumerate(blocks, start=1):
        if i == ell:
            continue
        for a in block:
            lhs -= x[a - 1] ** 2
    return C * float(np.sum(x)) ** 2 - lhs


def statement2_gap(P, t, C, x):
    """Direct expansion oracle for the residual-index form at index t."""
    blocks = P.index_blocks[: P.k]
    residual = P.index_blocks[P.k]
    lhs = 0.0
    for r, s in itertools.combinations(residual, 2):
        lhs += x[r - 1] * x[s - 1]
    for block in blocks:
        for a in block:
            for r in residual:
                lhs += x[a - 1] * x[r - 1]
    for bi, bj in itertools.combinations(blocks, 2):
        for a in bi:
            for b in bj:
                lhs += x[a - 1] * x[b - 1]
    for r in residual:
        if r != t:
            lhs -= x[r - 1] ** 2
    for block in blocks:
        for a in block:
            lhs -= x[a - 1] ** 2
    return C * float(np.sum(x)) ** 2 - lhs


def paper_minors(P, ell, C):
    """Closed-form leading minors of M'/(2C-1), exact rational arithmetic."""
    two_c = 2 * C
    k = P.k
    r = P.residual
    out = []
    for j in range(1, k + 1):
        delta_j = 0 if j < ell else 1
        others = [P.blocks[i - 1] for i in range(1, j + 1) if i != ell]
        bracket = (two_c ** delta_j) / (two_c - 1) + sum(
            Fraction(ni, ni + 2) for ni in others
        )
        prod = Fraction(1)
        for ni in others:
            prod *= 1 + Fraction(2, ni)
        out.append(Fraction(1, 1) / (two_c - 1) ** (j - 1) * bracket * prod)
    if r >= 1:
        others = [P.blocks[i - 1] for i in range(1, k + 1) if i != ell]
        bracket = two_c / (two_c - 1) + Fraction(r, 3) + sum(
            Fraction(ni, ni + 2) for ni in others
        )
        prod = Fraction(1)
        for ni in others:
            prod *= 1 + Fraction(2, ni)
        out.append(Fraction(3, r) / (two_c - 1) ** k * bracket * prod)
    return out


def sample_cases(rng, count, nmax=8):
    """Random (P, ell) pairs over admissible partitions with n <= nmax."""
    pool = [
        (P, ell)
        for n in range(3, nmax + 1)
        for P in enumerate_partitions(n)
        for ell in range(1, P.k + 1)
    ]
    idx = rng.choice(len(pool), size=min(count, len(pool)), replace=True)
    return [pool[i] for i in idx]


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------


def test_det_anchors_exact():
    a1, a2 = Fraction(7, 3), Fraction(-2, 5)
    assert det_closed([a1]) == a1
    assert det_recursive([a1]) == a1
    assert det_closed([a1, a2]) == a1 * a2 - 1
    assert det_recursive([a1, a2]) == a1 * a2 - 1


def test_det_triple_value():
    assert det_closed([2.0, 2.0, 2.0]) == pytest.approx(4.0)
    assert det_recursive([2.0, 2.0, 2.0]) == pytest.approx(4.0)


def test_det_recursion_instantiated_exact():
    rng = np.random.default_rng(12)
    for _ in range(25):
        a1, a2, a3 = (Fraction(int(v), 16) for v in rng.integers(-80, 80, size=3))
        expected = (a3 + a2 - 2) * (a1 * a2 - 1) - (a2 - 1) ** 2 * a1
        assert det_recursive([a1, a2, a3]) == expected
        assert det_closed([a1, a2, a3]) == expected


def test_det_matches_dense_lu():
    rng = np.random.default_rng(4)
    for _ in range(300):
        k = int(rng.integers(1, 9))
        vals = rng.uniform(-5, 5, size=k)
        vals = np.where(np.abs(vals - 1.0) < 1e-3, 1.01, vals)
        mat = np.ones((k, k))
        np.fill_diagonal(mat, vals)
        dense = float(np.linalg.det(mat))
        assert det_closed(list(vals)) == pytest.approx(dense, rel=1e-9, abs=1e-9)
        assert det_recursive(list(vals)) == pytest.approx(dense, rel=1e-9, abs=1e-9)


def test_det_empty_rejected():
    with pytest.raises(EmptyList):
        det_closed([])


def test_det_product_form_when_no_entry_is_one():
    # (1 + sum 1/(A_i - 1)) * prod (A_i - 1), valid away from A_i = 1
    rng = np.random.default_rng(14)
    for _ in range(25):
        vals = [Fraction(int(v), 8) for v in rng.integers(-40, 40, size=5)]
        vals = [v if v != 1 else Fraction(9, 8) for v in vals]
        prod = Fraction(1)
        for v in vals:
            prod *= v - 1
        expected = (1 + sum(Fraction(1, 1) / (v - 1) for v in vals)) * prod
        assert det_closed(vals) == expected


def test_psd_minors_route_with_float_coefficient():
    rng = np.random.default_rng(83)
    for P, ell in sample_cases(rng, 25):
        cstar = float(critical_C(P, ell, STATEMENT_I))
        for C in (cstar + 0.1, cstar - 0.1, 0.9):
            bundle = build_M(P, ell, C)
            assert psd_verdict(bundle)[0] == psd_verdict_minors(bundle)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        min_size=1,
        max_size=8,
    )
)
def test_det_closed_equals_recursive_hypothesis(values):
    closed = det_closed(values)
    recursive = det_recursive(values)
    assert closed == pytest.approx(recursive, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# building M and its structure
# ---------------------------------------------------------------------------


def test_build_m_example_matrix():
    P = PartitionSpec(3, (2,))
    bundle = build_M(P, 1, Fraction(1, 6))
    expected = np.array(
        [
            [1 / 3, 1 / 3, -2 / 3],
            [1 / 3, 1 / 3, -2 / 3],
            [-2 / 3, -2 / 3, 7 / 3],
        ]
    )
    assert np.max(np.abs(bundle.M - expected)) < 1e-15


def test_build_m_entry_value_set():
    rng = np.random.default_rng(19)
    for P, ell in sample_cases(rng, 20):
        C = float(rng.uniform(-1.5, 1.5))
        M = build_M(P, ell, C).M
        allowed = {2 * C, 2 * (C + 1.0), 2 * C - 1.0}
        assert set(np.unique(M)) <= allowed


def test_build_m_rejects_bad_ell():
    P = PartitionSpec(4, (2,))
    with pytest.raises(BadBlockIndex):
        build_M(P, 2, 0.3)
    with pytest.raises(BadBlockIndex):
        build_M(P, 0, 0.3)


def test_quadratic_form_matches_statement1_expansion():
    rng = np.random.default_rng(31)
    for P, ell in sample_cases(rng, 40):
        C = float(rng.uniform(-1.0, 1.5))
        bundle = build_M(P, ell, C)
        for _ in range(4):
            x = rng.uniform(-2, 2, size=P.n)
            direct = 2.0 * statement1_gap(P, ell, C, x)
            assert float(x @ bundle.M @ x) == pytest.approx(
                direct, rel=1e-10, abs=1e-10
            )


def test_statement2_matrix_matches_expansion():
    rng = np.random.default_rng(37)
    cases = [(P, ell) for P, ell in sample_cases(rng, 60) if P.residual >= 1]
    for P, _ in cases[:30]:
        residual = P.index_blocks[P.k]
        t = int(residual[rng.integers(len(residual))])
        C = float(rng.uniform(-1.0, 1.5))
        M = build_statement2_matrix(P, t, C)
        for _ in range(4):
            x = rng.uniform(-2, 2, size=P.n)
            direct = 2.0 * statement2_gap(P, t, C, x)
            assert float(x @ M @ x) == pytest.approx(direct, rel=1e-10, abs=1e-10)


def _difference_vectors(block, n):
    if not block:
        return []
    out = []
    base = block[0] - 1
    for other in block[1:]:
        v = np.zeros(n)
        v[base] = 1.0
        v[other - 1] = -1.0
        out.append(v)
    return out


def test_difference_vectors_are_eigenvectors():
    rng = np.random.default_rng(43)
    for P, ell in sample_cases(rng, 30):
        C = float(rng.uniform(-2, 2))
        M = build_M(P, ell, C).M
        for i, block in enumerate(P.index_blocks, start=1):
            expected = 0.0 if i == ell else (3.0 if i == P.k + 1 else 2.0)
            for v in _difference_vectors(block, P.n):
                assert np.max(np.abs(M @ v - expected * v)) < 1e-12


def test_eigenstructure_rank_accounting():
    rng = np.random.default_rng(47)
    for P, ell in sample_cases(rng, 12):
        C = float(rng.uniform(-1, 1))
        M = build_M(P, ell, C).M
        diffs = []
        for block in P.index_blocks:
            diffs.extend(_difference_vectors(block, P.n))
        V = block_average_vectors(P)
        expected_diff_count = P.n - (P.k + (1 if P.residual >= 1 else 0))
        assert len(diffs) == expected_diff_count
        # difference vectors and block averages together span R^n
        stacked = np.vstack(diffs + [V]) if diffs else V
        assert np.linalg.matrix_rank(stacked, tol=1e-10) == P.n
        # M preserves the span of the block averages
        for row in V:
            image = M @ row
            coeffs, residuals, *_ = np.linalg.lstsq(V.T, image, rcond=None)
            assert np.max(np.abs(V.T @ coeffs - image)) < 1e-11


# ---------------------------------------------------------------------------
# reduction and minors
# ---------------------------------------------------------------------------


def test_reduce_example_entries():
    P = PartitionSpec(3, (2,))
    bundle = build_M(P, 1, Fraction(1, 6))
    expected = np.array([[1 / 3, -2 / 3], [-2 / 3, 7 / 3]])
    assert np.max(np.abs(bundle.Mprime - expected)) < 1e-15


def test_reduce_matches_numeric_compression():
    rng = np.random.default_rng(53)
    for P, ell in sample_cases(rng, 30):
        C = float(rng.uniform(-1.5, 1.5))
        bundle = build_M(P, ell, C)
        V = block_average_vectors(P)
        numeric = V @ bundle.M @ V.T
        assert np.max(np.abs(bundle.Mprime - numeric)) < 1e-12


def test_reduced_ell_entry_independent_of_block_size():
    # the distinguished diagonal entry is 2C regardless of n_ell
    C = 0.21
    for P, ell in [
        (PartitionSpec(6, (2, 3)), 1),
        (PartitionSpec(6, (2, 3)), 2),
        (PartitionSpec(9, (4, 4)), 2),
    ]:
        bundle = build_M(P, ell, C)
        assert bundle.Mprime[ell - 1, ell - 1] == pytest.approx(2 * C, abs=1e-15)


def test_minors_match_paper_closed_form():
    rng = np.random.default_rng(59)
    for P, ell in sample_cases(rng, 25):
        num = int(rng.integers(-40, 40))
        C = Fraction(num, 80)
        if 2 * C == 1:
            continue
        bundle = build_M(P, ell, C)
        assert bundle.minors == tuple(paper_minors(P, ell, C))


@pytest.mark.parametrize(
    "C", [float("inf"), float("nan"), True, "1/4", None],
    ids=["inf", "nan", "true", "string", "none"],
)
def test_bundle_refuses_a_coefficient_that_is_not_a_finite_number(C):
    with pytest.raises(FormatError):
        build_M(PartitionSpec(4, (2,)), 1, C)


def test_bundle_reads_a_float_coefficient_as_its_exact_fraction():
    # every finite float is a Fraction, so the minors and their verdict are
    # those of Fraction(C), and M stays the float rendering
    rng = np.random.default_rng(89)
    for P, ell in sample_cases(rng, 25):
        C = float(rng.uniform(-1.5, 1.5))
        bundle, exact = build_M(P, ell, C), build_M(P, ell, Fraction(C))
        assert bundle.C == Fraction(C) and bundle.minors == exact.minors
        assert np.array_equal(bundle.M, exact.M)
        assert np.array_equal(bundle.Mprime, exact.Mprime)
        assert psd_verdict_minors(bundle) == psd_verdict_minors(exact)


_ELL_READERS = {
    "build_M": lambda P, ell: build_M(P, ell, Fraction(1, 6)),
    "critical_C": lambda P, ell: critical_C(P, ell, STATEMENT_I),
    "kernel_solution_theorem2": kernel_solution_theorem2,
}


@pytest.mark.parametrize("ell", [1.5, 2.9, True, "1", None])
@pytest.mark.parametrize("reader", sorted(_ELL_READERS))
def test_ell_must_be_an_integer(reader, ell):
    # int() once truncated 2.9 to 2 and took True and "1" as 1
    with pytest.raises(BadBlockIndex, match="ell must be an integer"):
        _ELL_READERS[reader](PartitionSpec(5, (2, 3)), ell)


def test_build_m_reads_an_integral_float_ell_bit_for_bit():
    P = PartitionSpec(5, (2, 3))
    bundle, exact = build_M(P, 2.0, Fraction(1, 6)), build_M(P, 2, Fraction(1, 6))
    assert type(bundle.ell) is int and bundle.ell == 2
    assert np.array_equal(bundle.M, exact.M) and bundle.minors == exact.minors
    assert np.array_equal(bundle.Mprime, exact.Mprime)


@pytest.mark.parametrize(
    "C", [9e307, -9e307, 1e308, Fraction(10**400)],
    ids=["9e307", "-9e307", "1e308", "10^400"],
)
def test_bundle_refuses_a_coefficient_whose_entries_overflow(C):
    # C itself is a finite float or an exact rational, but 2(C + 1) or
    # 2C - 1 is not a finite float
    with pytest.raises(FormatError, match="within float range"):
        build_M(PartitionSpec(5, (2, 3)), 1, C)


def test_bundle_reads_the_coefficient_before_ell():
    with pytest.raises(FormatError):
        build_M(PartitionSpec(5, (2, 3)), 9, 1e308)


@pytest.mark.parametrize("t", [5.5, True, "5"])
def test_statement2_matrix_t_must_be_an_integer(t):
    with pytest.raises(BadBlockIndex, match="t must be an integer"):
        build_statement2_matrix(PartitionSpec(5, (2, 2)), t, Fraction(1, 6))


def test_statement2_matrix_reads_an_integral_float_t():
    P = PartitionSpec(5, (2, 2))
    M = build_statement2_matrix(P, 5.0, Fraction(1, 6))
    assert np.array_equal(M, build_statement2_matrix(P, 5, Fraction(1, 6)))


@pytest.mark.parametrize(
    "C", [float("inf"), float("nan"), None, "x", True, 10**400],
    ids=["inf", "nan", "none", "string", "true", "10^400"],
)
def test_statement2_matrix_refuses_what_the_bundle_refuses(C):
    P = PartitionSpec(5, (2, 2))
    with pytest.raises(FormatError):
        build_statement2_matrix(P, 5, C)
    with pytest.raises(FormatError):
        build_M(P, 1, C)


def test_minors_empty_at_two_c_equal_one():
    P = PartitionSpec(5, (2, 2))
    bundle = build_M(P, 1, Fraction(1, 2))
    assert bundle.minors == ()


# ---------------------------------------------------------------------------
# critical coefficients
# ---------------------------------------------------------------------------


def test_critical_c_statement2_example():
    P = PartitionSpec(3, (2,))
    cstar = critical_C(P, 1, STATEMENT_II)
    assert cstar == Fraction(1, 6)
    assert P.n**2 * cstar == coeff_theorem1(P).a


def test_critical_c_theorem2_example():
    P = PartitionSpec(4, (2, 2))
    cstar = critical_C(P, 1, CASE_THEOREM2)
    assert cstar == Fraction(1, 6)
    assert P.n**2 * cstar == coeff_theorem2(P).a


def test_statement1_below_statement2_threshold():
    for n in range(3, 9):
        for P in enumerate_partitions(n):
            if P.residual < 1:
                continue
            c2 = critical_C(P, 1, STATEMENT_II)
            for ell in range(1, P.k + 1):
                assert critical_C(P, ell, STATEMENT_I) < c2


def test_statement1_coincides_with_theorem2_when_saturating():
    for n in range(4, 10):
        for P in enumerate_partitions(n):
            if P.residual != 0:
                continue
            for ell in range(1, P.k + 1):
                assert critical_C(P, ell, STATEMENT_I) == critical_C(
                    P, ell, CASE_THEOREM2
                )


def test_theorem2_binding_block_is_minimal():
    for n in range(4, 11):
        for P in enumerate_partitions(n):
            if P.residual != 0 or P.k < 2:
                continue
            thresholds = [
                critical_C(P, ell, CASE_THEOREM2) for ell in range(1, P.k + 1)
            ]
            best = max(thresholds)
            for ell, thr in enumerate(thresholds, start=1):
                if P.blocks[ell - 1] == min(P.blocks):
                    assert thr == best
                else:
                    assert thr < best


def test_critical_c_case_mismatch():
    P = PartitionSpec(4, (2, 2))
    with pytest.raises(CaseMismatch):
        critical_C(P, 1, STATEMENT_II)
    Q = PartitionSpec(5, (2, 2))
    with pytest.raises(CaseMismatch):
        critical_C(Q, 1, CASE_THEOREM2)
    with pytest.raises(CaseMismatch):
        critical_C(Q, 1, "NO_SUCH_CASE")


def test_threshold_tightness_sampled():
    rng = np.random.default_rng(61)
    for P, ell in sample_cases(rng, 15, nmax=7):
        cstar = critical_C(P, ell, STATEMENT_I)
        ok, eig_at = psd_verdict(build_M(P, ell, cstar))
        assert ok and eig_at >= -1e-10
        _, eig_below = psd_verdict(build_M(P, ell, cstar - Fraction(1, 1000)))
        assert eig_below < -1e-8


def test_statement2_matrix_tight_at_optimal_coefficient():
    for n in range(3, 8):
        for P in enumerate_partitions(n):
            if P.residual < 1:
                continue
            cstar = critical_C(P, 1, STATEMENT_II)
            t = P.index_blocks[P.k][0]
            M = build_statement2_matrix(P, t, cstar)
            eigs = np.linalg.eigvalsh(M)
            assert eigs[0] >= -1e-9
            assert abs(eigs[0]) < 1e-9  # the coefficient is tight


def test_reduced_determinant_is_exactly_zero_at_every_threshold():
    # C* from the matrix, not from the threshold formula: det M'' vanishes
    # exactly at C* for every block ell of the 248 partitions with n <= 12
    pairs = 0
    for n in range(3, 13):
        for P in enumerate_partitions(n):
            for ell in range(1, P.k + 1):
                cstar = critical_C(P, ell, STATEMENT_I)
                diag = _reduced_diagonal(P, ell, cstar)
                assert det_closed([d / (2 * cstar - 1) for d in diag]) == 0, (P, ell)
                pairs += 1
    assert pairs == 582


def test_statement2_matrix_is_exactly_singular_at_its_threshold():
    # build_statement2_matrix's recipe in rationals, with sympy's exact
    # determinant: 2C within a leading block, 2C - 1 elsewhere, 2(C + 1) on
    # the diagonal but 2C at the residual position t
    count = 0
    for n in range(3, 9):
        for P in enumerate_partitions(n):
            if P.residual < 1:
                continue
            cstar = critical_C(P, 1, STATEMENT_II)
            C = sympy.Rational(cstar.numerator, cstar.denominator)
            own, t = P.owner.tolist(), P.index_blocks[P.k][0] - 1

            def entry(i, j):
                if i == j:
                    return 2 * C if i == t else 2 * (C + 1)
                return 2 * C if own[i] == own[j] < P.k else 2 * C - 1

            M = sympy.Matrix(P.n, P.n, entry)
            shipped = build_statement2_matrix(P, t + 1, cstar)
            assert np.max(np.abs(np.array(M.tolist(), dtype=float) - shipped)) < 1e-14
            assert M.det() == 0, P
            count += 1
    assert count == 37


# ---------------------------------------------------------------------------
# PSD verdicts
# ---------------------------------------------------------------------------


def test_psd_case_one_half():
    rng = np.random.default_rng(67)
    for P, ell in sample_cases(rng, 10):
        bundle = build_M(P, ell, Fraction(1, 2))
        ok, _ = psd_verdict(bundle)
        assert ok
        assert psd_verdict_minors(bundle)


def test_psd_across_threshold():
    rng = np.random.default_rng(71)
    for P, ell in sample_cases(rng, 15):
        cstar = critical_C(P, ell, STATEMENT_I)
        above = build_M(P, ell, cstar + Fraction(1, 10))
        below = build_M(P, ell, cstar - Fraction(1, 10))
        assert psd_verdict(above)[0]
        assert psd_verdict_minors(above)
        assert not psd_verdict(below)[0]
        assert not psd_verdict_minors(below)


def test_psd_routes_agree_away_from_threshold():
    rng = np.random.default_rng(73)
    checked = 0
    for P, ell in sample_cases(rng, 60):
        C = Fraction(int(rng.integers(-100, 140)), 100)
        cstar = critical_C(P, ell, STATEMENT_I)
        if abs(C - cstar) <= Fraction(1, 1000000):
            continue
        bundle = build_M(P, ell, C)
        assert psd_verdict(bundle)[0] == psd_verdict_minors(bundle)
        checked += 1
    assert checked > 40


def test_sylvester_condition_implication():
    # whenever the last bracket condition holds, the first k hold as well
    rng = np.random.default_rng(79)
    held = 0
    for P, ell in sample_cases(rng, 200):
        if P.residual < 1:
            continue
        C = Fraction(int(rng.integers(40, 99)), 200)  # keeps 2C < 1
        two_c = 2 * C
        others = [P.blocks[i - 1] for i in range(1, P.k + 1) if i != ell]
        last = (
            two_c / (two_c - 1)
            + Fraction(P.residual, 3)
            + sum(Fraction(ni, ni + 2) for ni in others)
        )
        if last > 0:
            continue
        held += 1
        for j in range(1, P.k + 1):
            delta_j = 0 if j < ell else 1
            upto = [P.blocks[i - 1] for i in range(1, j + 1) if i != ell]
            bracket = (two_c**delta_j) / (two_c - 1) + sum(
                Fraction(ni, ni + 2) for ni in upto
            )
            assert bracket <= 0
    assert held > 10


# ---------------------------------------------------------------------------
# kernel of the saturating-case matrix
# ---------------------------------------------------------------------------


def test_kernel_solution_examples():
    P = PartitionSpec(4, (2, 2))
    assert kernel_solution_theorem2(P, 1) == [Fraction(1), Fraction(1, 2)]
    Q = PartitionSpec(5, (2, 3))
    assert kernel_solution_theorem2(Q, 2) is None
    assert kernel_solution_theorem2(Q, 1) == [Fraction(1), Fraction(3, 5)]


def test_kernel_solution_case_mismatch():
    with pytest.raises(CaseMismatch):
        kernel_solution_theorem2(PartitionSpec(5, (2, 2)), 1)


def test_kernel_vector_annihilated():
    for n in range(4, 11):
        for P in enumerate_partitions(n):
            if P.residual != 0:
                continue
            cstar = critical_C(P, 1, CASE_THEOREM2)
            V = block_average_vectors(P)
            for ell in range(1, P.k + 1):
                M = build_M(P, ell, cstar).M
                sol = kernel_solution_theorem2(P, ell)
                if P.blocks[ell - 1] == min(P.blocks):
                    coeffs = np.array([float(a) for a in sol])
                    vec = coeffs @ V
                    assert np.max(np.abs(M @ vec)) < 1e-10
                else:
                    assert sol is None
                    # restricted to the block-average span the kernel is trivial
                    Mprime = V @ M @ V.T
                    assert np.min(np.abs(np.linalg.eigvalsh(Mprime))) > 1e-9
