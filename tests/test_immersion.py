"""Gradient-graph immersions: potentials, round trips, Lagrangian defect."""

import itertools

import numpy as np
import pytest
import sympy

from deltainv import (
    ConflictingEntry,
    CubicForm,
    CubicPotential,
    PartitionSpec,
    SingularMetric,
    UnsupportedDimension,
    evaluate,
    immerse,
    lagrangian_check,
    lemma1_roundtrip,
    OptimizerOptions,
    potential_from_tensor,
    random_cubic_form,
    second_fundamental_form_numeric,
)
from deltainv.immersion import _apply_j, _fd_derivatives


def sympy_third_partials(f, n):
    """Independent oracle: symbolic third partials of the potential."""
    xs = sympy.symbols(f"x1:{n + 1}")
    T = f.coefficients
    expr = sympy.Rational(0)
    for a, b, c in itertools.product(range(n), repeat=3):
        expr += sympy.Rational(1, 6) * sympy.nsimplify(T[a, b, c], rational=True) * (
            xs[a] * xs[b] * xs[c]
        )
    out = np.zeros((n, n, n))
    for a, b, c in itertools.product(range(n), repeat=3):
        out[a, b, c] = float(sympy.diff(expr, xs[a], xs[b], xs[c]))
    return out


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


def test_potential_single_entry_is_cubed_coordinate():
    a = CubicForm(2, {(1, 1, 1): 6.0})
    f = potential_from_tensor(a)
    for x1 in (0.0, 0.5, -1.2):
        assert f.value([x1, 0.3]) == pytest.approx(x1**3)


def test_potential_zero_tensor():
    f = potential_from_tensor(CubicForm(3))
    assert f.value([1.0, 2.0, 3.0]) == 0.0
    assert np.all(f.gradient([1.0, 2.0, 3.0]) == 0.0)


def test_potential_third_partials_match_sympy():
    rng = np.random.default_rng(71)
    a = random_cubic_form(3, 1.0, rng)
    f = potential_from_tensor(a)
    oracle = sympy_third_partials(f, 3)
    assert np.max(np.abs(f.third_derivatives() - oracle)) < 1e-12
    assert np.max(np.abs(oracle - a.dense_view)) < 1e-12


def test_potential_gradient_hessian_consistent():
    rng = np.random.default_rng(73)
    a = random_cubic_form(4, 1.0, rng)
    f = potential_from_tensor(a)
    x = rng.uniform(-0.5, 0.5, size=4)
    eps = 1e-6
    for j in range(4):
        e = np.zeros(4)
        e[j] = eps
        fd_grad = (f.value(x + e) - f.value(x - e)) / (2 * eps)
        assert f.gradient(x)[j] == pytest.approx(fd_grad, rel=1e-6, abs=1e-9)
        fd_hess = (f.gradient(x + e) - f.gradient(x - e)) / (2 * eps)
        assert np.max(np.abs(f.hessian(x)[:, j] - fd_hess)) < 1e-7


# ---------------------------------------------------------------------------
# immersion geometry
# ---------------------------------------------------------------------------


def test_potential_rejects_non_symmetric_coefficients():
    # only a[0, 0, 1] set: the gradient formula would disagree with value()
    a = np.zeros((2, 2, 2))
    a[0, 0, 1] = 6.0
    with pytest.raises(ConflictingEntry):
        CubicPotential(a)


def test_potential_needs_at_least_one_dimension():
    # an empty array used to reach lagrangian_check, which raised numpy's
    # bare ValueError; n has no upper cap, unlike a CubicForm's 12
    with pytest.raises(UnsupportedDimension):
        CubicPotential(np.zeros((0, 0, 0)))
    assert CubicPotential(np.full((1, 1, 1), 6.0)).value([0.5]) == 0.125
    assert CubicPotential(np.zeros((13, 13, 13))).n == 13


def test_immersion_point_owns_read_only_arrays():
    f = potential_from_tensor(CubicForm(3, {(1, 2, 3): 1.0, (3, 3, 3): 0.5}))
    x = np.array([0.1, 0.2, 0.3])
    p = immerse(f, x)
    x[0] = 9.0
    assert p.x.tolist() == [0.1, 0.2, 0.3] and p.position[0] == 0.1
    for arr in (p.x, p.position, p.tangents, p.metric, f.coefficients):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


def test_metric_identity_at_origin():
    rng = np.random.default_rng(79)
    a = random_cubic_form(4, 2.0, rng)
    point = immerse(potential_from_tensor(a), np.zeros(4))
    assert np.array_equal(point.metric, np.eye(4))


def test_metric_formula_matches_fd_tangents():
    rng = np.random.default_rng(83)
    a = random_cubic_form(3, 1.0, rng)
    f = potential_from_tensor(a)
    x = rng.uniform(-0.3, 0.3, size=3)
    step = 1e-4

    def position(y):
        return np.concatenate([y, f.gradient(y)])

    tangents = np.zeros((6, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = 1.0

        def central(hh):
            return (position(x + hh * e) - position(x - hh * e)) / (2 * hh)

        tangents[:, j] = (4.0 * central(step / 2) - central(step)) / 3.0
    numeric = tangents.T @ tangents
    hess = f.hessian(x)
    assert np.max(np.abs(numeric - (np.eye(3) + hess @ hess))) < 1e-10


def test_lagrangian_defect_tiny():
    rng = np.random.default_rng(89)
    f0 = potential_from_tensor(CubicForm(3))
    assert lagrangian_check(f0, np.zeros(3)) == 0.0
    for _ in range(5):
        a = random_cubic_form(4, 3.0, rng)
        f = potential_from_tensor(a)
        assert lagrangian_check(f, np.zeros(4)) <= 1e-12
        x = rng.uniform(-1, 1, size=4)
        x /= max(1.0, float(np.linalg.norm(x)))
        assert lagrangian_check(f, x) <= 1e-12


# ---------------------------------------------------------------------------
# second fundamental form recovery
# ---------------------------------------------------------------------------


def test_second_form_zero_potential():
    f = potential_from_tensor(CubicForm(3))
    got = second_fundamental_form_numeric(f, np.zeros(3))
    assert np.max(np.abs(got)) == 0.0


def test_second_form_exact_at_origin():
    # F is quadratic, so the central differences carry rounding alone
    rng = np.random.default_rng(97)
    a = random_cubic_form(4, 2.0, rng)
    f = potential_from_tensor(a)
    got = second_fundamental_form_numeric(f, np.zeros(4))
    assert np.max(np.abs(got - a.dense_view)) < 1e-10


def test_second_form_away_from_origin():
    # the recovery identity holds pointwise, not only at the origin
    rng = np.random.default_rng(101)
    for _ in range(5):
        a = random_cubic_form(3, 1.5, rng)
        f = potential_from_tensor(a)
        x = rng.uniform(-0.3, 0.3, size=3)
        got = second_fundamental_form_numeric(f, x)
        assert np.max(np.abs(got - a.dense_view)) < 1e-8


def test_second_form_fd_path_agrees():
    # the finite-difference recovery against a at a point within 0.2 of
    # the origin
    rng = np.random.default_rng(103)
    a = random_cubic_form(3, 1.0, rng)
    f = potential_from_tensor(a)
    x = rng.uniform(-0.2, 0.2, size=3)
    got = second_fundamental_form_numeric(f, x)
    assert np.max(np.abs(got - a.dense_view)) < 1e-8


class _GradientOnly(CubicPotential):
    """A potential whose Hessian is off limits: F alone may be evaluated."""

    def hessian(self, x):
        raise AssertionError("the finite-difference path read the Hessian")

    def third_derivatives(self):
        raise AssertionError("the finite-difference path read the coefficients")


def test_second_form_fd_path_evaluates_f_alone():
    rng = np.random.default_rng(107)
    a = random_cubic_form(4, 2.0, rng)
    x = rng.uniform(-0.2, 0.2, size=4)
    got = second_fundamental_form_numeric(_GradientOnly(a.dense_view), x)
    assert np.max(np.abs(got - a.dense_view)) < 1e-8


def _seeded_cases(n_max, count=120):
    """120 seeded (potential, point, scale): n = 2..n_max, scales 0.5-5,
    points at radius up to 0.25, scale = max(1, max |a|)."""
    rng = np.random.default_rng(127)
    for _ in range(count):
        n = int(rng.integers(2, n_max + 1))
        a = random_cubic_form(n, float(rng.uniform(0.5, 5.0)), rng)
        x = rng.standard_normal(n)
        x *= float(rng.uniform(0.0, 0.25)) / float(np.linalg.norm(x))
        yield potential_from_tensor(a), x, max(1.0, float(np.max(np.abs(a.dense_view))))


def test_second_form_recovers_the_coefficients_to_rounding():
    # the recovery shares no formula with a, so it is a check that can fail:
    # its error is rounding, between 2.1e-14 and 1.4e-9 relative on these
    # cases, never exactly zero
    errors = [
        float(np.max(np.abs(second_fundamental_form_numeric(f, x) - f.coefficients)))
        / scale
        for f, x, scale in _seeded_cases(n_max=8)
    ]
    assert 0.0 < max(errors) <= 1e-8


def test_tangential_part_pairs_to_zero_with_j_tangents():
    # J F_* is normal, so the part of F_AB that the recovery does not
    # project out, its projection onto the tangents, pairs to zero with it:
    # 4.9e-13 relative at most, against the recovery's 1.4e-9
    for f, x, scale in _seeded_cases(n_max=8):
        tangents, second = _fd_derivatives(f, x)
        onto = tangents @ np.linalg.solve(tangents.T @ tangents, tangents.T)
        tangential = np.einsum("ij,jab->iab", onto, second)
        pairing = np.einsum("iab,ic->abc", tangential, _apply_j(tangents))
        assert np.max(np.abs(pairing)) <= 1e-11 * scale


def test_second_form_fd_path_agrees_up_to_n12():
    for f, x, _ in _seeded_cases(n_max=12):
        got = second_fundamental_form_numeric(f, x)
        assert np.max(np.abs(got - f.coefficients)) <= 1e-8


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


def test_roundtrip_zero():
    assert lemma1_roundtrip(CubicForm(4)) == 0.0


def test_roundtrip_equality_witness(t1_witness_n3):
    h, _ = t1_witness_n3
    assert lemma1_roundtrip(h, np.zeros(3)) <= 1e-10


def test_roundtrip_random_campaign_origin():
    rng = np.random.default_rng(107)
    for _ in range(20):
        a = random_cubic_form(4, 2.0, rng)
        assert lemma1_roundtrip(a) <= 1e-8


def test_roundtrip_on_radius_ball():
    rng = np.random.default_rng(109)
    for _ in range(5):
        a = random_cubic_form(4, 5.0, rng)
        x = rng.standard_normal(4)
        x *= 0.25 / float(np.linalg.norm(x))
        assert lemma1_roundtrip(a, x) <= 1e-6


def test_roundtrip_singular_metric_guard():
    a = CubicForm(2, {(1, 1, 1): 1000.0})
    with pytest.raises(SingularMetric):
        # ill-conditioned metric far from the origin
        lemma1_roundtrip(a, np.array([1000.0, 0.0]))


# ---------------------------------------------------------------------------
# end to end: recovered tensors satisfy every bound
# ---------------------------------------------------------------------------


def test_recovered_tensor_satisfies_bounds():
    rng = np.random.default_rng(113)
    opts = OptimizerOptions(restarts=4, max_iters=200, seed=11)
    for _ in range(3):
        a = random_cubic_form(4, 1.0, rng)
        f = potential_from_tensor(a)
        recovered = CubicForm.from_dense(
            second_fundamental_form_numeric(f, np.zeros(4))
        )
        for blocks in [(2,), (2, 2)]:
            report = evaluate(recovered, 0.0, PartitionSpec(4, blocks), opts)
            for row in report.rows:
                if row.gap is not None:
                    assert row.gap >= -1e-9
