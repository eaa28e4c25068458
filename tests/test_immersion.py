"""Gradient-graph immersions: potentials, round trips, Lagrangian defect."""

import itertools

import numpy as np
import pytest
import sympy

from deltainv import (
    CubicForm,
    CubicPotential,
    PartitionSpec,
    SingularMetric,
    evaluate,
    immerse,
    lagrangian_check,
    lemma1_roundtrip,
    OptimizerOptions,
    potential_from_tensor,
    random_cubic_form,
    second_fundamental_form_numeric,
    symmetrize,
)
from deltainv.immersion import FD_STEP, _apply_j


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
    a = symmetrize({(1, 1, 1): 6.0}, 2)
    f = potential_from_tensor(a)
    for x1 in (0.0, 0.5, -1.2):
        assert f.value([x1, 0.3]) == pytest.approx(x1**3)


def test_potential_zero_tensor():
    f = potential_from_tensor(CubicForm.zero(3))
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
    f0 = potential_from_tensor(CubicForm.zero(3))
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
    f = potential_from_tensor(CubicForm.zero(3))
    got = second_fundamental_form_numeric(f, np.zeros(3))
    assert np.max(np.abs(got)) == 0.0


def test_second_form_exact_at_origin():
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
    rng = np.random.default_rng(103)
    a = random_cubic_form(3, 1.0, rng)
    f = potential_from_tensor(a)
    x = rng.uniform(-0.2, 0.2, size=3)
    exact = second_fundamental_form_numeric(f, x, fd=False)
    fd = second_fundamental_form_numeric(f, x, fd=True)
    assert np.max(np.abs(exact - fd)) < 1e-8


class _GradientOnly(CubicPotential):
    """A potential whose Hessian is off limits: F alone may be evaluated."""

    def hessian(self, x):
        raise AssertionError("the finite-difference path read the Hessian")


def test_second_form_fd_path_evaluates_f_alone():
    rng = np.random.default_rng(107)
    a = random_cubic_form(4, 2.0, rng)
    x = rng.uniform(-0.2, 0.2, size=4)
    exact = second_fundamental_form_numeric(potential_from_tensor(a), x)
    fd = second_fundamental_form_numeric(_GradientOnly(4, a.dense()), x, fd=True)
    assert np.max(np.abs(exact - fd)) < 1e-8


# ---------------------------------------------------------------------------
# the former pipeline, kept as an oracle: separate metric formulas per mode,
# the FD metric derivative differenced from the exact Hessian
# ---------------------------------------------------------------------------


def _reference_derivatives(f, x, fd, step=FD_STEP):
    """(tangents, second, metric, dg) as the former pipeline built them."""
    n = f.n
    if not fd:
        hess = f.hessian(x)
        second = np.zeros((2 * n, n, n))
        second[n:] = f.coefficients
        first = np.einsum("jac,jb->cab", f.coefficients, hess)
        return (np.vstack([np.eye(n), hess]), second, np.eye(n) + hess @ hess,
                first + first.transpose(0, 2, 1))

    def position(y):
        return np.concatenate([y, f.gradient(y)])

    def richardson(central):
        return (4.0 * central(step / 2) - central(step)) / 3.0

    def unit(a, h=1.0):
        e = np.zeros(n)
        e[a] = h
        return e

    tangents = np.zeros((2 * n, n))
    second = np.zeros((2 * n, n, n))
    dg = np.zeros((n, n, n))
    for a in range(n):
        e = unit(a)
        tangents[:, a] = richardson(
            lambda h: (position(x + h * e) - position(x - h * e)) / (2 * h))
        second[:, a, a] = richardson(
            lambda h: (position(x + h * e) - 2.0 * position(x)
                       + position(x - h * e)) / h**2)
        for b in range(a + 1, n):
            second[:, a, b] = second[:, b, a] = richardson(
                lambda h: (position(x + unit(a, h) + unit(b, h))
                           - position(x + unit(a, h) - unit(b, h))
                           - position(x - unit(a, h) + unit(b, h))
                           + position(x - unit(a, h) - unit(b, h))) / (4 * h**2))

        def metric_at(y):
            hess = f.hessian(y)
            return np.eye(n) + hess @ hess

        dg[a] = richardson(
            lambda h: (metric_at(x + h * e) - metric_at(x - h * e)) / (2 * h))
    return tangents, second, tangents.T @ tangents, dg


def _reference_parts(f, x, fd=False):
    """(F_AB, its tangential part Gamma^E_AB F_E, J F_*) of the former pipeline."""
    tangents, second, metric, dg = _reference_derivatives(f, x, fd)
    ginv = np.linalg.inv(metric)
    brackets = 0.5 * (dg.transpose(1, 0, 2) + dg.transpose(2, 0, 1) - dg)
    gamma = np.einsum("ed,dab->eab", ginv, brackets)
    return second, np.einsum("ie,eab->iab", tangents, gamma), _apply_j(tangents)


def _reference_second_form(f, x, fd=False):
    second, tangential, jt = _reference_parts(f, x, fd)
    return np.einsum("iab,ic->abc", second - tangential, jt)


def test_second_form_matches_reference_pipeline():
    rng = np.random.default_rng(127)
    worst_fd, worst_reference_fd = 0.0, 0.0
    for _ in range(120):
        n = int(rng.integers(2, 9))
        a = random_cubic_form(n, float(rng.uniform(0.5, 5.0)), rng)
        x = rng.standard_normal(n)
        x *= float(rng.uniform(0.0, 0.25)) / float(np.linalg.norm(x))
        f = potential_from_tensor(a)
        exact = second_fundamental_form_numeric(f, x)
        reference = _reference_second_form(f, x)
        scale = max(1.0, float(np.max(np.abs(a.dense_view))))
        assert np.max(np.abs(exact - reference)) <= 4e-15 * scale
        fd = second_fundamental_form_numeric(f, x, fd=True)
        worst_fd = max(worst_fd, float(np.max(np.abs(fd - exact))))
        reference_fd = _reference_second_form(f, x, fd=True)
        worst_reference_fd = max(
            worst_reference_fd, float(np.max(np.abs(reference_fd - reference)))
        )
    assert 0.0 < worst_fd <= worst_reference_fd


def _seeded_cases(n_max, count=120):
    """The (potential, point, scale) cases of the reference comparison above."""
    rng = np.random.default_rng(127)
    for _ in range(count):
        n = int(rng.integers(2, n_max + 1))
        a = random_cubic_form(n, float(rng.uniform(0.5, 5.0)), rng)
        x = rng.standard_normal(n)
        x *= float(rng.uniform(0.0, 0.25)) / float(np.linalg.norm(x))
        yield potential_from_tensor(a), x, max(1.0, float(np.max(np.abs(a.dense_view))))


def test_tangential_part_pairs_to_zero_with_j_tangents():
    # J F_* is normal, so dropping the Christoffel projection changes nothing
    for f, x, scale in _seeded_cases(n_max=8):
        _, tangential, jt = _reference_parts(f, x)
        assert np.max(np.abs(np.einsum("iab,ic->abc", tangential, jt))) <= 1e-14 * scale


def test_second_form_fd_path_agrees_up_to_n12():
    for f, x, _ in _seeded_cases(n_max=12):
        exact = second_fundamental_form_numeric(f, x)
        fd = second_fundamental_form_numeric(f, x, fd=True)
        assert np.max(np.abs(fd - exact)) <= 1e-8


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


def test_roundtrip_zero():
    assert lemma1_roundtrip(CubicForm.zero(4)) == 0.0


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
    a = symmetrize({(1, 1, 1): 1000.0}, 2)
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
