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
recovery is one pairing with no tangential projection.  With the exact
polynomial derivatives the round trip holds by construction; the
finite-difference path, which evaluates F alone and shares no formula
with the polynomials, is the independent check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularMetric
from .tensors import CubicForm

FD_STEP = 1e-4
ROUNDTRIP_COND_LIMIT = 1e6


@dataclass(frozen=True)
class CubicPotential:
    """The cubic polynomial f(x) = (1/6) sum a_{ABC} x_A x_B x_C."""

    n: int
    coefficients: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coefficients, dtype=float)
        if arr.shape != (self.n, self.n, self.n):
            raise DimensionMismatch(
                f"coefficients must be ({self.n},)*3, got {arr.shape}"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coefficients", arr)

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
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionMismatch(f"point must have shape ({self.n},), got {x.shape}")
        return x


def potential_from_tensor(a: CubicForm) -> CubicPotential:
    """Potential whose third partials reproduce the tensor exactly."""
    return CubicPotential(a.n, a.dense())


@dataclass(frozen=True)
class ImmersionPoint:
    """The immersion data at one point: position, tangents, induced metric."""

    x: np.ndarray
    position: np.ndarray      # F(x) in R^2n, ordered (x, grad f)
    tangents: np.ndarray      # (2n, n), column A is F_* e_A
    metric: np.ndarray        # (n, n), g = F_*^T F_* = I + Hess^2


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


def second_fundamental_form_numeric(
    f: CubicPotential, x, fd: bool = False
) -> np.ndarray:
    """Recover <h(e_A, e_B), J F_* e_C> as the pairing <F_AB, J F_* e_C>.

    J F_* e_C is normal on the Lagrangian image, so the tangential part of
    F_AB pairs to zero with it and no projection is taken.  The components
    refer to the coordinate frame F_* e_C, which is orthonormal only where
    the Hessian of f vanishes (in particular at the origin).

    The pair (F_A, F_AB) is exact polynomial data by default, which makes
    the pairing return the coefficients by construction; with ``fd=True``
    it comes from central differences of evaluations of F alone.
    """
    x = f._point(x)
    if fd:
        tangents, second = _fd_derivatives(f, x)
    else:
        tangents = immerse(f, x).tangents
        second = np.zeros((2 * f.n, f.n, f.n))
        second[f.n:] = f.third_derivatives()  # f_{x_j x_A x_B} in slot j
    return np.einsum("iab,ic->abc", second, _apply_j(tangents))


def lemma1_roundtrip(a: CubicForm, x=None) -> float:
    """Largest deviation between the recovered form and the target tensor.

    Zero in exact arithmetic at every point; the contract is 1e-8 at the
    origin and 1e-6 on the ball of radius 0.25 for moderate tensors.
    Raises SingularMetric when the induced metric is too ill-conditioned
    for the comparison to be meaningful.
    """
    f = potential_from_tensor(a)
    x = np.zeros(a.n) if x is None else x
    cond = float(np.linalg.cond(immerse(f, x).metric))
    if not np.isfinite(cond) or cond > ROUNDTRIP_COND_LIMIT:
        raise SingularMetric(f"induced metric condition number {cond:.3e}")
    recovered = second_fundamental_form_numeric(f, x)
    return float(np.max(np.abs(recovered - a.dense_view)))
