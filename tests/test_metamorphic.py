"""Relations between delta-invariants that hold without a closed form.

Each relation is exact for the true invariant, so a default
``delta_invariant`` call that breaks one has missed the infimum of the
block taus (its value is too low), whatever its ``converged`` says.  At
c = 0, over seeded random tensors:

* direct sum: delta_{h1 + h2}(P1 u P2) >= delta_{h1}(P1) + delta_{h2}(P2),
  because K vanishes between the factors and product frames are feasible;
* rotation: delta(R h) = delta(h), to 1e-9 relative;
* flat direction: delta_{h + 0}(P) on R^{n+1} >= delta_h(P), because every
  frame of R^n extends.

Each set is a seeded prefix of draws plus the cases where the default
descent is known to miss.  A known miss is a strict xfail that names the
case, so a mend fails the test as a strict XPASS; every other case
asserts.
"""

from functools import lru_cache

import numpy as np
import pytest

from deltainv import (
    CubicForm,
    Frame,
    PartitionSpec,
    delta_invariant,
    enumerate_partitions,
    random_cubic_form,
    rotate,
)

# the pairs of the direct-sum set and the cases of the rotation and flat
# sets: a seeded prefix, within the time budget, and the known misses
PAIRS = [*range(24), 54]
CASES = [*range(12), 33, 44, 46]

# default-option misses, every one reported converged
DIRECT_SUM_MISSES = {
    54: "11: 3+4 from 6: (4) + 5: (3): delta -11.375502703076187 "
        "below the parts' sum -11.367152354302334",
}
ROTATION_MISSES = {
    44: "11: 2+3+3: delta(h) -96.941 against delta(R h) -95.915",
    46: "10: 2+3+4: delta(h) -54.323 against delta(R h) -58.031",
}
FLAT_MISSES = {
    33: "8: 2+2+3: delta_h -18.8921 but delta_{h+0} -19.1174",
}


def _tol(value: float) -> float:
    return 1e-9 * max(1.0, abs(value))


def _label(P: PartitionSpec) -> str:
    return f"{P.n}:{'+'.join(map(str, P.blocks))}"


def _pick(n: int, rng) -> PartitionSpec:
    partitions = enumerate_partitions(n)
    return partitions[rng.integers(len(partitions))]


def _delta(h: CubicForm, P: PartitionSpec) -> float:
    return delta_invariant(h, 0.0, P).value


def _padded(h: CubicForm, n: int) -> np.ndarray:
    """h's dense array in the leading corner of an (n, n, n) zero array."""
    arr = np.zeros((n, n, n))
    arr[: h.n, : h.n, : h.n] = h.dense_view
    return arr


@lru_cache(maxsize=None)
def _pairs():
    """rng 11: n1, n2 in 3..6, then P1, P2, then h1, h2, per pair."""
    rng = np.random.default_rng(11)
    pairs = []
    for _ in range(max(PAIRS) + 1):
        n1, n2 = rng.integers(3, 7), rng.integers(3, 7)
        P1, P2 = _pick(n1, rng), _pick(n2, rng)
        pairs.append((P1, P2, random_cubic_form(n1, 1.0, rng),
                      random_cubic_form(n2, 1.0, rng)))
    return pairs


@lru_cache(maxsize=None)
def _cases():
    """rng 12: n in 3..11, then P, h and a Haar frame R, per case."""
    rng = np.random.default_rng(12)
    cases = []
    for _ in range(max(CASES) + 1):
        n = int(rng.integers(3, 12))
        P = _pick(n, rng)
        cases.append((P, random_cubic_form(n, 1.0, rng), Frame.random(n, rng)))
    return cases


@lru_cache(maxsize=None)
def _case_delta(i: int) -> float:
    """delta_h(P) of case i, read by both the rotation and flat tests."""
    P, h, _ = _cases()[i]
    return _delta(h, P)


def _params(indices, misses, label):
    return [
        pytest.param(
            i,
            id=f"{i}-{label(i)}",
            marks=[pytest.mark.xfail(raises=AssertionError, strict=True, reason=misses[i])]
            if i in misses else [],
        )
        for i in indices
    ]


def _pair_label(i):
    P1, P2, _, _ = _pairs()[i]
    return f"{_label(P1)}+{_label(P2)}"


def _case_label(i):
    return _label(_cases()[i][0])


@pytest.mark.parametrize("i", _params(PAIRS, DIRECT_SUM_MISSES, _pair_label))
def test_direct_sum_is_at_least_the_sum_of_its_parts(i):
    P1, P2, h1, h2 = _pairs()[i]
    n = P1.n + P2.n
    arr = _padded(h1, n)
    arr[P1.n :, P1.n :, P1.n :] = h2.dense_view
    P = PartitionSpec(n, tuple(sorted(P1.blocks + P2.blocks)))
    whole = _delta(CubicForm.from_dense(arr), P)
    parts = _delta(h1, P1) + _delta(h2, P2)
    assert whole >= parts - _tol(parts), (whole, parts)


@pytest.mark.parametrize("i", _params(CASES, ROTATION_MISSES, _case_label))
def test_rotation_keeps_delta(i):
    P, h, R = _cases()[i]
    plain, rotated = _case_delta(i), _delta(rotate(h, R), P)
    assert abs(rotated - plain) <= _tol(plain), (plain, rotated)


@pytest.mark.parametrize("i", _params(CASES, FLAT_MISSES, _case_label))
def test_a_flat_direction_never_lowers_delta(i):
    P, h, _ = _cases()[i]
    flat = _delta(CubicForm.from_dense(_padded(h, P.n + 1)), PartitionSpec(P.n + 1, P.blocks))
    assert flat >= _case_delta(i) - _tol(_case_delta(i)), (_case_delta(i), flat)
