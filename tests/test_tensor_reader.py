"""The one-pass tensor reader against the per-entry reader it replaced.

``CubicForm(n, entries)`` and ``CubicForm.from_json_dict`` write each value
straight to its canonical slot, with a fast path for triples of exact
ints.  The references below are the former per-entry loops: every triple
through ``_validated_triple``, every value through ``_as_real`` and a
finiteness check, then the sorted triples written out one by one.  An
accepted input must give the same dense array bit for bit, and a refused
one the same exception class and message.
"""

import itertools
import math
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltainv import (
    ConflictingEntry,
    CubicForm,
    FormatError,
    InvariantViolation,
    random_cubic_form,
)
from deltainv.tensors import (
    _as_integer,
    _as_list,
    _as_object,
    _as_real,
    _check_dimension,
    _validated_triple,
)

# ---------------------------------------------------------------------------
# references: the per-entry readers
# ---------------------------------------------------------------------------


def _reference_value(value, key) -> float:
    v = _as_real(value, "entry value")
    if not math.isfinite(v):
        raise InvariantViolation(f"non-finite entry {v!r} at {key!r}")
    return v


def _reference_dense(n: int, seen: dict) -> np.ndarray:
    """Each sorted triple's value written to all its permutations; a zero,
    -0.0 included, stored as 0.0."""
    dense = np.zeros((n, n, n))
    for triple, v in seen.items():
        for a, b, c in itertools.permutations(triple):
            dense[a - 1, b - 1, c - 1] = v + 0.0
    return dense


def reference_init(n, entries=None) -> np.ndarray:
    n = _check_dimension(n)
    if not isinstance(entries, (Mapping, type(None))):
        raise FormatError(f"entries must map triples to values, got {entries!r}")
    seen = {}
    for key, value in (entries or {}).items():
        triple = _validated_triple(key, n)
        v = _reference_value(value, key)
        if triple in seen and seen[triple] != v:
            raise ConflictingEntry(
                f"triple {key!r} conflicts with an earlier permutation-"
                f"equivalent entry ({seen[triple]} vs {v})"
            )
        seen[triple] = v
    return _reference_dense(n, seen)


def reference_from_json(data) -> np.ndarray:
    data = _as_object(data, "tensor", required=("n",), optional=("entries",))
    n = _check_dimension(_as_integer(data["n"], "dimension"))
    seen = {}
    for item in _as_list(data.get("entries", []), "'entries'"):
        idx = _as_object(item, "tensor entry", required=("idx", "value"))["idx"]
        triple = _validated_triple(idx, n)
        if triple in seen:
            raise ConflictingEntry(
                f"duplicate or permutation-conflicting triple {idx!r}"
            )
        seen[triple] = _reference_value(item["value"], idx)
    return _reference_dense(n, seen)


def reference_entries(h) -> dict:
    out = {}
    for t in itertools.combinations_with_replacement(range(1, h.n + 1), 3):
        v = float(h.dense_view[t[0] - 1, t[1] - 1, t[2] - 1])
        if v != 0.0:
            out[t] = v
    return out


def reference_scaled(h, t) -> np.ndarray:
    t = _as_real(t, "t")
    return reference_init(h.n, {k: t * v for k, v in reference_entries(h).items()})


class _Pairs(Mapping):
    """A mapping that yields its (key, value) pairs as listed: list keys and
    repeated keys included, which a dict cannot hold."""

    def __init__(self, pairs):
        self._pairs = list(pairs)

    def items(self):
        return list(self._pairs)

    def __iter__(self):
        return iter([k for k, _ in self._pairs])

    def __len__(self):
        return len(self._pairs)

    def __getitem__(self, key):
        for k, v in self._pairs:
            if k == key:
                return v
        raise KeyError(key)


def _outcome(build):
    """("ok", shape, bytes) of the dense array built, or the refusal's
    class and message."""
    try:
        dense = build()
    except Exception as exc:  # the class is compared, whatever it is
        return (type(exc), str(exc))
    dense = dense.dense_view if isinstance(dense, CubicForm) else dense
    return ("ok", dense.shape, dense.tobytes())


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def _odd_index(n):
    """An index element that is not a plain in-range int: some are read
    (2.0, np.int64(2)), the rest refused."""
    near = st.integers(-1, n + 2)
    return st.one_of(
        near,
        near.map(float),
        st.booleans(),
        near.map(np.int64),
        near.map(str),
        st.just(1.5),
    )


def _readable_index(n):
    """An in-range index of a type the reader accepts."""
    inside = st.integers(1, n)
    return st.one_of(inside, inside.map(float), inside.map(np.int64))


@st.composite
def _key(draw, n, as_type, clean):
    """Three in-range ints, or one element replaced: by another accepted
    type when ``clean``, else by any odd element or to a wrong length."""
    key = draw(st.lists(st.integers(1, n), min_size=3, max_size=3))
    kind = draw(st.sampled_from(["ints"] * 3 + ["odd"] * 2 + ["length"]))
    if kind == "odd" or (clean and kind == "length"):
        element = _readable_index(n) if clean else _odd_index(n)
        key[draw(st.integers(0, 2))] = draw(element)
    elif kind == "length":
        key = key[:2] if draw(st.booleans()) else key + [1]
    return as_type(key)


_FINITE_VALUES = st.one_of(
    st.floats(-4.0, 4.0),
    st.integers(-3, 3),
    st.sampled_from([-0.0, 0.0, 1e308]),
)
_VALUES = st.one_of(
    _FINITE_VALUES,
    _FINITE_VALUES,
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, "1.0"]),
)


@st.composite
def _pairs(draw, n, key_types):
    """(key, value) pairs, with permutation duplicates of earlier keys that
    carry an equal or a different value.  Half the lists hold only keys and
    values the reader accepts, so they reach the conflict rule and the
    dense array; the rest may hold anything."""
    clean = draw(st.booleans())
    values = _FINITE_VALUES if clean else _VALUES
    pairs = []
    for _ in range(draw(st.integers(0, 6))):
        as_type = draw(st.sampled_from(key_types))
        pairs.append((draw(_key(n, as_type, clean)), draw(values)))
        if draw(st.booleans()):
            earlier_key, earlier_value = draw(st.sampled_from(pairs))
            perm = draw(st.permutations(list(earlier_key)))
            value = draw(st.one_of(st.just(earlier_value), values))
            pairs.append((type(earlier_key)(perm), value))
    return pairs


# ---------------------------------------------------------------------------
# equivalence properties
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_init_matches_the_per_entry_reader(data):
    n = data.draw(st.integers(2, 4))
    pairs = data.draw(_pairs(n, [tuple]))
    entries = dict(pairs)
    assert _outcome(lambda: CubicForm(n, entries)) == _outcome(
        lambda: reference_init(n, entries)
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_init_matches_the_per_entry_reader_on_repeated_and_list_keys(data):
    n = data.draw(st.integers(2, 4))
    entries = _Pairs(data.draw(_pairs(n, [tuple, list])))
    assert _outcome(lambda: CubicForm(n, entries)) == _outcome(
        lambda: reference_init(n, entries)
    )


_BAD_ITEMS = st.sampled_from(
    [
        5,
        [1, 1, 1],
        {"idx": [1, 1, 1]},
        {"value": 1.0},
        {"idx": [1, 1, 1], "value": 1.0, "extra": 0},
        {"idx": [1, 1, 1], "extra": 0},
    ]
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_from_json_dict_matches_the_per_entry_reader(data):
    n = data.draw(st.integers(2, 4))
    items = [
        {"idx": key, "value": value}
        for key, value in data.draw(_pairs(n, [list, tuple]))
    ]
    if data.draw(st.booleans()):
        items.insert(data.draw(st.integers(0, len(items))), data.draw(_BAD_ITEMS))
    payload = {"n": n, "entries": items}
    assert _outcome(lambda: CubicForm.from_json_dict(payload)) == _outcome(
        lambda: reference_from_json(payload)
    )


@pytest.mark.parametrize(
    "entries",
    [
        {(1, 1, 2): 0.0, (1, 2, 1): -0.0, (2, 1, 1): 5.0},
        {(1, 1, 2): -0.0, (2, 1, 1): 0.0, (1, 2, 1): 5.0},
        {(1, 2, 3): 1.0, (3, 2, 1): 1, (2, 3, 1): True},
        {(True, 2, 3): 1.0, (1, 2, 3): 2.0},
        {(1.0, 2, 3): 1.0, (np.int64(1), 2, 3): 2.0},
        {(1, 2, 4): 1.0},
        {(1, 2, 3): math.nan},
        {(0, 2, 3): math.nan},
        {(1, 2, 3): -math.inf},
    ],
)
def test_init_refusals_and_signed_zeros_match_the_per_entry_reader(entries):
    # the conflict message names the value stored last: -0.0 or 0.0
    assert _outcome(lambda: CubicForm(3, entries)) == _outcome(
        lambda: reference_init(3, entries)
    )


def test_from_json_dict_refuses_any_duplicate_triple():
    payload = {
        "n": 3,
        "entries": [{"idx": [1, 2, 3], "value": 1.0}, {"idx": [3, 1, 2], "value": 1.0}],
    }
    with pytest.raises(ConflictingEntry, match=r"triple \[3, 1, 2\]"):
        CubicForm.from_json_dict(payload)
    assert _outcome(lambda: CubicForm.from_json_dict(payload)) == _outcome(
        lambda: reference_from_json(payload)
    )


# ---------------------------------------------------------------------------
# round trips through every route in and out of the dense array
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 13))
def test_round_trips_keep_the_dense_array(n):
    rng = np.random.default_rng([27, n])
    h = random_cubic_form(n, 4.0, rng)
    sparse = CubicForm(n, dict(list(h.entries.items())[:: n + 1]))
    for g in (h, sparse):
        want = g.dense_view.tobytes()
        assert g.entries == reference_entries(g)
        assert repr(g) == f"CubicForm(n={n}, nnz={len(reference_entries(g))})"
        assert CubicForm(n, g.entries).dense_view.tobytes() == want
        assert CubicForm.from_json_dict(g.to_json_dict()).dense_view.tobytes() == want
        assert CubicForm.from_dense(g.dense_view).dense_view.tobytes() == want
        assert g.scaled(1.0).dense_view.tobytes() == want
        doubled = reference_scaled(g, -2.0).tobytes()
        assert g.scaled(-2.0).dense_view.tobytes() == doubled
        # entries up to 4 in size: 1e308 overflows some and not others
        overflow = _outcome(lambda: g.scaled(1e308))
        assert overflow == _outcome(lambda: reference_scaled(g, 1e308))
        assert g is sparse or overflow[0] is InvariantViolation


@pytest.mark.parametrize(
    "t",
    [0.0, -0.0, 1e-320, -1e-300, 1e308, math.inf, -math.inf, math.nan, 3, True, "2"],
)
def test_scaled_matches_the_per_entry_reader(t):
    h = CubicForm(4, {(1, 1, 2): 3.0, (2, 3, 4): -1e-10, (4, 4, 4): 2.5})
    for g in (h, CubicForm(4)):
        assert _outcome(lambda: g.scaled(t)) == _outcome(lambda: reference_scaled(g, t))
