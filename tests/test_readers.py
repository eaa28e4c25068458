"""Readers of outside arrays and lists: the cube reader ``tensors._as_cube``,
the list reader ``tensors._as_list``, and every public reader built on them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltainv import (
    CampaignConfig,
    ConflictingEntry,
    CubicForm,
    CubicPotential,
    DeltainvError,
    DimensionMismatch,
    EqualityParamsT1,
    EqualityParamsT2,
    FormatError,
    Frame,
    InvariantViolation,
    OptimizerOptions,
    PartitionSpec,
    STATEMENT_I,
    STATEMENT_II,
    THEOREM2,
    UnsupportedDimension,
    build_M,
    build_statement2_matrix,
    critical_C,
    kernel_solution_theorem2,
    lagrangian_check,
    lemma1_roundtrip,
    potential_from_tensor,
    random_cubic_form,
    random_witness,
    tau_subspace,
)

# ---------------------------------------------------------------------------
# the cube reader's four failures, through each of its callers
# ---------------------------------------------------------------------------

_ASYMMETRIC = np.zeros((2, 2, 2))
_ASYMMETRIC[0, 0, 1] = 1.0

_NON_FINITE = np.zeros((2, 2, 2))
_NON_FINITE[1, 1, 1] = np.inf

_CUBES = {
    "string": ([[["1", 0], [0, 0]], [[0, 0], [0, 0]]], FormatError),
    "boolean": ([[[True, 0], [0, 0]], [[0, 0], [0, 0]]], FormatError),
    "not-cubic": (np.zeros((2, 2, 3)), DimensionMismatch),
    "wrong-side": (np.zeros((3, 3, 3)), DimensionMismatch),
    "non-finite": (_NON_FINITE, InvariantViolation),
    "asymmetric": (_ASYMMETRIC, ConflictingEntry),
    "empty": (np.zeros((0, 0, 0)), UnsupportedDimension),
}

_CUBE_CALLERS = {
    "from_dense": CubicForm.from_dense,
    "inblock-t1": lambda a: EqualityParamsT1(PartitionSpec(3, (2,)), [1.0], [a]),
    "inblock-t2": lambda a: EqualityParamsT2(PartitionSpec(4, (2, 2)), [a, None]),
    "potential": CubicPotential,
}


@pytest.mark.parametrize(
    "caller, case",
    [(c, k) for c in _CUBE_CALLERS for k in _CUBES
     # from_dense and a potential take any side; to an in-block array, an
     # empty one is of the wrong side
     if not (k == "wrong-side" and c in ("from_dense", "potential"))
     and not (k == "empty" and c.startswith("inblock"))],
)
def test_cube_reader_errors(caller, case):
    array, error = _CUBES[case]
    with pytest.raises(error):
        _CUBE_CALLERS[caller](array)


def test_potential_refuses_one_ulp_of_asymmetry():
    a = random_cubic_form(4, 1.0, np.random.default_rng(5)).dense_view.copy()
    a[0, 1, 2] = np.nextafter(a[0, 1, 2], np.inf)
    with pytest.raises(ConflictingEntry):
        CubicPotential(a)
    # from_dense averages the same ulp away
    CubicForm.from_dense(a)


def test_potential_keeps_an_exactly_symmetric_array():
    h = random_cubic_form(5, 3.0, np.random.default_rng(6))
    f = potential_from_tensor(h)
    assert np.array_equal(f.coefficients, h.dense_view)


_H3 = CubicForm(3, {(1, 2, 3): 1.0, (1, 1, 1): 0.5})

_POINT_READERS = {
    "lemma1_roundtrip": lambda x: lemma1_roundtrip(_H3, x),
    "lagrangian_check": lambda x: lagrangian_check(potential_from_tensor(_H3), x),
}


@pytest.mark.parametrize("point", [[np.inf, 0, 0], [0, np.nan, 0]])
@pytest.mark.parametrize("reader", sorted(_POINT_READERS))
def test_non_finite_base_point_is_refused(reader, point):
    with pytest.raises(InvariantViolation):
        _POINT_READERS[reader](point)


def test_cubic_form_entries_must_be_a_mapping():
    with pytest.raises(FormatError, match="entries must map triples to values"):
        CubicForm(3, [((1, 1, 1), 1.0)])


@pytest.mark.parametrize("rows", ["x", [[1, True], [0, 1]], [[1, 0], [0]]])
def test_frame_rows_must_be_numbers(rows):
    with pytest.raises(FormatError):
        Frame(rows)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n_range", 3, "n_range must be a list, got 3"),
        ("n_range", [3], "n_range must hold 2 items, got 1"),
        ("n_range", None, "n_range must be a list, got None"),
        ("c_values", 1, "c_values must be a list, got 1"),
        ("partitions", [2], "blocks must be a list, got 2"),
        ("partitions", 2, "partitions must be a list, got 2"),
    ],
)
def test_campaign_config_list_fields(field, value, message):
    with pytest.raises(FormatError, match=f"^{message}$"):
        CampaignConfig(seed=1, samples=3, **{field: value})
    with pytest.raises(FormatError, match=f"^{message}$"):
        CampaignConfig.from_json_dict({"seed": 1, "samples": 3, field: value})


# ---------------------------------------------------------------------------
# every reader of outside values raises only DeltainvError
# ---------------------------------------------------------------------------

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-20, max_value=20),
    st.sampled_from([10**400, -(10**400), 2**64, 1e308, -1e308, 1e-320]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
)
_JSON = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=2), kids, max_size=3),
    max_leaves=12,
)


def _nested(side: int, depth: int, leaf):
    """Lists of ``side`` items nested ``depth`` deep: a vector, a matrix or
    a cube when the leaves are numbers."""
    inner = leaf
    for _ in range(depth):
        inner = st.lists(inner, min_size=side, max_size=side)
    return inner


def _arrays(depth: int):
    """A regular array of numbers, a ragged or mistyped one, or any value."""
    numbers = st.floats(min_value=-1e3, max_value=1e3) | _SCALARS
    regular = st.integers(1, 4).flatmap(lambda m: _nested(m, depth, numbers))
    ragged = st.lists(st.lists(numbers, max_size=3), min_size=1, max_size=3)
    return st.one_of(regular, ragged, _JSON)


_CASES = [STATEMENT_I, STATEMENT_II, THEOREM2]

_READERS = {
    "CubicForm": (
        st.tuples(
            st.just(3) | _JSON,
            _JSON | st.dictionaries(st.tuples(_SCALARS, _SCALARS, _SCALARS) | _SCALARS,
                                    _SCALARS, max_size=3),
        ),
        lambda v: CubicForm(v[0], v[1]),
    ),
    "CubicForm.from_json_dict": (
        _JSON | st.fixed_dictionaries(
            {"n": _JSON | st.just(3),
             "entries": _JSON | st.lists(st.fixed_dictionaries(
                 {"idx": _JSON | _nested(3, 1, _SCALARS), "value": _JSON}), max_size=3)}
        ),
        CubicForm.from_json_dict,
    ),
    "CubicForm.from_dense": (_arrays(3), CubicForm.from_dense),
    "PartitionSpec": (st.tuples(_JSON, _JSON), lambda v: PartitionSpec(*v)),
    "Frame": (_arrays(2), Frame),
    "CampaignConfig": (
        st.fixed_dictionaries(
            {"seed": st.just(1) | _JSON, "samples": st.just(2)},
            optional={"n_range": _JSON, "c_values": _JSON, "partitions": _JSON,
                      "tensor_scale": _JSON},
        ),
        lambda kwargs: CampaignConfig(**kwargs),
    ),
    "CampaignConfig.from_json_dict": (
        _JSON | st.fixed_dictionaries(
            {"samples": st.just(2)},
            optional={"n_range": _JSON, "c_values": _JSON, "partitions": _JSON},
        ),
        CampaignConfig.from_json_dict,
    ),
    "EqualityParamsT1": (
        st.tuples(_arrays(1), _JSON | st.lists(_arrays(3), max_size=2)),
        lambda v: EqualityParamsT1(PartitionSpec(5, (2,)), *v),
    ),
    "EqualityParamsT2": (
        _JSON | st.lists(_arrays(3), max_size=3),
        lambda v: EqualityParamsT2(PartitionSpec(5, (2, 3)), v),
    ),
    "CubicPotential": (_arrays(3), CubicPotential),
    "build_M": (
        st.tuples(st.integers(0, 3) | _JSON, _JSON),
        lambda v: build_M(PartitionSpec(5, (2, 2)), *v),
    ),
    "critical_C": (
        st.tuples(st.integers(0, 3) | _JSON, st.sampled_from(_CASES) | _JSON),
        lambda v: critical_C(PartitionSpec(5, (2, 2)), *v),
    ),
    "kernel_solution_theorem2": (
        st.integers(0, 3) | _JSON,
        lambda ell: kernel_solution_theorem2(PartitionSpec(4, (2, 2)), ell),
    ),
    "build_statement2_matrix": (
        st.tuples(st.integers(0, 6) | _JSON, _JSON),
        lambda v: build_statement2_matrix(PartitionSpec(5, (2, 2)), *v),
    ),
    "random_witness": (
        st.tuples(st.sampled_from([1, 2]) | _JSON, st.just(0) | _JSON),
        lambda v: random_witness(v[0], PartitionSpec(5, (2, 2)), v[1]),
    ),
    "random_cubic_form": (
        st.tuples(st.integers(1, 13) | _JSON, _JSON),
        lambda v: random_cubic_form(*v, np.random.default_rng(0)),
    ),
    "CubicForm.scaled": (_JSON, _H3.scaled),
    "tau_subspace": (
        st.tuples(
            st.just(0.5) | _JSON,
            _JSON | st.lists(st.integers(0, 4) | _SCALARS, max_size=4)
            | st.frozensets(st.integers(0, 4), max_size=4),
        ),
        lambda v: tau_subspace(_H3, *v),
    ),
    "OptimizerOptions": (
        st.fixed_dictionaries(
            {},
            optional={name: st.integers(-2, 4) | _JSON
                      for name in ("restarts", "max_iters", "seed")},
        ),
        lambda kwargs: OptimizerOptions(**kwargs),
    ),
    **{name: (_arrays(1), read) for name, read in _POINT_READERS.items()},
}


@pytest.mark.parametrize("reader", sorted(_READERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reader_raises_only_deltainv_errors(reader, data):
    """Each reader of JSON-like values returns or raises a DeltainvError.
    Arithmetic on huge finite values may overflow: those are numpy warnings,
    which the CLI also ignores, not errors."""
    strategy, call = _READERS[reader]
    value = data.draw(strategy)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            call(value)
        except DeltainvError:
            pass
