"""Every value type of the package is immutable, as the README says, and
every public input type takes exactly the settings pinned here."""

import ast
import dataclasses
import types
from fractions import Fraction
from pathlib import Path

import numpy as np

import pytest

import deltainv
from deltainv import (
    CampaignConfig,
    CubicForm,
    CubicPotential,
    EqualityParamsT1,
    EqualityParamsT2,
    Frame,
    OptimizerOptions,
    PartitionSpec,
    delta_invariant,
    immerse,
    potential_from_tensor,
)
from deltainv.quadforms import QuadraticFormBundle, build_M

PACKAGE = Path(deltainv.__file__).resolve().parent

# running totals, updated in place as rows stream past
MUTABLE = {"CampaignSummary"}


def _dataclasses():
    """(module, class, frozen) for every ``@dataclass`` class in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for deco in node.decorator_list:
                call = deco if isinstance(deco, ast.Call) else None
                target = call.func if call else deco
                if getattr(target, "id", getattr(target, "attr", None)) != "dataclass":
                    continue
                frozen = call is not None and any(
                    kw.arg == "frozen" and getattr(kw.value, "value", None) is True
                    for kw in call.keywords
                )
                found.append((path.stem, node.name, frozen))
    return found


def test_every_dataclass_is_frozen():
    found = _dataclasses()
    # the scan sees the package's dataclasses, the mutable one included
    assert ("delta", "DeltaResult", True) in found
    assert ("campaign", "CampaignSummary", False) in found
    thawed = [(m, c) for m, c, frozen in found if not frozen and c not in MUTABLE]
    assert thawed == []


def _arrays(value):
    """Every ndarray reachable from value through the attributes of package
    objects (slotted or not) and through tuples and lists."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif type(value).__module__.startswith("deltainv."):
        names = getattr(type(value), "__slots__", None) or vars(value)
        for name in names:
            yield from _arrays(getattr(value, name))


def _values():
    """One instance of every value type, by class name."""
    P1, P2 = PartitionSpec(3, (2,)), PartitionSpec(4, (2, 2))
    h = CubicForm(3, {(1, 2, 3): 1.0, (3, 3, 3): 2.0})
    f = potential_from_tensor(h)
    return {
        "CubicForm": h,
        "Frame": Frame.identity(3),
        "DeltaResult": delta_invariant(h, 0.0, P1),
        "EqualityParamsT1": EqualityParamsT1(P1, [2.0]),
        "EqualityParamsT2": EqualityParamsT2(P2),
        "CubicPotential": f,
        "ImmersionPoint": immerse(f, [0.1, 0.2, 0.3]),
        "QuadraticFormBundle": build_M(P2, 1, Fraction(1, 6)),
    }


def test_every_array_of_a_value_type_is_read_only():
    for name, value in _values().items():
        arrays = list(_arrays(value))
        assert arrays, name
        writeable = [a.shape for a in arrays if a.flags.writeable]
        assert writeable == [], name


def test_no_value_type_holds_a_mutable_container():
    # a list field of a frozen dataclass can still be appended to
    for name, value in _values().items():
        names = getattr(type(value), "__slots__", None) or vars(value)
        for field_name in names:
            held = getattr(value, field_name)
            assert not isinstance(held, (list, dict, set)), (name, field_name)


# Every init field must be able to change a result; a new one shows up here.
# EqualityParamsT2's traces and QuadraticFormBundle's matrices are derived.
_INPUT_FIELDS = {
    OptimizerOptions: ("restarts", "max_iters", "seed"),
    CampaignConfig: (
        "seed", "samples", "n_range", "partitions", "c_values", "tensor_scale",
    ),
    PartitionSpec: ("n", "blocks"),
    EqualityParamsT1: ("P", "lambdas", "inblock"),
    EqualityParamsT2: ("P", "inblock"),
    CubicPotential: ("coefficients",),
    QuadraticFormBundle: ("P", "ell", "C"),
}


@pytest.mark.parametrize("cls", _INPUT_FIELDS, ids=lambda cls: cls.__name__)
def test_input_types_take_exactly_the_pinned_settings(cls):
    names = tuple(f.name for f in dataclasses.fields(cls) if f.init)
    assert names == _INPUT_FIELDS[cls]


# The public surface, pinned: a new alias, route or knob shows up here.
_PUBLIC_NAMES = [
    "ALL_SOURCES", "BadBlockIndex", "BoundCoefficients", "CampaignConfig",
    "CampaignSummary", "CaseMismatch", "ConflictingEntry", "CubicForm",
    "CubicPotential", "DeltaResult", "DeltainvError", "DimensionMismatch",
    "EmptyList", "EqualIndices", "EqualityParamsT1", "EqualityParamsT2",
    "FormatError", "Frame", "ImmersionPoint", "InadmissiblePartition",
    "IndexOutOfRange", "InequalityReport", "InvariantViolation", "LEGACY_CD",
    "LEGACY_CDVV", "NotApplicable", "OptimizerOptions", "PartitionSpec",
    "QuadraticFormBundle", "RankDeficientFrame", "STATEMENT_I", "STATEMENT_II",
    "SingularMetric", "THEOREM1", "THEOREM2", "UnsupportedDimension",
    "Violation", "build_M", "build_statement2_matrix", "build_t1", "build_t2",
    "check_t1", "check_t2", "coeff_legacy_cd", "coeff_legacy_cdvv",
    "coeff_theorem1", "coeff_theorem2", "critical_C", "delta_coordinate_oracle",
    "delta_invariant", "det_closed", "enumerate_partitions", "evaluate",
    "immerse", "kernel_solution_theorem2", "lagrangian_check",
    "lemma1_roundtrip", "mean_curvature_sq", "optimal_coefficients",
    "potential_from_tensor", "psd_verdict", "psd_verdict_minors",
    "random_cubic_form", "random_witness", "rotate", "run_campaign",
    "scalar_curvature", "second_fundamental_form_numeric",
    "sectional_curvature", "shared_b", "tau_subspace", "universal_check",
]

_PUBLIC_ATTRIBUTES = {
    "CubicForm": [
        "dense_view", "entries", "from_dense", "from_json_dict", "lookup", "n",
        "scaled", "to_json_dict",
    ],
    "Frame": ["identity", "matrix", "n", "random"],
    "QuadraticFormBundle": ["C", "M", "Mprime", "P", "ell", "minors"],
}


def test_the_package_exports_exactly_the_pinned_names():
    # submodules are left out: whether deltainv.cli is loaded depends on
    # what else has been imported
    names = sorted(
        name for name, value in vars(deltainv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == _PUBLIC_NAMES


@pytest.mark.parametrize("name", sorted(_PUBLIC_ATTRIBUTES))
def test_value_types_have_exactly_the_pinned_attributes(name):
    value = _values()[name]
    assert sorted(a for a in dir(value) if not a.startswith("_")) == _PUBLIC_ATTRIBUTES[name]
