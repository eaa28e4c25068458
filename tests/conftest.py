import numpy as np
import pytest
from hypothesis import settings

from deltainv import (
    EqualityParamsT1,
    EqualityParamsT2,
    PartitionSpec,
    build_t1,
    build_t2,
)

# CI runs the property tests with ``--hypothesis-profile=ci``: the same
# examples on every run, no deadline for a slow shared runner, and no
# example database written; local runs keep the default profile
settings.register_profile("ci", derandomize=True, database=None, deadline=None)


@pytest.fixture
def t1_witness_n3():
    """The standard non-saturating equality tensor: n=3, blocks (2,), lambda=2."""
    P = PartitionSpec(3, (2,))
    return build_t1(EqualityParamsT1(P, [2.0])), P


@pytest.fixture
def t2_witness_n4():
    """Saturating equality tensor on n=4, blocks (2,2), trace 4 on index 1."""
    P = PartitionSpec(4, (2, 2))
    inblock = [np.zeros((2, 2, 2)), np.zeros((2, 2, 2))]
    inblock[0][0, 0, 0] = 4.0
    return build_t2(EqualityParamsT2(P, inblock)), P
