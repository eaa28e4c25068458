"""Equality-attaining tensors: builders, checkers, sharpness."""

import itertools

import numpy as np
import pytest

from deltainv import (
    ConflictingEntry,
    EqualityParamsT1,
    EqualityParamsT2,
    FormatError,
    InadmissiblePartition,
    InvariantViolation,
    LEGACY_CDVV,
    OptimizerOptions,
    CubicForm,
    PartitionSpec,
    THEOREM1,
    THEOREM2,
    build_t1,
    build_t2,
    check_t1,
    check_t2,
    coeff_legacy_cdvv,
    enumerate_partitions,
    evaluate,
    mean_curvature_sq,
    optimal_coefficients,
    random_cubic_form,
    random_witness,
)
from deltainv.equality import Violation

OPTS = OptimizerOptions(restarts=6, max_iters=300, seed=3)


def brute_force_t1_scan(h, P, tol=1e-10):
    """Independent enumeration of every non-saturating equality condition."""
    owner = {}
    for i, block in enumerate(P.index_blocks, start=1):
        for v in block:
            owner[v] = i
    kp1 = P.k + 1
    count = 0
    for a, b, c in itertools.combinations(range(1, P.n + 1), 3):
        if not (owner[a] == owner[b] == owner[c] != kp1):
            if abs(h.lookup(a, b, c)) > tol:
                count += 1
    leading = P.index_blocks[: P.k]
    residual = P.index_blocks[P.k]
    for i, block_i in enumerate(leading, start=1):
        for a in block_i:
            for j, block_j in enumerate(leading, start=1):
                if i != j:
                    for b in block_j:
                        if abs(h.lookup(a, b, b)) > tol:
                            count += 1
            for r in residual:
                if abs(h.lookup(a, r, r)) > tol:
                    count += 1
            if abs(sum(h.lookup(a, b, b) for b in block_i)) > tol:
                count += 1
    for r in residual:
        top = h.lookup(r, r, r)
        for s in residual:
            if s != r and abs(top - 3 * h.lookup(r, s, s)) > tol:
                count += 1
        for size, block in zip(P.blocks, leading):
            for a in block:
                if abs(top - (size + 2) * h.lookup(r, a, a)) > tol:
                    count += 1
    return count


def brute_force_t2_scan(h, P, tol=1e-10):
    """Independent enumeration of every saturating equality condition."""
    owner = {}
    for i, block in enumerate(P.index_blocks[: P.k], start=1):
        for v in block:
            owner[v] = i
    count = 0
    for a, b in itertools.combinations(range(1, P.n + 1), 2):
        if owner[a] == owner[b]:
            continue
        for A in range(1, P.n + 1):
            if A not in (a, b) and abs(h.lookup(A, a, b)) > tol:
                count += 1
    minimal = min(P.blocks)
    leading = P.index_blocks[: P.k]
    for j, (size_j, block_j) in enumerate(zip(P.blocks, leading), start=1):
        for b in block_j:
            trace = sum(h.lookup(b, a, a) for a in block_j)
            if size_j != minimal:
                if abs(trace) > tol:
                    count += 1
                for i, block_i in enumerate(leading, start=1):
                    if i != j:
                        for a in block_i:
                            if abs(h.lookup(b, a, a)) > tol:
                                count += 1
            else:
                for i, (size_i, block_i) in enumerate(zip(P.blocks, leading), start=1):
                    if i != j:
                        for a in block_i:
                            if abs(trace - (size_i + 2) * h.lookup(b, a, a)) > tol:
                                count += 1
    return count


# ---------------------------------------------------------------------------
# index-loop references: the builders and checkers written block by block
# ---------------------------------------------------------------------------


def _block_id(P):
    """Map 1-based index -> block number (k+1 for the residual block)."""
    owner = {}
    for i, block in enumerate(P.index_blocks, start=1):
        for v in block:
            owner[v] = i
    return owner


def reference_build_t1(params):
    P = params.P
    n = P.n
    T = np.zeros((n, n, n))
    residual = P.index_blocks[P.k]
    leading = P.index_blocks[: P.k]

    for arr, block in zip(params.inblock, leading):
        idx = np.asarray(block) - 1
        T[np.ix_(idx, idx, idx)] = arr

    for lam, r in zip(params.lambdas, residual):
        r0 = r - 1
        T[r0, r0, r0] = lam
        for s in residual:
            if s == r:
                continue
            s0 = s - 1
            for p in ((s0, s0, r0), (s0, r0, s0), (r0, s0, s0)):
                T[p] = lam / 3.0
        for size, block in zip(P.blocks, leading):
            v = lam / (size + 2)
            for a in block:
                a0 = a - 1
                for p in ((a0, a0, r0), (a0, r0, a0), (r0, a0, a0)):
                    T[p] = v
    return CubicForm.from_dense(T)


def reference_build_t2(params):
    P = params.P
    n = P.n
    T = np.zeros((n, n, n))
    minimal = min(P.blocks)
    leading = P.index_blocks[: P.k]

    for arr, block in zip(params.inblock, leading):
        idx = np.asarray(block) - 1
        T[np.ix_(idx, idx, idx)] = arr

    for j, (size_j, block_j) in enumerate(zip(P.blocks, leading)):
        if size_j != minimal:
            continue
        for pos, b in enumerate(block_j):
            t = params.traces[j][pos]
            if t == 0.0:
                continue
            b0 = b - 1
            for i, (size_i, block_i) in enumerate(zip(P.blocks, leading)):
                if i == j:
                    continue
                v = t / (size_i + 2)
                for a in block_i:
                    a0 = a - 1
                    for p in ((a0, a0, b0), (a0, b0, a0), (b0, a0, a0)):
                        T[p] = v
    return CubicForm.from_dense(T)


def reference_check_t1(h, P, tol=1e-10):
    owner = _block_id(P)
    kp1 = P.k + 1
    T = h.dense_view
    out = []

    for a in range(1, P.n + 1):
        for b in range(a + 1, P.n + 1):
            for c in range(b + 1, P.n + 1):
                same_leading = owner[a] == owner[b] == owner[c] != kp1
                if same_leading:
                    continue
                v = T[a - 1, b - 1, c - 1]
                if abs(v) > tol:
                    out.append(Violation("bullet1", (a, b, c), abs(v)))

    residual = P.index_blocks[P.k]
    leading = P.index_blocks[: P.k]

    for i, block_i in enumerate(leading, start=1):
        for a in block_i:
            for j, block_j in enumerate(leading, start=1):
                if i == j:
                    continue
                for b in block_j:
                    v = T[a - 1, b - 1, b - 1]
                    if abs(v) > tol:
                        out.append(Violation("bullet2-cross", (a, b, b), abs(v)))
            for r in residual:
                v = T[a - 1, r - 1, r - 1]
                if abs(v) > tol:
                    out.append(Violation("bullet2-residual", (a, r, r), abs(v)))
            trace = sum(T[a - 1, b - 1, b - 1] for b in block_i)
            if abs(trace) > tol:
                out.append(Violation("bullet2-trace", (a,), abs(trace)))

    for r in residual:
        top = T[r - 1, r - 1, r - 1]
        for s in residual:
            if s == r:
                continue
            v = top - 3.0 * T[r - 1, s - 1, s - 1]
            if abs(v) > tol:
                out.append(Violation("bullet3-residual", (r, s, s), abs(v)))
        for size, block in zip(P.blocks, leading):
            for a in block:
                v = top - (size + 2) * T[r - 1, a - 1, a - 1]
                if abs(v) > tol:
                    out.append(Violation("bullet3-block", (r, a, a), abs(v)))
    return out


def reference_check_t2(h, P, tol=1e-10):
    owner = _block_id(P)
    T = h.dense_view
    out = []
    minimal = min(P.blocks)
    leading = P.index_blocks[: P.k]

    for a in range(1, P.n + 1):
        for b in range(a + 1, P.n + 1):
            if owner[a] == owner[b]:
                continue
            for A in range(1, P.n + 1):
                if A in (a, b):
                    continue
                v = T[A - 1, a - 1, b - 1]
                if abs(v) > tol:
                    out.append(Violation("bullet1", (A, a, b), abs(v)))

    for j, (size_j, block_j) in enumerate(zip(P.blocks, leading), start=1):
        for b in block_j:
            trace = sum(T[b - 1, a - 1, a - 1] for a in block_j)
            if size_j != minimal:
                if abs(trace) > tol:
                    out.append(Violation("nonminimal-trace", (b,), abs(trace)))
                for i, block_i in enumerate(leading, start=1):
                    if i == j:
                        continue
                    for a in block_i:
                        v = T[b - 1, a - 1, a - 1]
                        if abs(v) > tol:
                            out.append(
                                Violation("nonminimal-cross", (b, a, a), abs(v))
                            )
            else:
                for i, (size_i, block_i) in enumerate(zip(P.blocks, leading), start=1):
                    if i == j:
                        continue
                    for a in block_i:
                        v = trace - (size_i + 2) * T[b - 1, a - 1, a - 1]
                        if abs(v) > tol:
                            out.append(
                                Violation("minimal-spread", (b, a, a), abs(v))
                            )
    return out


REFERENCE_PARTITIONS = [P for n in range(3, 10) for P in enumerate_partitions(n)]


def _random_params(P, rng):
    """Builder parameters as ``random_witness`` draws them, plus a few zeros."""
    h = random_witness(1 if P.residual else 2, P, seed=int(rng.integers(1 << 30)))
    inblock = [
        h.dense_view[np.ix_(idx, idx, idx)]
        for idx in (np.asarray(block) - 1 for block in P.index_blocks[: P.k])
    ]
    if P.residual:
        lambdas = rng.uniform(-2.0, 2.0, size=P.residual)
        lambdas[rng.random(P.residual) < 0.3] = 0.0
        return EqualityParamsT1(P, lambdas, inblock)
    return EqualityParamsT2(P, inblock)


def _assert_same_violations(got, want):
    assert [(v.bullet, v.indices) for v in got] == [(v.bullet, v.indices) for v in want]
    for g, w in zip(got, want):
        assert g.residual == pytest.approx(w.residual, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("P", REFERENCE_PARTITIONS, ids=str)
def test_builders_match_index_loop_reference(P):
    rng = np.random.default_rng(P.n * 100 + sum(P.blocks) + P.k)
    for _ in range(3):
        params = _random_params(P, rng)
        if P.residual:
            got, want = build_t1(params), reference_build_t1(params)
        else:
            got, want = build_t2(params), reference_build_t2(params)
        assert np.array_equal(got.dense_view, want.dense_view)


@pytest.mark.parametrize("P", REFERENCE_PARTITIONS, ids=str)
def test_checkers_match_index_loop_reference(P):
    rng = np.random.default_rng(P.n * 1000 + sum(P.blocks) + P.k)
    theorem = 1 if P.residual else 2
    checker = check_t1 if theorem == 1 else check_t2
    reference = reference_check_t1 if theorem == 1 else reference_check_t2
    own = P.owner
    for seed in range(3):
        witness = random_witness(theorem, P, seed=seed)
        # one perturbed entry anywhere, and one h^a_{bb} across two blocks,
        # which every equality case constrains
        a = int(rng.integers(P.n))
        b = int(rng.choice(np.flatnonzero(own != own[a])))
        anywhere = _perturbed(witness, rng.integers(0, P.n, size=3))
        across = _perturbed(witness, (a, b, b))
        cases = [witness, anywhere, across, random_cubic_form(P.n, 1.0, rng)]
        for h in cases:
            _assert_same_violations(checker(h, P), reference(h, P))
        assert checker(witness, P) == []
        assert checker(across, P) != []


def _perturbed(h, position, eps=1e-3):
    """h with eps added to one entry (all of its symmetric positions)."""
    T = h.dense_view.copy()
    for p in set(itertools.permutations(position)):
        T[p] += eps
    return CubicForm.from_dense(T)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_t1_params_validation():
    P = PartitionSpec(3, (2,))
    with pytest.raises(InvariantViolation):
        EqualityParamsT1(P, [1.0, 2.0])  # wrong count for one residual index
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 0] = 1.0  # nonzero partial trace
    with pytest.raises(InvariantViolation):
        EqualityParamsT1(P, [1.0], [bad])
    with pytest.raises(InadmissiblePartition):
        EqualityParamsT1(PartitionSpec(4, (2, 2)), [])


def test_t2_params_validation():
    with pytest.raises(InadmissiblePartition):
        EqualityParamsT2(PartitionSpec(5, (2, 2)))
    P = PartitionSpec(5, (2, 3))
    bad = np.zeros((3, 3, 3))
    bad[0, 0, 0] = 1.0  # nonzero trace on the non-minimal block
    with pytest.raises(InvariantViolation):
        EqualityParamsT2(P, [None, bad])
    # the traces are derived from the arrays, never declared
    good = np.zeros((2, 2, 2))
    good[0, 0, 0] = 4.0
    with pytest.raises(TypeError):
        EqualityParamsT2(P, [good, None], traces=[[4.0, 0.0], None])
    params = EqualityParamsT2(P, [good, None])
    assert params.traces[0].tolist() == [4.0, 0.0]
    assert params.traces[1].tolist() == [0.0, 0.0, 0.0]


def test_params_keep_their_own_read_only_arrays():
    # writing to the caller's array after validation must not reach the
    # builders, so the tensor still meets the conditions it was checked for
    arr = np.zeros((2, 2, 2))
    params1 = EqualityParamsT1(PartitionSpec(3, (2,)), [2.0], [arr])
    params2 = EqualityParamsT2(PartitionSpec(4, (2, 2)), [arr, None])
    arr[0, 0, 0] = 5.0
    assert check_t1(build_t1(params1), params1.P) == []
    assert check_t2(build_t2(params2), params2.P) == []
    for stored in (params1.inblock[0], params2.inblock[0], params2.traces[0]):
        with pytest.raises(ValueError):
            stored[0] = 1.0


def test_t1_nonsymmetric_inblock_rejected():
    P = PartitionSpec(5, (3,))
    arr = np.zeros((3, 3, 3))
    arr[0, 1, 2] = 1.0  # single position, not symmetrized
    with pytest.raises(ConflictingEntry):
        EqualityParamsT1(P, [1.0, 1.0], [arr])


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def test_build_t1_example_entries(t1_witness_n3):
    h, _ = t1_witness_n3
    assert h.entries == {(1, 1, 3): 0.5, (2, 2, 3): 0.5, (3, 3, 3): 2.0}


def test_build_t1_zero_params():
    P = PartitionSpec(4, (2,))
    h = build_t1(EqualityParamsT1(P, [0.0, 0.0]))
    assert h.entries == {}


def test_build_t1_nonminimal_trace():
    P = PartitionSpec(5, (2, 2))
    h = build_t1(EqualityParamsT1(P, [5.0]))
    assert h.lookup(5, 5, 5) == 5.0
    for a in range(1, 5):
        assert h.lookup(a, a, 5) == pytest.approx(5.0 / 4.0)
    trace = sum(h.lookup(a, a, 5) for a in range(1, 6))
    assert trace == pytest.approx(10.0)
    assert mean_curvature_sq(h) == pytest.approx(100.0 / 25.0)


def test_build_t1_residual_chain():
    P = PartitionSpec(5, (2,))  # residual block of size 3
    h = build_t1(EqualityParamsT1(P, [3.0, 0.0, -1.5]))
    # h^r_{ss} = lambda_r / 3 for distinct residual indices
    assert h.lookup(3, 4, 4) == pytest.approx(1.0)
    assert h.lookup(3, 5, 5) == pytest.approx(1.0)
    assert h.lookup(5, 3, 3) == pytest.approx(-0.5)
    assert h.lookup(5, 4, 4) == pytest.approx(-0.5)
    assert h.lookup(4, 3, 3) == 0.0
    assert check_t1(h, P) == []


def test_build_t2_example_entries(t2_witness_n4):
    h, _ = t2_witness_n4
    assert h.lookup(1, 1, 1) == 4.0
    assert h.lookup(1, 3, 3) == pytest.approx(1.0)
    assert h.lookup(1, 4, 4) == pytest.approx(1.0)
    assert h.lookup(2, 3, 3) == 0.0


def test_build_t2_zero_params():
    P = PartitionSpec(4, (2, 2))
    assert build_t2(EqualityParamsT2(P)).entries == {}


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


def test_check_t1_roundtrip(t1_witness_n3):
    h, P = t1_witness_n3
    assert check_t1(h, P) == []


def test_check_t1_detects_injected_defect(t1_witness_n3):
    h, P = t1_witness_n3
    perturbed = dict(h.entries)
    perturbed[(1, 2, 3)] = 1e-3
    bad = CubicForm(3, perturbed)
    violations = check_t1(bad, P)
    assert len(violations) == 1
    assert violations[0].bullet == "bullet1"
    assert violations[0].indices == (1, 2, 3)


def test_check_t2_roundtrip(t2_witness_n4):
    h, P = t2_witness_n4
    assert check_t2(h, P) == []


def test_check_matches_brute_force_scan():
    rng = np.random.default_rng(61)
    for _ in range(6):
        n = int(rng.integers(4, 7))
        parts = [P for P in __import__("deltainv").enumerate_partitions(n)]
        P = parts[int(rng.integers(len(parts)))]
        h = random_cubic_form(n, 1.0, rng)
        if P.residual >= 1:
            assert len(check_t1(h, P)) == brute_force_t1_scan(h, P)
        else:
            assert len(check_t2(h, P)) == brute_force_t2_scan(h, P)


def test_check_partition_guards(t1_witness_n3, t2_witness_n4):
    h1, P1 = t1_witness_n3
    h2, P2 = t2_witness_n4
    with pytest.raises(InadmissiblePartition):
        check_t1(h2, P2)  # saturating partition has no residual block
    with pytest.raises(InadmissiblePartition):
        check_t2(h1, P1)


# ---------------------------------------------------------------------------
# sharpness: the reason this module exists
# ---------------------------------------------------------------------------


def _assert_sharp(h, P, source):
    report = evaluate(h, 0.0, P, OPTS)
    hsq = mean_curvature_sq(h)
    assert hsq > 1e-6
    assert report.row(source).gap == pytest.approx(0.0, abs=1e-6)
    slack = float(coeff_legacy_cdvv(P).a - optimal_coefficients(P).a) * hsq
    assert report.row(LEGACY_CDVV).gap >= slack - 1e-6


def test_t1_witness_sharp(t1_witness_n3):
    h, P = t1_witness_n3
    _assert_sharp(h, P, THEOREM1)


def test_t2_witness_sharp(t2_witness_n4):
    h, P = t2_witness_n4
    _assert_sharp(h, P, THEOREM2)


def test_random_witnesses_sharp():
    cases = [
        (1, PartitionSpec(4, (2,))),
        (1, PartitionSpec(5, (2, 2))),
        (2, PartitionSpec(4, (2, 2))),
        (2, PartitionSpec(5, (2, 3))),
    ]
    for theorem, P in cases:
        h = random_witness(theorem, P, seed=101)
        checker = check_t1 if theorem == 1 else check_t2
        assert checker(h, P) == []
        source = THEOREM1 if theorem == 1 else THEOREM2
        _assert_sharp(h, P, source)


def test_random_witness_deterministic():
    P = PartitionSpec(4, (2, 2))
    a = random_witness(2, P, seed=7)
    b = random_witness(2, P, seed=7)
    c = random_witness(2, P, seed=8)
    assert a.entries == b.entries
    assert a.entries != c.entries


@pytest.mark.parametrize(
    "seed", [-1, 1.5, True, "1"], ids=["negative", "fractional", "bool", "str"]
)
def test_random_witness_rejects_a_bad_seed(seed):
    with pytest.raises(FormatError, match="seed"):
        random_witness(1, PartitionSpec(3, (2,)), seed=seed)


def test_random_witness_takes_an_integral_float_seed():
    P = PartitionSpec(3, (2,))
    assert random_witness(1, P, seed=2.0).entries == random_witness(1, P, seed=2).entries


@pytest.mark.parametrize("theorem", [True, 1.5, "1", None])
def test_random_witness_rejects_a_theorem_that_is_not_an_integer(theorem):
    # True once built a theorem-1 witness; 1.5 raised a TypeError
    with pytest.raises(InvariantViolation, match="theorem must be an integer"):
        random_witness(theorem, PartitionSpec(5, (2, 2)), seed=3)


def test_random_witness_rejects_a_negative_theorem_before_it_seeds():
    # SeedSequence once raised a ValueError on the negative entropy word
    with pytest.raises(InvariantViolation, match="theorem must be 1 or 2"):
        random_witness(-1, PartitionSpec(5, (2, 2)), seed=3)


def test_random_witness_reads_an_integral_float_theorem():
    P = PartitionSpec(5, (2, 2))
    assert np.array_equal(
        random_witness(1.0, P, seed=3).dense_view, random_witness(1, P, seed=3).dense_view
    )


def test_t2_inblock_three_distinct_indices_free():
    # blocks (2, 3): the size-3 block has a 3-distinct-index in-block entry
    P = PartitionSpec(5, (2, 3))
    h = random_witness(2, P, seed=13)
    assert check_t2(h, P) == []
    base = evaluate(h, 0.0, P, OPTS)
    assert base.row(THEOREM2).gap == pytest.approx(0.0, abs=1e-6)

    perturbed_entries = dict(h.entries)
    key = (3, 4, 5)
    perturbed_entries[key] = perturbed_entries.get(key, 0.0) + 0.1
    perturbed = CubicForm(5, perturbed_entries)
    assert check_t2(perturbed, P) == []
    report = evaluate(perturbed, 0.0, P, OPTS)
    assert report.row(THEOREM2).gap == pytest.approx(0.0, abs=1e-5)
