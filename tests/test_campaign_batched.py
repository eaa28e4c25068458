"""The chunked campaign against the per-sample loop.

``run_campaign`` draws every sample from its own seeded generator, in the
same order as the loop below, and orthonormalizes the Gaussian draws of a
chunk's samples of one dimension by one stacked QR.  The loop builds one
``Frame.random`` per sample.  Both call ``random_cubic_form`` and
``universal_check``, so their rows agree bit for bit, NaN gaps included.

The chunk seeds its generators from ``_seed_words``, a vectorized copy of
NumPy's ``SeedSequence`` hash; the loop and the tests below keep the real
``SeedSequence`` as the oracle.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from deltainv import Frame, random_cubic_form, universal_check
from deltainv import campaign
from deltainv.campaign import (
    _CHUNK,
    CampaignConfig,
    SampleResult,
    _chunk_rows,
    _draw,
    _generators,
    _partition_pool,
    _seed_words,
    run_campaign,
)

def _per_sample_row(config, pool, i):
    """Sample i alone: one tensor, one frame, one ``universal_check``."""
    lo, hi = config.n_range
    seed = (config.seed, i)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = int(rng.integers(lo, hi + 1))
    P = pool[n][int(rng.integers(len(pool[n])))]
    c = config.c_values[int(rng.integers(len(config.c_values)))]
    h = random_cubic_form(n, config.tensor_scale, rng)
    R = Frame.random(n, rng)
    gap = universal_check(h, P, R)
    return SampleResult(index=i, seed=seed, n=n, partition=P.blocks, c=c, gap=gap)


def _per_sample_campaign(config):
    """One sample at a time: the reference for ``run_campaign``."""
    pool = _partition_pool(config)
    for i in range(config.samples):
        yield _per_sample_row(config, pool, i)


def _assert_rows_match(rows, ref):
    assert len(rows) == len(ref)
    for row, want in zip(rows, ref):
        assert (row.index, row.seed, row.n, row.partition, row.c) == (
            want.index,
            want.seed,
            want.n,
            want.partition,
            want.c,
        )
        assert type(row.gap) is float
        if math.isnan(want.gap):
            assert math.isnan(row.gap), row
        else:
            assert row.gap == want.gap, row


@pytest.mark.parametrize(
    "config",
    [
        # acceptance 05's sampling plan, shortened
        dict(seed=20242, samples=3000, n_range=(3, 6), c_values=(-1.0, 0.0, 1.0)),
        # every dimension with an admissible partition (n = 2 has none)
        dict(seed=3, samples=600, n_range=(3, 12)),
        dict(seed=4, samples=400, n_range=(4, 7), partitions=[(2,), (2, 2), (3,)]),
        dict(seed=5, samples=300, c_values=(0.5,)),
        dict(seed=6, samples=300, tensor_scale=1e-3),
        dict(seed=7, samples=300, tensor_scale=1e3),
        # squares overflow: every gap is NaN, on both paths
        dict(seed=8, samples=300, n_range=(3, 4), tensor_scale=1e200),
        dict(seed=9, samples=_CHUNK + 37, n_range=(3, 5)),
        dict(seed=10, samples=2 * _CHUNK, n_range=(3, 5)),
        # seeds of three and four entropy words; with the index, four words
        # fill SeedSequence's pool and five overflow it
        dict(seed=2**64 + 5, samples=300, n_range=(3, 8)),
        dict(seed=10**30, samples=300, n_range=(3, 8)),
    ],
    ids=[
        "acceptance05-3000",
        "n3-12",
        "explicit-partitions",
        "single-c",
        "scale-1e-3",
        "scale-1e3",
        "scale-1e200",
        "chunk+37",
        "2chunks",
        "seed-2**64+5",
        "seed-10**30",
    ],
)
def test_chunked_campaign_matches_per_sample_loop(config):
    config = CampaignConfig(**config)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = list(run_campaign(config))
        ref = list(_per_sample_campaign(config))
    _assert_rows_match(rows, ref)


def test_nearly_singular_gaussian_draw_still_gives_a_row():
    """Sample 166390 of seed 1 draws a Gaussian matrix with |R_66| = 1.4e-7.
    Its Q is orthonormal all the same, so the row must not be refused."""
    config = CampaignConfig(seed=1, samples=166_391, n_range=(3, 6))
    pool = _partition_pool(config)
    d = _draw(config, pool, np.random.default_rng(np.random.SeedSequence((1, 166_390))))
    assert np.min(np.abs(np.diag(np.linalg.qr(d.gauss)[1]))) < 1e-6
    (row,) = _chunk_rows(config, pool, [166_390])
    assert row == _per_sample_row(config, pool, 166_390)


_WORD_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**30]
_WORD_INDICES = [0, 1, 1023, 2**31, 2**32 - 1, 2**32, 2**40]


@pytest.mark.parametrize("seed", _WORD_SEEDS)
def test_seed_words_match_seed_sequence(seed):
    """Word for word what SeedSequence((seed, i)) generates for PCG64, with
    indices of one and two words in one chunk and each index alone."""
    want = [
        np.random.SeedSequence((seed, i)).generate_state(4, np.uint64)
        for i in _WORD_INDICES
    ]
    got = _seed_words(seed, _WORD_INDICES)
    assert got.dtype == np.uint64 and got.shape == (len(_WORD_INDICES), 4)
    for i, row, ref in zip(_WORD_INDICES, got, want):
        assert row.tolist() == ref.tolist(), i
        assert _seed_words(seed, [i])[0].tolist() == ref.tolist(), i


@pytest.mark.parametrize("seed", _WORD_SEEDS)
def test_generators_match_default_rng(seed):
    """The seeded generators give default_rng(SeedSequence((seed, i)))'s
    stream: raw words, then the draws a campaign sample makes."""
    for i, rng in zip(_WORD_INDICES, _generators(seed, _WORD_INDICES)):
        ref = np.random.default_rng(np.random.SeedSequence((seed, i)))
        assert rng.bit_generator.random_raw(3).tolist() == ref.bit_generator.random_raw(3).tolist()
        assert rng.integers(3, 13) == ref.integers(3, 13)
        assert rng.uniform(-1.0, 1.0, 5).tolist() == ref.uniform(-1.0, 1.0, 5).tolist()
        assert rng.standard_normal((3, 3)).tolist() == ref.standard_normal((3, 3)).tolist()


def test_importing_the_cli_leaves_numpy_random_unloaded():
    """The generators' seed adapter is built on first use: importing the
    package and its CLI must not load numpy.random, which costs start-up."""
    import deltainv

    env = dict(os.environ, PYTHONPATH=str(Path(deltainv.__file__).parents[1]))
    code = "import sys, deltainv.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("seed", [9, 12])
def test_rows_do_not_depend_on_the_sample_count(seed):
    """A row is the same bits whatever else shares its chunk: samples = k
    gives the first k rows of a longer campaign."""
    big = list(run_campaign(CampaignConfig(seed=seed, samples=_CHUNK + 100, n_range=(3, 12))))
    for k in (1, 2, 37, 100, _CHUNK, _CHUNK + 1):
        small = CampaignConfig(seed=seed, samples=k, n_range=(3, 12))
        assert list(run_campaign(small)) == big[:k]


def _drained_peak(samples):
    config = CampaignConfig(seed=13, samples=samples, n_range=(3, 6))
    tracemalloc.start()
    try:
        for _ in run_campaign(config):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_campaign_memory_is_bounded_by_the_chunk(monkeypatch):
    # a smaller chunk keeps the traced runs short: 10 chunks against 100
    monkeypatch.setattr(campaign, "_CHUNK", 64)
    small = _drained_peak(640)
    large = _drained_peak(6_400)
    assert large <= 2 * small, (small, large)
