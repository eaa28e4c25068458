"""Randomized verification campaigns over tensors, frames and partitions.

Each sample draws a dimension, an admissible partition, an ambient constant
and a random symmetric tensor plus Haar frame, then records the gap of the
optimal bound at that frame; its b c cancels the c part of delta, so the
gap does not depend on c.  Sampling is fully deterministic: sample i of
a campaign with master seed s draws from its own generator seeded by the
seed sequence (s, i), so any sample can be reproduced in isolation and
identical configurations produce byte-identical CSV output.

The generators of a chunk are seeded together.  ``_seed_words`` runs
NumPy's ``SeedSequence`` hash (``mix_entropy`` over the entropy words of
seed and i, then ``generate_state(4, np.uint64)``) on the whole chunk in
one pass of uint32 array arithmetic, and each sample's PCG64 takes its
four words through an ``ISeedSequence`` adapter.  The words are those
``SeedSequence((s, i))`` generates, so every stream, row and CSV byte is
the one ``default_rng(SeedSequence((s, i)))`` gives.

Samples are drawn ``_CHUNK`` at a time.  Each sample's tensor comes from
``random_cubic_form`` and its gap from ``universal_check``, the functions
a single sample is reproduced with; the frames of a chunk's samples of
one dimension come from one stacked QR of their Gaussian draws, bit for
bit the frames ``Frame.random`` would build one at a time.  Rows are
yielded in sample order, and memory stays bounded by the chunk whatever
the sample count.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .bounds import GAP_TOL
from .delta import universal_check
from .errors import FormatError, InadmissiblePartition
from .tensors import (
    MAX_DIMENSION,
    MIN_DIMENSION,
    CubicForm,
    Frame,
    PartitionSpec,
    _as_integer,
    _as_object,
    _as_real,
    _check_blocks,
    _haar_rows,
    ambient_value,
    enumerate_partitions,
    random_cubic_form,
)

SAMPLE_CSV_COLUMNS = ["index", "seed", "n", "partition", "c", "gap"]

# Samples drawn together, whose frames are orthonormalized by stacked QRs;
# a chunk's draws are what a campaign holds at any sample count.
_CHUNK = 1024

# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx): the entropy
# words are mixed into a pool of four uint32 words, which are hashed out
# into the state words a bit generator asks for; PCG64 asks for four uint64.
_POOL = 4
_PCG64_WORDS = 4
_MASK32 = 0xFFFFFFFF
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


@dataclass(frozen=True)
class CampaignConfig:
    """Deterministic sampling plan for a verification campaign."""

    seed: int
    samples: int
    n_range: tuple[int, int] = (3, 6)
    partitions: Union[str, Sequence[tuple[int, ...]]] = "ALL"
    c_values: Sequence[float] = (-1.0, 0.0, 1.0)
    tensor_scale: float = 1.0

    def __post_init__(self):
        for name, least in (("seed", 0), ("samples", 1)):
            value = _as_integer(getattr(self, name), name, least=least)
            object.__setattr__(self, name, value)
        lo, hi = (_as_integer(v, "n_range") for v in self.n_range)
        if not (MIN_DIMENSION <= lo <= hi <= MAX_DIMENSION):
            raise FormatError(
                f"n_range must lie within [{MIN_DIMENSION}, {MAX_DIMENSION}], "
                f"got {self.n_range}"
            )
        object.__setattr__(self, "n_range", (lo, hi))
        c_values = tuple(
            ambient_value(c, "c_values", FormatError) for c in self.c_values
        )
        object.__setattr__(self, "c_values", c_values)
        if not self.c_values:
            raise FormatError("c_values must be nonempty")
        if self.partitions != "ALL":
            # PartitionSpec's rules that hold whatever n; the pool checks
            # the rest against n_range
            partitions = tuple(
                _check_blocks(
                    tuple(_as_integer(b, "partition block") for b in p), FormatError
                )
                for p in self.partitions
            )
            object.__setattr__(self, "partitions", partitions)
        # uniform draws on [-scale, scale] need the width 2 * scale finite
        scale = _as_real(self.tensor_scale, "tensor_scale")
        object.__setattr__(self, "tensor_scale", scale)
        if not (self.tensor_scale > 0 and math.isfinite(2.0 * self.tensor_scale)):
            raise FormatError(
                "tensor_scale must be positive with 2 * tensor_scale finite, "
                f"got {self.tensor_scale!r}"
            )
        _partition_pool(self)  # an n or a partition that fits nothing fails here

    @classmethod
    def from_json_dict(cls, data, default_seed=None) -> "CampaignConfig":
        """The config of a JSON object keyed by field names.  Without a
        "seed" key the seed is ``default_seed()``, when that is given."""
        names = [f.name for f in fields(cls)]
        required = [f.name for f in fields(cls) if f.default is MISSING]
        if default_seed is not None:
            required.remove("seed")
        kwargs = dict(_as_object(data, "campaign config", required, names))
        if "seed" not in kwargs:
            kwargs["seed"] = default_seed()
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"bad campaign config: {exc}")


@dataclass(frozen=True)
class SampleResult:
    index: int
    seed: tuple[int, int]
    n: int
    partition: tuple[int, ...]
    c: float
    gap: float


@dataclass
class CampaignSummary:
    """Running totals; a gap below -GAP_TOL or not finite is a violation,
    and ``min_gap`` is the smallest finite gap (None while there is none)."""

    samples: int = 0
    min_gap: Optional[float] = None
    argmin_index: int = -1
    argmin_seed: Optional[tuple[int, int]] = None
    violations: int = 0

    def update(self, row: SampleResult):
        self.samples += 1
        if not math.isfinite(row.gap):
            self.violations += 1
            return
        if self.min_gap is None or row.gap < self.min_gap:
            self.min_gap = row.gap
            self.argmin_index = row.index
            self.argmin_seed = row.seed
        if row.gap < -GAP_TOL:
            self.violations += 1

    def to_json_dict(self) -> dict:
        return {
            "samples": self.samples,
            "min_gap": self.min_gap,
            "argmin_index": self.argmin_index,
            "argmin_seed": list(self.argmin_seed) if self.argmin_seed else None,
            "violations": self.violations,
        }


@lru_cache(maxsize=None)
def _admissible(n: int) -> tuple[PartitionSpec, ...]:
    """``enumerate_partitions(n)``, built once per n."""
    return tuple(enumerate_partitions(n))


def _partition_pool(config: CampaignConfig) -> dict[int, Sequence[PartitionSpec]]:
    """Per n, the partitions a sample draws from: every admissible one, or
    the configured ones admissible for n, in config order.  A dimension
    with none, or a configured partition no dimension admits, is an error."""
    lo, hi = config.n_range
    pool: dict[int, Sequence[PartitionSpec]] = {}
    for n in range(lo, hi + 1):
        specs = table = _admissible(n)
        if config.partitions != "ALL":
            specs = [P for p in config.partitions for P in table if P.blocks == p]
        if not specs:
            raise InadmissiblePartition(
                f"no admissible partition available for n={n}"
            )
        pool[n] = specs
    if config.partitions != "ALL":
        drawn = {P.blocks for specs in pool.values() for P in specs}
        unused = [list(p) for p in config.partitions if p not in drawn]
        if unused:
            raise InadmissiblePartition(
                f"no n in n_range {list(config.n_range)} admits partitions {unused}"
            )
    return pool


class _Draw(NamedTuple):
    """One sample's draws: dimension, partition and c as indices into the
    pool and the config, the tensor and a Gaussian matrix for the frame."""

    n: int
    partition: int
    c: int
    h: CubicForm
    gauss: np.ndarray


@lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init and its count successive products by mult, modulo 2**32.  They
    are evolved as Python ints, so no numpy scalar can warn on overflow."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    out = np.array(consts, dtype=np.uint32)
    out.flags.writeable = False
    return out


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, one call per row of values (or per constant,
    for one row): row r takes consts[r] and consts[r + 1]."""
    v = (values ^ consts[:-1, None]) * consts[1:, None]
    return v ^ (v >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> _XSHIFT)


def _pcg64_state_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` for each column of an
    (E, m) uint32 entropy array: mix_entropy into the pool, then hash it
    out into eight uint32 words, read in little-endian pairs."""
    n_entropy, m = entropy.shape
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL * max(_POOL, n_entropy))
    mixer = np.zeros((_POOL, m), dtype=np.uint32)
    mixer[:n_entropy] = entropy[:_POOL]
    mixer = _hashmix(mixer, consts[: _POOL + 1])
    k = _POOL
    # mix every pool word into the others, and then the entropy past the pool
    # into every pool word; the hash constant advances once per hashmix
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        mixer[dst] = _mix(mixer[dst], _hashmix(mixer[src], consts[k : k + _POOL]))
        k += _POOL - 1
    for src in range(_POOL, n_entropy):
        mixer = _mix(mixer, _hashmix(entropy[src], consts[k : k + _POOL + 1]))
        k += _POOL
    n_state = 2 * _PCG64_WORDS
    state = _hashmix(
        mixer[np.arange(n_state) % _POOL], _hash_constants(_INIT_B, _MULT_B, n_state)
    )
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


def _word_count(value: int) -> int:
    """How many uint32 entropy words SeedSequence makes of a nonnegative int
    (one for 0)."""
    return (value.bit_length() + 31) // 32 or 1


def _seed_words(seed: int, indices: Sequence[int]) -> np.ndarray:
    """Row j is ``SeedSequence((seed, indices[j])).generate_state(4,
    np.uint64)``, PCG64's seed words.  The entropy is seed's words followed
    by the index's, so the indices are hashed in one pass per word count."""
    # an int's entropy words come least significant first
    seed_words = [seed >> 32 * k & _MASK32 for k in range(_word_count(seed))]
    by_width: dict[int, list[int]] = {}
    for j, i in enumerate(indices):
        by_width.setdefault(_word_count(i), []).append(j)
    out = np.empty((len(indices), _PCG64_WORDS), dtype=np.uint64)
    for width, rows in by_width.items():
        entropy = np.empty((len(seed_words) + width, len(rows)), dtype=np.uint32)
        entropy[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
        for w in range(width):
            entropy[len(seed_words) + w] = [indices[j] >> 32 * w & _MASK32 for j in rows]
        out[rows] = _pcg64_state_words(entropy)
    return out


@lru_cache(maxsize=None)
def _seeded_generator():
    """A function from four PCG64 seed words to a Generator.  It is built on
    first use, so that importing the package does not load numpy.random."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """The state words a SeedSequence would generate for PCG64."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words == _PCG64_WORDS and (
                dtype is np.uint64 or np.dtype(dtype) == np.uint64
            ):
                return self.words
            raise ValueError(
                f"only the {_PCG64_WORDS} uint64 words of a PCG64 seed are held"
            )

    return lambda words: Generator(PCG64(SeedWords(words)))


def _generators(seed: int, indices: Sequence[int]) -> list:
    """Sample i's generator, bit for bit ``default_rng(SeedSequence((seed, i)))``,
    for each listed i."""
    make = _seeded_generator()
    return [make(words) for words in _seed_words(seed, indices)]


def _draw(config: CampaignConfig, pool, rng) -> _Draw:
    """One sample's draws, in this order, from its own seeded generator."""
    lo, hi = config.n_range
    n = int(rng.integers(lo, hi + 1))
    p = int(rng.integers(len(pool[n])))
    ci = int(rng.integers(len(config.c_values)))
    h = random_cubic_form(n, config.tensor_scale, rng)
    return _Draw(n, p, ci, h, rng.standard_normal((n, n)))


def _chunk_rows(config: CampaignConfig, pool, indices) -> Iterable[SampleResult]:
    """The rows of the listed samples, in order."""
    draws = [_draw(config, pool, rng) for rng in _generators(config.seed, indices)]
    frames = [None] * len(draws)
    for n in {d.n for d in draws}:
        group = [j for j, d in enumerate(draws) if d.n == n]
        rows = _haar_rows(np.stack([draws[j].gauss for j in group]))
        for j, Q in zip(group, rows):
            frames[j] = Frame._of_rows(Q)
    for i, d, R in zip(indices, draws, frames):
        P = pool[d.n][d.partition]
        c = config.c_values[d.c]
        yield SampleResult(
            index=i,
            seed=(config.seed, i),
            n=d.n,
            partition=P.blocks,
            c=c,
            gap=universal_check(d.h, c, P, R),
        )


def run_campaign(config: CampaignConfig) -> Iterable[SampleResult]:
    """Generate the campaign rows in sample order."""
    pool = _partition_pool(config)
    for start in range(0, config.samples, _CHUNK):
        stop = min(start + _CHUNK, config.samples)
        yield from _chunk_rows(config, pool, range(start, stop))


def campaign_csv(rows: Iterable[SampleResult], summary: CampaignSummary) -> str:
    """Render rows as CSV while accumulating the summary in place."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SAMPLE_CSV_COLUMNS)
    for row in rows:
        summary.update(row)
        writer.writerow(
            [
                row.index,
                f"{row.seed[0]}:{row.seed[1]}",
                row.n,
                "+".join(str(b) for b in row.partition),
                repr(row.c),
                repr(row.gap),
            ]
        )
    return buf.getvalue()
