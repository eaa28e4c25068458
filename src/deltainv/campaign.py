"""Randomized verification campaigns over tensors, frames and partitions.

Each sample draws a dimension, an admissible partition, an ambient constant
and a random symmetric tensor plus Haar frame, then records the gap of the
optimal bound at that frame.  Sampling is fully deterministic: sample i of
a campaign with master seed s draws from its own generator seeded by the
seed sequence (s, i), so any sample can be reproduced in isolation and
identical configurations produce byte-identical CSV output.

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
from dataclasses import dataclass
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
    _haar_rows,
    enumerate_partitions,
    random_cubic_form,
)

SAMPLE_CSV_COLUMNS = ["index", "seed", "n", "partition", "c", "gap"]

# Samples drawn together, whose frames are orthonormalized by stacked QRs;
# a chunk's draws are what a campaign holds at any sample count.
_CHUNK = 1024


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
        for name in ("seed", "samples"):
            object.__setattr__(self, name, _as_integer(getattr(self, name), name))
        if self.seed < 0:
            raise FormatError(f"seed must be >= 0, got {self.seed}")
        if self.samples < 1:
            raise FormatError("samples must be >= 1")
        lo, hi = (_as_integer(v, "n_range") for v in self.n_range)
        if not (MIN_DIMENSION <= lo <= hi <= MAX_DIMENSION):
            raise FormatError(
                f"n_range must lie within [{MIN_DIMENSION}, {MAX_DIMENSION}], "
                f"got {self.n_range}"
            )
        object.__setattr__(self, "n_range", (lo, hi))
        object.__setattr__(self, "c_values", tuple(float(c) for c in self.c_values))
        if not self.c_values:
            raise FormatError("c_values must be nonempty")
        if self.partitions != "ALL":
            object.__setattr__(
                self,
                "partitions",
                tuple(
                    tuple(_as_integer(b, "partition block") for b in p)
                    for p in self.partitions
                ),
            )
        # uniform draws on [-scale, scale] need the width 2 * scale finite
        if not (self.tensor_scale > 0 and math.isfinite(2.0 * self.tensor_scale)):
            raise FormatError(
                "tensor_scale must be positive with 2 * tensor_scale finite, "
                f"got {self.tensor_scale!r}"
            )

    @classmethod
    def from_json_dict(cls, data: dict) -> "CampaignConfig":
        if not isinstance(data, dict):
            raise FormatError("campaign config must be a JSON object")
        known = {"seed", "samples", "n_range", "partitions", "c_values", "tensor_scale"}
        unknown = set(data) - known
        if unknown:
            raise FormatError(f"unknown campaign config fields: {sorted(unknown)}")
        try:
            kwargs = dict(data)
            if "n_range" in kwargs:
                kwargs["n_range"] = tuple(kwargs["n_range"])
            if "partitions" in kwargs and kwargs["partitions"] != "ALL":
                kwargs["partitions"] = [tuple(p) for p in kwargs["partitions"]]
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


def _partition_pool(config: CampaignConfig) -> dict[int, list[PartitionSpec]]:
    lo, hi = config.n_range
    pool: dict[int, list[PartitionSpec]] = {}
    for n in range(lo, hi + 1):
        if config.partitions == "ALL":
            specs = enumerate_partitions(n)
        else:
            specs = [
                PartitionSpec(n, tuple(p))
                for p in config.partitions
                if sum(p) <= n and all(2 <= b <= n - 1 for b in p)
            ]
        if not specs:
            raise InadmissiblePartition(
                f"no admissible partition available for n={n}"
            )
        pool[n] = specs
    return pool


class _Draw(NamedTuple):
    """One sample's draws: dimension, partition and c as indices into the
    pool and the config, the tensor and a Gaussian matrix for the frame."""

    n: int
    partition: int
    c: int
    h: CubicForm
    gauss: np.ndarray


def _draw(config: CampaignConfig, pool, i: int) -> _Draw:
    """Sample i's draws, in this order, from its own seeded generator."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, i)))
    lo, hi = config.n_range
    n = int(rng.integers(lo, hi + 1))
    p = int(rng.integers(len(pool[n])))
    ci = int(rng.integers(len(config.c_values)))
    h = random_cubic_form(n, config.tensor_scale, rng)
    return _Draw(n, p, ci, h, rng.standard_normal((n, n)))


def _chunk_rows(config: CampaignConfig, pool, indices) -> Iterable[SampleResult]:
    """The rows of the listed samples, in order."""
    draws = [_draw(config, pool, i) for i in indices]
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
