"""Randomized verification campaigns over tensors, frames and partitions.

Each sample draws a dimension, an admissible partition, an ambient constant
and a random symmetric tensor plus Haar frame, then records the gap of the
optimal bound at that frame.  Sampling is fully deterministic: sample i of
a campaign with master seed s uses the seed sequence (s, i), so any sample
can be reproduced in isolation and identical configurations produce
byte-identical CSV output.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .bounds import GAP_TOL
from .delta import universal_check
from .errors import FormatError, InadmissiblePartition
from .tensors import (
    Frame,
    PartitionSpec,
    _as_integer,
    enumerate_partitions,
    random_cubic_form,
)

SAMPLE_CSV_COLUMNS = ["index", "seed", "n", "partition", "c", "gap"]


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
        if not (2 <= lo <= hi <= 12):
            raise FormatError(f"n_range must lie within [2, 12], got {self.n_range}")
        object.__setattr__(self, "n_range", (lo, hi))
        object.__setattr__(self, "c_values", tuple(float(c) for c in self.c_values))
        if not self.c_values:
            raise FormatError("c_values must be nonempty")
        if self.tensor_scale <= 0:
            raise FormatError("tensor_scale must be positive")

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


def run_campaign(config: CampaignConfig) -> Iterable[SampleResult]:
    """Generate the campaign rows in sample order."""
    pool = _partition_pool(config)
    lo, hi = config.n_range
    for i in range(config.samples):
        seed = (config.seed, i)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        n = int(rng.integers(lo, hi + 1))
        P = pool[n][int(rng.integers(len(pool[n])))]
        c = config.c_values[int(rng.integers(len(config.c_values)))]
        h = random_cubic_form(n, config.tensor_scale, rng)
        R = Frame.random(n, rng)
        gap = universal_check(h, c, P, R)
        yield SampleResult(
            index=i, seed=seed, n=n, partition=P.blocks, c=c, gap=gap
        )


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
