"""Host speed gauge: a fixed calibration kernel timed between ops.

The shared machines this benchmark runs on change speed by up to 2x over
tens of seconds: the same op alternates between fast and slow phases.
Timing one fixed kernel between ops measures that drift.  Scaling an op
time by REFERENCE_S / (median of the nearest kernel times) expresses it at
one reference speed, so runs made in different phases can be compared.
The kernel mirrors the kinds of work deltainv does and never calls
deltainv.  It shares the process heap, garbage collector and CPU caches
with the ops, so a program change can still move it a little.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from fractions import Fraction

import numpy as np

# A typical kernel time on the machine that defined the benchmark (a 2-vCPU
# Intel Xeon VM at 2.1 GHz, Python 3.11.7, numpy 2.4.6; 5 to 8.5 ms by
# phase).  It only sets the unit: scaled times read as times at the speed
# where the kernel takes this long.
REFERENCE_S = 0.007
RECENT = 3  # kernel samples in the median that scales an op
INTERVAL_S = 0.25  # least time between two kernel samples

_A = np.random.default_rng(0).standard_normal((6, 6)) + 6.0 * np.eye(6)
_T = np.random.default_rng(1).standard_normal((6, 6, 6))
_TRIPLES = [(a, b, c) for a in range(5) for b in range(a, 5) for c in range(b, 5)]
_SUBSETS = [[i, (i + 1) % 6, (i + 3) % 6][: 2 + i % 2] for i in range(6)]


def kernel() -> float:
    """Fixed work, 5 to 8 ms on the reference machine depending on phase.

    Its parts mirror what deltainv spends time on, so that a phase which
    slows one kind of work more than another moves both alike.
    """
    acc = 0.0
    # interpreter work: dict, tuple and float operations
    table: dict[tuple[int, int], float] = {}
    for i in range(1500):
        key = (i % 97, i % 13)
        table[key] = 0.5 * i + table.get(key, 0.0)
        acc += math.sqrt(table[key])
    # per-sample set-up: seeded generator, validated entries, dense fill,
    # QR with a Python re-orthonormalization, rotation, exact rationals
    for i in range(6):
        rng = np.random.default_rng(np.random.SeedSequence((7, i)))
        entries = {}
        for key, v in zip(_TRIPLES, rng.uniform(-1.0, 1.0, size=len(_TRIPLES))):
            entries[tuple(sorted(int(x) for x in key))] = float(v)
        T = np.zeros((5, 5, 5))
        for (a, b, c), v in entries.items():
            for p in {(a, b, c), (b, a, c), (c, b, a)}:
                T[p] = v
        Q = np.linalg.qr(rng.standard_normal((5, 5)))[0].T.copy()
        for k in range(5):
            v = Q[k]
            for j in range(k):
                v = v - (Q[j] @ v) * Q[j]
            Q[k] = v / float(np.linalg.norm(v))
        X = np.tensordot(Q, np.tensordot(Q, T, axes=(1, 0)), axes=(1, 1))
        acc += float(X.sum())
        s = sum(Fraction(1, 2 + k) for k in (2, i % 3 + 2))
        acc += float(Fraction(25) * (Fraction(2) - 2 * s) / (3 - 2 * s))
    # index-subset slicing, as in tau of coordinate blocks
    for _ in range(30):
        for idx in _SUBSETS:
            d = _T[idx, idx, :].sum(axis=0)
            sub = _T[np.ix_(idx, idx)]
            acc += float(d @ d) - float((sub * sub).sum())
    # small dense linear algebra, as in the descent
    for _ in range(40):
        X = np.tensordot(_A, _T, axes=(1, 0))
        acc += float(np.linalg.solve(_A, X[0]).sum())
        acc += float(np.einsum("abc,abc->", _T, X))
    return acc + len(",".join(repr(0.1 * i) for i in range(200)))


class SpeedGauge:
    """Kernel timings of one run and the scale factors they give."""

    def __init__(self):
        self.times: list[float] = []  # midpoints of the kernel runs
        self.samples: list[float] = []  # their durations
        kernel()  # the first numpy calls pay one-time costs

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.samples.append(t1 - t0)

    def tick(self):
        """Sample unless the last sample is more recent than INTERVAL_S."""
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def scale_at(self, t: float) -> float:
        """REFERENCE_S over the median of the RECENT samples nearest to t.

        Samples on both sides of t count, so a change of phase just before
        or just after an op moves its scale by no more than one sample.
        """
        i = bisect.bisect(self.times, t)
        near = range(max(0, i - RECENT), min(len(self.times), i + RECENT))
        nearest = sorted(near, key=lambda j: abs(self.times[j] - t))[:RECENT]
        return REFERENCE_S / statistics.median(self.samples[j] for j in nearest)
