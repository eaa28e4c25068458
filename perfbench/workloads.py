"""The four benchmark workloads: inputs, one op each, and output checks.

Every workload draws its ops from a fixed pool whose expected outputs are
recorded in ``reference.json`` (see ``record.py``).  The workload seed
only shuffles the pool, so every seed runs the same mix of work and every
op has a recorded answer.  Ops are scheduled in cycles: each cycle visits
every group of the pool (partition, oracle pair or CLI case) once in a
seeded order, so the share of each group in a run differs by at most one
op between seeds.

The package is always reached through module attributes at call time
(``self.delta.delta_invariant``), so the tracer's rebinding applies.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

GAP_TOL = 1e-9

# -- pools ------------------------------------------------------------------

CAMPAIGN_POOL = 1024  # op seeds 0..1023
CAMPAIGN_SAMPLES = 100  # samples per op
CAMPAIGN_N_RANGE = (3, 6)
CAMPAIGN_C_VALUES = (-1.0, 0.0, 1.0)

WITNESS_MAX_N = 6
WITNESS_PER_PARTITION = 56  # 18 partitions x 56 = 1008 witnesses

# (n, blocks): 10^3..3*10^3 coordinate assignments each, n = 9..12, both
# partition types.  Five groups put the median and p90 of op time in the
# middle of a group instead of on the boundary between two.
ORACLE_PAIRS = (
    (9, (2, 2, 2, 3)),
    (10, (3, 3, 3)),
    (11, (2, 7)),
    (12, (2, 2)),
    (12, (2, 2, 8)),
)
ORACLE_PER_PAIR = 40
ORACLE_C_VALUES = (-1.0, 0.0, 1.0)

CLI_VARIANTS = 8  # inputs per CLI case


def _cycles(groups: list[list], rng: random.Random) -> list:
    """Interleave groups: every cycle takes the next item of each group.

    Each group's items are shuffled once; the group order is shuffled
    per cycle.  The result has len(groups) * max(len(g)) items.
    """
    groups = [list(g) for g in groups]
    for g in groups:
        rng.shuffle(g)
    out = []
    for c in range(max(len(g) for g in groups)):
        order = list(range(len(groups)))
        rng.shuffle(order)
        out.extend(groups[i][c % len(groups[i])] for i in order)
    return out


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def canonical_triples(n: int):
    return [
        (a, b, c)
        for a in range(1, n + 1)
        for b in range(a, n + 1)
        for c in range(b, n + 1)
    ]


def oracle_tensor_entries(pair_index: int, tensor_seed: int) -> dict:
    """Uniform [-1, 1] entries on sorted triples, drawn by the benchmark."""
    n = ORACLE_PAIRS[pair_index][0]
    rng = np.random.default_rng(np.random.SeedSequence((pair_index, tensor_seed)))
    triples = canonical_triples(n)
    return dict(zip(triples, rng.uniform(-1.0, 1.0, size=len(triples)).tolist()))


class Workload:
    """One workload: ``make_ops`` builds inputs, ``run`` is one timed op.

    ``check`` returns an error string, or None when the output is right.
    ``reference`` maps an op key (``str``) to its recorded expectation.
    """

    name = ""

    def __init__(self, deltainv, reference: dict | None, workdir: Path | None):
        import deltainv.bounds
        import deltainv.campaign
        import deltainv.delta
        import deltainv.equality

        self.pkg = deltainv
        self.bounds = deltainv.bounds
        self.campaign = deltainv.campaign
        self.delta = deltainv.delta
        self.equality = deltainv.equality
        self.reference = reference or {}
        self.workdir = workdir

    def expected(self, key: str):
        if key not in self.reference:
            raise KeyError(f"{self.name}: no reference recorded for op {key}")
        return self.reference[key]


class Campaign(Workload):
    """One op is one small campaign, rendered to CSV with its summary."""

    name = "campaign"

    def pool(self) -> list[str]:
        return [str(s) for s in range(CAMPAIGN_POOL)]

    def make_ops(self, seed: int) -> list:
        keys = self.pool()
        random.Random(seed).shuffle(keys)
        return [
            (
                key,
                self.pkg.CampaignConfig(
                    seed=int(key),
                    samples=CAMPAIGN_SAMPLES,
                    n_range=CAMPAIGN_N_RANGE,
                    c_values=CAMPAIGN_C_VALUES,
                    tensor_scale=1.0,
                ),
            )
            for key in keys
        ]

    def run(self, op):
        summary = self.campaign.CampaignSummary()
        text = self.campaign.campaign_csv(self.campaign.run_campaign(op[1]), summary)
        return text, summary

    def observed(self, op, out) -> dict:
        return {"min_gap": out[1].min_gap, "samples": out[1].samples}

    def check(self, op, out):
        text, summary = out
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["index", "seed", "n", "partition", "c", "gap"]:
            return f"bad CSV header {rows[0]}"
        gaps = [float(r[5]) for r in rows[1:]]
        if len(gaps) != CAMPAIGN_SAMPLES or summary.samples != CAMPAIGN_SAMPLES:
            return f"{len(gaps)} rows, summary {summary.samples}"
        if not all(math.isfinite(g) and g >= -GAP_TOL for g in gaps):
            return "non-finite or negative gap"
        ref = self.expected(op[0])["min_gap"]
        if not _finite(summary.min_gap) or abs(summary.min_gap - ref) > 1e-9:
            return f"min_gap {summary.min_gap!r} vs reference {ref!r}"
        if abs(min(gaps) - summary.min_gap) > 1e-9:
            return "summary min_gap disagrees with the CSV"
        return None


class WitnessSweep(Workload):
    """One op builds a seeded equality witness and runs the optimizer."""

    name = "witness_sweep"

    def cases(self):
        out = []
        for n in range(3, WITNESS_MAX_N + 1):
            for P in self.pkg.enumerate_partitions(n):
                out.append((2 if P.saturating else 1, P))
        return out

    def pool(self) -> list[list[str]]:
        cases = self.cases()
        return [
            [f"{ci}:{ci + len(cases) * j}" for j in range(WITNESS_PER_PARTITION)]
            for ci in range(len(cases))
        ]

    def make_ops(self, seed: int) -> list:
        cases = self.cases()
        return [
            (key, *cases[int(key.split(":")[0])], int(key.split(":")[1]))
            for key in _cycles(self.pool(), random.Random(seed))
        ]

    def run(self, op):
        _, theorem, P, wseed = op
        h = self.equality.random_witness(theorem, P, seed=wseed)
        return self.delta.delta_invariant(h, 0.0, P)

    def observed(self, op, out) -> dict:
        h = self.pkg.random_witness(op[1], op[2], seed=op[3])
        rhs = self.bounds.rhs_value(
            self.bounds.optimal_coefficients(op[2]), self.pkg.mean_curvature_sq(h), 0.0
        )
        return {"rhs": rhs, "value": out.value}

    def check(self, op, res):
        rhs = self.expected(op[0])["rhs"]
        if not _finite(res.value, res.certified_lower):
            return "non-finite delta"
        if abs(res.value - rhs) > 1e-6:
            return f"value {res.value!r} is not sharp against rhs {rhs!r}"
        if res.value < res.certified_lower - 1e-9:
            return "value below the certified lower bound"
        return None


class OracleGrid(Workload):
    """One op is the coordinate oracle on one tensor for one (n, partition)."""

    name = "oracle_grid"

    def pool(self) -> list[list[str]]:
        return [
            [f"{pi}:{t}" for t in range(ORACLE_PER_PAIR)]
            for pi in range(len(ORACLE_PAIRS))
        ]

    def make_ops(self, seed: int) -> list:
        ops = []
        for key in _cycles(self.pool(), random.Random(seed)):
            pi, t = (int(v) for v in key.split(":"))
            n, blocks = ORACLE_PAIRS[pi]
            h = self.pkg.CubicForm(n, oracle_tensor_entries(pi, t))
            P = self.pkg.PartitionSpec(n, blocks)
            ops.append((key, h, P, ORACLE_C_VALUES[t % len(ORACLE_C_VALUES)]))
        return ops

    def run(self, op):
        _, h, P, c = op
        return self.delta.delta_coordinate_oracle(h, c, P)

    def observed(self, op, out) -> dict:
        return {"value": out.value, "assignment": [list(b) for b in out.assignment]}

    def check(self, op, res):
        ref = self.expected(op[0])
        if not _finite(res.value) or abs(res.value - ref["value"]) > 1e-9:
            return f"value {res.value!r} vs reference {ref['value']!r}"
        if [list(b) for b in res.assignment] != ref["assignment"]:
            return f"assignment {res.assignment} vs reference {ref['assignment']}"
        return None


# -- CLI ----------------------------------------------------------------------

# (case, expected exit code).  The three error cases are input errors the
# CLI handles today; the robustness holes listed in ROADMAP item 2 exit 1
# and are left to the test suite.
CLI_CASES = (
    ("verify_json", 0),
    ("verify_csv", 0),
    ("delta", 0),
    ("matrix", 0),
    ("construct_equality", 0),
    ("immersion_check", 0),
    ("sample", 0),
    ("error_missing_file", 2),
    ("error_partition", 2),
    ("error_coefficient", 2),
)

_CLI_PARTITIONS = ((3, (2,)), (4, (2,)), (4, (2, 2)), (5, (2, 3)))


class CliCold(Workload):
    """One op is one fresh ``python -m deltainv.cli`` process."""

    name = "cli_cold"
    launcher: list[str] | None = None  # traced runs replace "-m deltainv.cli"
    env: dict | None = None

    def pool(self) -> list[list[str]]:
        return [[f"{case}:{v}" for v in range(CLI_VARIANTS)] for case, _ in CLI_CASES]

    def _files(self, v: int) -> dict[str, object]:
        """Input files of variant v, by file name."""
        n, blocks = _CLI_PARTITIONS[v % len(_CLI_PARTITIONS)]
        P = self.pkg.PartitionSpec(n, blocks)
        theorem = 2 if P.saturating else 1
        witness = self.pkg.random_witness(theorem, P, seed=100 + v)
        lambdas = [0.5 + 0.25 * v]
        return {
            f"witness{v}.json": witness.to_json_dict(),
            f"params{v}.json": {"lambdas": lambdas},
            f"campaign{v}.json": {"seed": 500 + v, "samples": 40, "n_range": [3, 5]},
        }

    def argv(self, case: str, v: int) -> list[str]:
        n, blocks = _CLI_PARTITIONS[v % len(_CLI_PARTITIONS)]
        part = ",".join(str(b) for b in blocks)
        w = str(self.workdir / f"witness{v}.json")
        return {
            "verify_json": ["verify", w, "--partition", part, "--seed", str(v)],
            "verify_csv": ["verify", w, "--partition", part, "--format", "csv",
                           "--restarts", "8"],
            "delta": ["delta", w, "--partition", part, "--c", "0.5",
                      "--restarts", "8", "--seed", str(v)],
            "matrix": ["matrix", "--n", str(4 + v % 5), "--partition", "2,2",
                       "--ell", str(1 + v % 2), "--C", f"{v + 1}/{v + 7}"],
            "construct_equality": ["construct-equality", "--theorem", "1",
                                   "--n", "3", "--partition", "2",
                                   "--params", str(self.workdir / f"params{v}.json")],
            "immersion_check": ["immersion-check", "--tensor", w, "--fd-crosscheck"],
            "sample": ["sample", "--config",
                       str(self.workdir / f"campaign{v}.json")],
            "error_missing_file": ["delta", str(self.workdir / f"missing{v}.json"),
                                   "--partition", part],
            "error_partition": ["verify", w, "--partition", str(n)],
            "error_coefficient": ["matrix", "--n", "4", "--partition", "2,2",
                                  "--C", f"{v}/0"],
        }[case]

    def make_ops(self, seed: int) -> list:
        for v in range(CLI_VARIANTS):
            for fname, data in self._files(v).items():
                (self.workdir / fname).write_text(json.dumps(data), encoding="utf-8")
        expect = dict(CLI_CASES)
        ops = []
        for key in _cycles(self.pool(), random.Random(seed)):
            case, v = key.split(":")
            ops.append((key, case, expect[case], self.argv(case, int(v))))
        return ops

    def run(self, op):
        cmd = (self.launcher or [sys.executable, "-m", "deltainv.cli"]) + op[3]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=self.env, timeout=120
        )
        return proc.returncode, proc.stdout, proc.stderr

    def observed(self, op, out) -> dict:
        """Key fields of one CLI result; these are what the check compares."""
        code, stdout, stderr = out
        case = op[1]
        if code == 2:
            return {"exit": code, "error": json.loads(stderr)["error"]}
        if case == "verify_json":
            d = json.loads(stdout)
            return {
                "exit": code,
                "sharp": d["sharp"],
                "delta": d["delta"]["value"],
                "verdicts": [r["verdict"] for r in d["rows"]],
                "gaps": [r["gap"] for r in d["rows"]],
            }
        if case == "verify_csv":
            rows = list(csv.DictReader(io.StringIO(stdout)))
            return {
                "exit": code,
                "sources": [r["source"] for r in rows],
                "verdicts": [r["verdict"] for r in rows],
                "delta": float(rows[0]["delta"]),
                "a": [[r["a_num"], r["a_den"]] for r in rows],
            }
        if case == "delta":
            d = json.loads(stdout)
            return {
                "exit": code,
                "value": d["value"],
                "certified_lower": d["certified_lower"],
            }
        if case == "matrix":
            d = json.loads(stdout)
            return {
                "exit": code,
                "critical_C": [d["critical_C"]["num"], d["critical_C"]["den"]],
                "psd": d["psd"],
                "psd_by_minors": d["psd_by_minors"],
                "minors": d["minors"],
            }
        if case == "construct_equality":
            d = json.loads(stdout)
            return {
                "exit": code,
                "n": d["n"],
                "idx": [e["idx"] for e in d["entries"]],
                "values": [e["value"] for e in d["entries"]],
            }
        if case == "immersion_check":
            d = json.loads(stdout)
            return {
                "exit": code,
                "roundtrip_ok": d["roundtrip_error"] <= 1e-8,
                "lagrangian_ok": d["lagrangian_defect"] <= 1e-12,
                "fd_roundtrip_ok": d["fd_crosscheck"]["roundtrip_error"] <= 1e-4,
            }
        if case == "sample":
            summary = json.loads(stderr)
            rows = list(csv.reader(io.StringIO(stdout)))
            return {
                "exit": code,
                "rows": len(rows) - 1,
                "samples": summary["samples"],
                "min_gap": summary["min_gap"],
                "violations": summary["violations"],
            }
        return {"exit": code}

    def check(self, op, out):
        code = out[0]
        if code != op[2]:
            return f"exit code {code}, expected {op[2]}: {out[2].strip()[-200:]}"
        try:
            got = self.observed(op, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc!r}"
        return _compare(got, self.expected(op[0]), op[0])


def _compare(got, ref, where: str):
    """Equal structure; floats within 1e-6 relative (1e-6 absolute near 0)."""
    if isinstance(ref, float):
        if isinstance(got, bool) or not _finite(got) or abs(got - ref) > 1e-6 * max(
            1.0, abs(ref)
        ):
            return f"{where}: {got!r} vs reference {ref!r}"
        return None
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return f"{where}: fields {sorted(got)} vs {sorted(ref)}"
        for k in ref:
            err = _compare(got[k], ref[k], f"{where}.{k}")
            if err:
                return err
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{where}: {got!r} vs reference {ref!r}"
        for i, (g, r) in enumerate(zip(got, ref)):
            err = _compare(g, r, f"{where}[{i}]")
            if err:
                return err
        return None
    return None if got == ref else f"{where}: {got!r} vs reference {ref!r}"


WORKLOADS = {w.name: w for w in (Campaign, WitnessSweep, OracleGrid, CliCold)}


def load_reference(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def child_env(src: Path) -> dict:
    """Environment for child interpreters: the checkout's src comes first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p
    )
    return env
