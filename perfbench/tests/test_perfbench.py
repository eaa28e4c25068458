"""Tests of the benchmark itself: tracer, self-time arithmetic, checks.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

deltainv = run.import_program()
import deltainv.cli  # noqa: E402  (the tracer also wraps cli.main)


def _bindings():
    """Every (owner, name) -> object binding the tracer may touch."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if key == "deltainv" or key.startswith("deltainv."):
            for name, value in vars(mod).items():
                out[(key, name)] = value
    out[("Frame", "random")] = deltainv.Frame.__dict__["random"]
    return out


def test_uninstall_restores_original_objects():
    before = _bindings()
    original_rotate = deltainv.tensors._rotate_dense
    t = tr.Tracer()
    t.install()
    try:
        assert t.missing == []
        assert deltainv.delta._rotate_dense is not original_rotate
        assert deltainv.tensors._rotate_dense is deltainv.delta._rotate_dense
        assert deltainv.Frame.__dict__["random"] is not before[("Frame", "random")]
        P = deltainv.PartitionSpec(4, (2,))
        h = deltainv.random_witness(1, P, seed=3)
        deltainv.delta_invariant(h, 0.0, P, deltainv.OptimizerOptions(restarts=3))
        assert "delta._descend" in {t.names[i] for i in t.name}
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert deltainv.delta._rotate_dense is original_rotate


def test_generator_spans_cover_each_next():
    t = tr.Tracer()
    t.install()
    try:
        cfg = deltainv.CampaignConfig(seed=1, samples=3)
        rows = list(deltainv.campaign.run_campaign(cfg))
    finally:
        t.uninstall()
    names = [t.names[i] for i in t.name]
    assert len(rows) == 3
    # one span per row plus the final next() that raises StopIteration
    assert names.count("campaign.run_campaign") == 4
    assert names.count("delta.universal_check") == 3
    parents = {names[i] for i, p in enumerate(t.parent) if names[i] != "campaign.run_campaign"
               and p >= 0 and names[p] == "campaign.run_campaign"}
    assert {"tensors.random_cubic_form", "delta.universal_check"} <= parents


def test_self_times_on_synthetic_tree():
    # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping) and
    # c [9, 12] (sticking out); a has a child g [2, 3].
    starts = [0.0, 1.0, 3.0, 9.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    parents = [-1, 0, 0, 0, 1]
    selfs = tr.self_times(starts, ends, parents)
    # root: 10 - |[1, 6] u [9, 10]| = 10 - 6
    assert selfs == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])


def test_aggregate_counts_oracle_taus_and_descents():
    t = tr.Tracer()
    spans = [  # name, start, end, parent
        ("delta.delta_invariant", 0.0, 10.0, -1),
        ("delta.delta_coordinate_oracle", 0.0, 2.0, 0),
        ("tensors._tau_dense", 0.5, 1.0, 1),
        ("tensors._tau_dense", 1.0, 1.5, 1),
        ("delta._descend", 2.0, 5.0, 0),
        ("tensors._tau_dense", 5.0, 5.5, 0),
        ("delta._descend", 6.0, 9.0, 0),
        ("delta._descend", 9.0, 10.0, 0),
    ]
    t.extend(*zip(*spans))
    t.results = {4: (1.0, None, True), 6: (1.0 + 1e-12, None, False),
                 7: (2.0, None, True)}
    agg = tr.aggregate(t)
    assert agg["tau_in_oracle"] == 2
    assert agg["by_name"]["tensors._tau_dense"]["calls"] == 3
    assert agg["by_name"]["delta.delta_invariant"]["self_s"] == pytest.approx(0.5)
    assert agg["by_name"]["delta._descend"]["total_s"] == pytest.approx(7.0)
    assert agg["descend"] == {"calls": 3, "converged": 2, "at_best": 2}


def _first_ops(name, count, workdir=None):
    ref = workloads.load_reference(run.REFERENCE)[name]
    wl = workloads.WORKLOADS[name](deltainv, ref, workdir)
    return wl, wl.make_ops(0)[:count]


def _failed_frac(wl, ops):
    phase = run.Phase()
    for op in ops:
        run.run_op(wl, op, phase)
    metrics = run.end_to_end(phase, run.Phase(), 0.0, cli=False)
    return 1.0 - metrics["success_frac"]


def test_perturbed_oracle_value_fails(monkeypatch):
    wl, ops = _first_ops("oracle_grid", 2)
    assert _failed_frac(wl, ops) == 0.0
    original = deltainv.delta.delta_coordinate_oracle

    def perturbed(*args, **kwargs):
        res = original(*args, **kwargs)
        return dataclasses.replace(res, value=res.value + 1e-6)

    monkeypatch.setattr(deltainv.delta, "delta_coordinate_oracle", perturbed)
    assert _failed_frac(wl, ops) == 1.0


def test_unsharp_witness_fails(monkeypatch):
    wl, ops = _first_ops("witness_sweep", 2)
    assert _failed_frac(wl, ops) == 0.0
    original = deltainv.delta.delta_invariant

    def lowered(*args, **kwargs):
        res = original(*args, **kwargs)
        return dataclasses.replace(res, value=res.value - 1e-5)

    monkeypatch.setattr(deltainv.delta, "delta_invariant", lowered)
    assert _failed_frac(wl, ops) == 1.0


def test_cli_wrong_exit_code_fails(tmp_path):
    wl, ops = _first_ops("cli_cold", None, tmp_path)
    op = next(o for o in ops if o[1] == "matrix")
    assert wl.check(op, (1, "", "")) is not None
    assert wl.check(op, (0, "not json", "")) is not None


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_run_reports_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "witness_sweep",
         "--seed", "5", "--seconds", "2", "--trace", "1"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    res = _result(proc)
    bench = run.load_benchmark()
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    assert list(res["metrics"]) == [m["name"] for m in bench["per_layer"]]
    assert res["metrics"]["delta._descend.op_share"]["value"] > 0.5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "campaign", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
