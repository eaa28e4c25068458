"""deltainv benchmark runner.

One run measures one workload for a fixed time and prints, as its last
line, one JSON object with the keys correct, attempted, failed and metrics:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
``--trace 1`` its per-layer metrics.  In a traced run every op runs once
untraced and once traced, so the tracing overhead is measured on the same
inputs.  ``--steadiness`` runs each workload several times in child
processes, in two sets of ten runs, and reports the spread of every
end-to-end metric against its bound:

    python3 perfbench/run.py --steadiness --seed 1000 --out steadiness.json

The program under test is the ``src/deltainv`` package of the checkout the
benchmark sits in; the run fails (exit 2, no result line) without it.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":
    # One CPU and one BLAS thread, fixed before numpy is first imported, so
    # that numpy sizes its thread pool for the CPU it runs on.  CLI children
    # inherit both.  Figures are single-CPU: gains from more cores do not show.
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import time
import traceback
from pathlib import Path

from gauge import REFERENCE_S, SpeedGauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 9
PROBE_REPEATS = 5
STEADY_RUNS = 10  # runs per set in --steadiness
STEADY_SETS = 2  # independent sets; their medians must agree within bound
MAX_SPANS = 600_000
CHILD_TIMEOUT = 170

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import {module}; "
    "print(repr(time.perf_counter() - t))"
)


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """Import deltainv from this checkout's src, never from elsewhere."""
    if not (SRC / "deltainv" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'deltainv'} is missing")
    sys.path.insert(0, str(SRC))
    import deltainv

    if Path(deltainv.__file__).resolve().parent != (SRC / "deltainv").resolve():
        raise BenchError(f"deltainv was imported from {deltainv.__file__}")
    return deltainv


def child_seconds(argv: list[str], env: dict) -> float:
    """Run a probe child that prints one float; return that float."""
    proc = subprocess.run(
        argv, capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT
    )
    if proc.returncode != 0:
        raise BenchError(f"probe {argv} failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def wall_seconds(argv: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, capture_output=True, env=env, timeout=CHILD_TIMEOUT, check=True)
    return time.perf_counter() - t0


# -- environment ---------------------------------------------------------------


def git_sha(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_sha": git_sha(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


# -- measuring -----------------------------------------------------------------


class Phase:
    """Op timings and failures of one stretch of the closed loop."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def ops_per_s(self) -> float:
        return len(self.durations) / sum(self.durations)

    def scaled(self, gauge: SpeedGauge | None) -> list[float]:
        """Op times at the gauge's reference speed (unchanged without one)."""
        if gauge is None:
            return list(self.durations)
        return [
            d * gauge.scale_at(t + 0.5 * d) for t, d in zip(self.starts, self.durations)
        ]


def run_op(wl, op, phase: Phase, gauge: SpeedGauge | None = None):
    if gauge is not None:
        gauge.tick()
    t0 = time.perf_counter()
    try:
        out = wl.run(op)
        err = None
    except Exception:  # an op that raises is a failed op, not a crashed run
        out, err = None, traceback.format_exc(limit=3)
    phase.starts.append(t0)
    phase.durations.append(time.perf_counter() - t0)
    if err is None:
        try:
            err = wl.check(op, out)
        except Exception:  # a malformed output is a failed check
            err = traceback.format_exc(limit=3)
    if err is not None:
        phase.failures.append(f"op {op[0]}: {err}")


def closed_loop(wl, ops, start: int, seconds: float, gauge: SpeedGauge) -> Phase:
    """Run ops back to back, starting at index `start`, for `seconds`."""
    phase = Phase()
    i = start
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        run_op(wl, ops[i % len(ops)], phase, gauge)
        i += 1
    gauge.sample()  # so that the last ops have samples on both sides
    return phase


def paired_loop(wl, ops, start: int, seconds: float, tracer, spans_file: Path):
    """Run each op untraced and then traced until `seconds` have passed.

    Both phases run the same inputs in the same order, so the ratio of
    their op times is the tracing overhead.  In-process workloads install
    the wrappers around the traced op only; CLI ops run the traced
    launcher, which writes its spans to `spans_file`.
    """
    untraced, traced = Phase(), Phase()
    launcher = [sys.executable, str(HERE / "cli_launcher.py"), str(spans_file)]
    i = start
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and not tracer.full:
        op = ops[i % len(ops)]
        run_op(wl, op, untraced)
        tracer.current_op = i
        if wl.name == "cli_cold":
            wl.launcher = launcher
            run_op(wl, op, traced)
            wl.launcher = None
            if spans_file.exists():
                data = json.loads(spans_file.read_text(encoding="utf-8"))
                spans_file.unlink()
                tracer.extend(data["name"], data["start"], data["end"], data["parent"],
                              data["results"])
        else:
            tracer.install()
            try:
                run_op(wl, op, traced)
            finally:
                tracer.uninstall()
        i += 1
    return untraced, traced


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(phase: Phase, warmup: Phase, setup_s: float, cli: bool,
               gauge: SpeedGauge | None = None) -> dict:
    """The end-to-end metrics; times are at the gauge's reference speed."""
    attempted = phase.attempted + warmup.attempted
    failed = len(phase.failures) + len(warmup.failures)
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    scaled = phase.scaled(gauge)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(scaled) / sum(scaled),
        "op_p50_ms": 1e3 * statistics.median(scaled),
        "op_p90_ms": 1e3 * quantile(scaled, 0.9),
        "success_frac": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def per_layer(names: list[str], agg: dict, traced: Phase, untraced: Phase,
              probes: dict) -> dict:
    """Per-op values of the BENCHMARK.json per-layer metrics."""
    ops = traced.attempted
    op_time = sum(traced.durations)
    by_name, desc = agg["by_name"], agg["descend"]
    grads = by_name.get("delta._grad_skew", {}).get("calls", 0)
    steps = by_name.get("delta._cayley_step", {}).get("calls", 0)
    special = {
        "delta._descend.converged_frac": desc["converged"] / max(desc["calls"], 1),
        "delta.restarts_at_best_frac": desc["at_best"] / max(desc["calls"], 1),
        "delta.step_accept_frac": grads / max(steps, 1),
        "delta.oracle.tau_evals": agg["tau_in_oracle"] / ops,
        "trace_overhead_frac": untraced.ops_per_s / traced.ops_per_s - 1.0,
        **probes,
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
            continue
        span, stat = name.rsplit(".", 1)
        row = by_name.get(span, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        out[name] = row["total_s"] / op_time if stat == "op_share" else row[stat] / ops
    return out


def run_workload(args) -> int:
    import workloads
    from tracer import Tracer, aggregate

    bench = load_benchmark()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    deltainv = import_program()
    env = workloads.child_env(SRC)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](
            deltainv, workloads.load_reference(REFERENCE)[args.workload], workdir
        )
        wl.env = env
        cli = args.workload == "cli_cold"

        # set-up: a cold import of deltainv plus input generation, repeated
        gauge = SpeedGauge()
        setup = Phase()
        for _ in range(SETUP_REPEATS):
            gauge.sample()
            t_import = child_seconds(
                [sys.executable, "-c", IMPORT_PROBE.format(module="deltainv")], env
            )
            t0 = time.perf_counter()
            ops = wl.make_ops(args.seed)
            setup.starts.append(t0)
            setup.durations.append(t_import + time.perf_counter() - t0)
        gauge.sample()
        setup_s = statistics.median(setup.scaled(gauge))

        # one untimed op fills lazy caches (and, for the CLI, bytecode)
        warmup = Phase()
        run_op(wl, ops[0], warmup)
        start = 1

        print(json.dumps({"env": environment(args)}))
        if not args.trace:
            phase = closed_loop(wl, ops, start, args.seconds, gauge)
            metrics = end_to_end(phase, warmup, setup_s, cli, gauge)
            declared = bench["end_to_end"]
            phases = [warmup, phase]
            speeds = [REFERENCE_S / k for k in gauge.samples]
            wall = end_to_end(phase, warmup, statistics.median(setup.durations), cli)
            print(json.dumps({"unscaled": {
                k: wall[k] for k in ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms")
            }}))
            print(f"# host speed factor median {statistics.median(speeds):.3f}, range "
                  f"{min(speeds):.3f}..{max(speeds):.3f} over {len(speeds)} samples")
        else:
            tracer = Tracer(MAX_SPANS)
            untraced, traced = paired_loop(wl, ops, start, args.seconds, tracer,
                                           workdir / "spans.json")
            probes = {"cli.interp_s": 0.0, "cli.import_s": 0.0}
            if cli:
                probes = {
                    "cli.interp_s": statistics.median(
                        wall_seconds([sys.executable, "-c", "pass"], env)
                        for _ in range(PROBE_REPEATS)
                    ),
                    "cli.import_s": statistics.median(
                        child_seconds([sys.executable, "-c",
                                       IMPORT_PROBE.format(module="deltainv.cli")], env)
                        for _ in range(PROBE_REPEATS)
                    ),
                }
            declared = bench["per_layer"]
            metrics = per_layer([m["name"] for m in declared], aggregate(tracer),
                                traced, untraced, probes)
            OUT.mkdir(exist_ok=True)
            spans_out = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            tracer.write_csv_gz(spans_out)
            print(f"# {len(tracer.start)} spans over {traced.attempted} traced ops "
                  f"written to {spans_out.relative_to(ROOT)}"
                  + (f"; not found: {', '.join(tracer.missing)}" if tracer.missing else ""))
            phases = [warmup, untraced, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    for f in failures[:5]:
        print(f"# FAILED {f}", file=sys.stderr)
    timed = phases[1]
    print(f"# {timed.attempted} timed ops; {len(failures)} of {attempted} ops failed "
          f"(failed_frac {len(failures) / attempted:.6g})")
    units = {m["name"]: m["unit"] for m in declared}
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0


# -- steadiness ----------------------------------------------------------------


def steadiness(args) -> int:
    """Run each workload in STEADY_SETS sets of STEADY_RUNS runs; report
    the spread of every end-to-end metric and the drift between the set
    medians against its bound.  The wall times before gauge scaling are
    reported alongside, ungated."""
    bench = load_benchmark()
    import_program()
    seconds = args.seconds or bench["run_seconds"]
    report = {"seconds": seconds, "runs": STEADY_RUNS, "workloads": {}}
    ok = True
    for wl in bench["workloads"]:
        wname = wl["name"]
        sets, walls = [], []
        for s in range(STEADY_SETS):
            values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
            wall: dict[str, list[float]] = {}
            for i in range(STEADY_RUNS):
                seed = args.seed + s * STEADY_RUNS + i
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", wname,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                    capture_output=True, text=True, timeout=CHILD_TIMEOUT + 60,
                )
                if proc.returncode != 0:
                    raise BenchError(f"{wname} seed {seed}: {proc.stderr[-500:]}")
                lines = [json.loads(x) for x in proc.stdout.splitlines()
                         if x.startswith("{")]
                res = lines[-1]
                ok = ok and res["correct"]
                for name in values:
                    values[name].append(res["metrics"][name]["value"])
                for name, v in next(x["unscaled"] for x in lines if "unscaled" in x).items():
                    wall.setdefault(name, []).append(v)
                print(f"# {wname} set {s} seed {seed}: " + ", ".join(
                    f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
            sets.append(values)
            walls.append(wall)
        rows = {}
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds, spreads = spread_stats(v[name] for v in sets)
            drift = max(abs(md - meds[0]) / meds[0] for md in meds)
            verdict = (
                "steady" if max(spreads) <= bound / 3
                else "within bound" if max(spreads) <= bound
                else "too wide"
            )
            ok = ok and max(spreads) <= bound and drift <= bound
            rows[name] = {"medians": meds, "spreads": spreads, "bound": bound,
                          "drift": drift, "verdict": verdict}
            print(f"{wname:14s} {name:13s} median {meds[0]:.5g} {m['unit']:5s} "
                  f"spread {' '.join(f'{x:.3f}' for x in spreads)} "
                  f"bound {bound} drift {drift:.3f} -> {verdict}", flush=True)
        unscaled = {}
        for name in walls[0]:
            meds, spreads = spread_stats(w[name] for w in walls)
            drift = max(abs(md - meds[0]) / meds[0] for md in meds)
            unscaled[name] = {"medians": meds, "spreads": spreads, "drift": drift}
            print(f"{wname:14s} {name:13s} unscaled median {meds[0]:.5g} "
                  f"spread {' '.join(f'{x:.3f}' for x in spreads)} drift {drift:.3f}",
                  flush=True)
        report["workloads"][wname] = {**rows, "unscaled": unscaled}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


def spread_stats(sets) -> tuple[list[float], list[float]]:
    """Median of each set, and its interquartile range as a share of it."""
    meds, spreads = [], []
    for values in sets:
        q1, _, q3 = statistics.quantiles(values, n=4)
        meds.append(statistics.median(values))
        spreads.append((q3 - q1) / meds[-1])
    return meds, spreads


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", action="store_true",
                   help="run every workload in two sets of ten runs and report "
                        "spreads against the bounds")
    p.add_argument("--out", help="steadiness report JSON file")
    args = p.parse_args(argv)
    if not args.steadiness:
        if args.workload is None:
            p.error("--workload is required")
        if args.seconds is None:
            args.seconds = load_benchmark()["run_seconds"]
        if args.seconds <= 0:
            p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        args = parse_args(argv)
        return steadiness(args) if args.steadiness else run_workload(args)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
