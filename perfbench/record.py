"""Record the expected outputs of every pool op into reference.json.

    python3 perfbench/record.py

Runs each op of each workload's pool once with the program in this
checkout's src, stores the fields the checks compare, and reports any op
whose output already fails its check.  The references are a snapshot of
one commit: re-record only when a change is meant to alter results, and
say so where the change is described.
"""

from __future__ import annotations

import json
import platform
import shutil
import sys
import time

import numpy as np

import run
import workloads


def main() -> int:
    deltainv = run.import_program()
    ref = workloads.load_reference(run.REFERENCE) if run.REFERENCE.exists() else {}
    run.WORK.mkdir(exist_ok=True)
    workdir = run.WORK / "record"
    workdir.mkdir(exist_ok=True)
    bad = 0
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.WORKLOADS[name](deltainv, None, workdir)
            wl.env = workloads.child_env(run.SRC)
            ops = wl.make_ops(0)
            table = {}
            t0 = time.perf_counter()
            for op in ops:
                out = wl.run(op)
                table[op[0]] = wl.observed(op, out)
                wl.reference = {op[0]: table[op[0]]}
                err = wl.check(op, out)
                if err:
                    bad += 1
                    print(f"{name} op {op[0]} fails its check: {err}")
            ref[name] = table
            print(f"{name}: {len(table)} ops in {time.perf_counter() - t0:.1f} s",
                  flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ref["recorded_with"] = {
        "git_sha": run.git_sha(run.ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    run.REFERENCE.write_text(json.dumps(ref, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE}; {bad} ops fail their check")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
