"""Span tracing by rebinding deltainv's module-level functions.

The tracer wraps each target function and rebinds the wrapper under every
name a deltainv module looks it up by (``deltainv.tensors._rotate_dense``
and ``deltainv.delta._rotate_dense`` alike), and ``Frame.random`` on the
class.  Each call records one span: name, start, end, parent span and op
id.  Spans are kept in flat arrays in memory and written out after the run;
``uninstall`` puts every original function object back where it was found.

Generator functions (``run_campaign``) get one span per ``next()``, so
their self time is the work done between yields.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

# (module, qualified name) of every traced function; the span name is the
# module's short name plus the qualified name, e.g. "delta._descend".
TARGETS = (
    ("deltainv.tensors", "random_cubic_form"),
    ("deltainv.tensors", "Frame.random"),
    ("deltainv.tensors", "_rotate_dense"),
    ("deltainv.tensors", "_tau_dense"),
    ("deltainv.bounds", "optimal_coefficients"),
    ("deltainv.bounds", "evaluate"),
    ("deltainv.campaign", "run_campaign"),
    ("deltainv.campaign", "campaign_csv"),
    ("deltainv.delta", "universal_check"),
    ("deltainv.delta", "delta_invariant"),
    ("deltainv.delta", "delta_coordinate_oracle"),
    ("deltainv.delta", "_descend"),
    ("deltainv.delta", "_block_tau_h"),
    ("deltainv.delta", "_grad_skew"),
    ("deltainv.delta", "_cayley_step"),
    ("deltainv.equality", "random_witness"),
    ("deltainv.quadforms", "build_M"),
    ("deltainv.immersion", "lemma1_roundtrip"),
    ("deltainv.cli", "main"),
)

# span names whose return value is kept, keyed by span index
KEEP_RESULT = {"delta._descend"}

SPAN_COLUMNS = ("name", "start", "end", "parent", "op")


def span_name(module: str, qualname: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{qualname}"


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self, max_spans: int = 2_000_000):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.results: dict[int, object] = {}
        self.current_op = -1
        self.max_spans = max_spans
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording --------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def enter(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def extend(self, names, starts, ends, parents, results=None):
        """Append spans recorded in a traced child, under the current op.

        ``results`` maps a child span index to (f, converged) of a descent.
        """
        base = len(self.start)
        for idx, (f, ok) in (results or {}).items():
            self.results[base + int(idx)] = (f, None, ok)
        for name, s, e, p in zip(names, starts, ends, parents):
            self.name.append(self.name_id(name))
            self.start.append(s)
            self.end.append(e)
            self.parent.append(p + base if p >= 0 else -1)
            self.op.append(self.current_op)

    @property
    def full(self) -> bool:
        return len(self.start) >= self.max_spans

    def _wrap(self, func, name: str):
        nid = self.name_id(name)
        keep = name in KEEP_RESULT
        enter, exit_ = self.enter, self.exit

        if inspect.isgeneratorfunction(func):

            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                it = func(*args, **kwargs)
                while True:
                    idx = enter(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        exit_(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = enter(nid)
            try:
                result = func(*args, **kwargs)
            finally:
                exit_(idx)
            if keep:
                self.results[idx] = result
            return result

        return wrapper

    # -- installing -------------------------------------------------------

    def install(self, targets=TARGETS):
        """Wrap every target found in the loaded deltainv modules."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "deltainv" or key.startswith("deltainv."))
        ]
        for module_name, qualname in targets:
            name = span_name(module_name, qualname)
            module = sys.modules.get(module_name)
            if module is None:
                self.missing.append(name)
                continue
            if "." in qualname:
                cls_name, attr = qualname.split(".", 1)
                cls = getattr(module, cls_name, None)
                desc = cls.__dict__.get(attr) if cls is not None else None
                if not isinstance(desc, classmethod):
                    self.missing.append(name)
                    continue
                self._restore.append((cls, attr, desc))
                setattr(cls, attr, classmethod(self._wrap(desc.__func__, name)))
                continue
            original = getattr(module, qualname, None)
            if not inspect.isfunction(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(original, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self):
        """Put every original object back, in reverse order of rebinding."""
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- output -----------------------------------------------------------

    def spans(self):
        """Plain lists in SPAN_COLUMNS order, names resolved."""
        return (
            [self.names[i] for i in self.name],
            list(self.start),
            list(self.end),
            list(self.parent),
            list(self.op),
        )

    def write_csv_gz(self, path):
        """Write the spans as gzip-compressed CSV, one row per span."""
        names, starts, ends, parents, ops = self.spans()
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(",".join(SPAN_COLUMNS) + "\n")
            for row in zip(names, starts, ends, parents, ops):
                fh.write("%s,%.9f,%.9f,%d,%d\n" % row)


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and their union is
    subtracted, so overlapping or out-of-range children are not counted
    twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s, e, p in zip(starts, ends, parents):
        if p >= 0:
            children.setdefault(p, []).append((s, e))
    out = []
    for idx, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, s), min(hi, e)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((e - s) - covered)
    return out


ORACLE = "delta.delta_coordinate_oracle"
TAU = "tensors._tau_dense"
INVARIANT = "delta.delta_invariant"
DESCEND = "delta._descend"
AT_BEST_RTOL = 1e-10


def aggregate(tracer: Tracer) -> dict:
    """Totals over all spans of a traced run.

    ``by_name`` maps a span name to its calls, self seconds and total
    (inclusive) seconds.  ``tau_in_oracle`` counts tau evaluations inside
    an oracle span.  ``descend`` counts descents, converged descents and
    descents that ended within AT_BEST_RTOL of the best value of their
    ``delta_invariant`` call.
    """
    names, starts, ends, parents, _ = tracer.spans()
    selfs = self_times(starts, ends, parents)
    by_name: dict[str, dict] = {}
    in_oracle: list[bool] = []
    invariant_of: list[int] = []
    tau_in_oracle = 0
    finals: dict[int, list[float]] = {}
    converged = 0
    for i, name in enumerate(names):
        p = parents[i]
        in_oracle.append(p >= 0 and (in_oracle[p] or names[p] == ORACLE))
        invariant_of.append(i if name == INVARIANT else (invariant_of[p] if p >= 0 else -1))
        row = by_name.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        row["total_s"] += ends[i] - starts[i]
        if name == TAU and in_oracle[i]:
            tau_in_oracle += 1
        if name == DESCEND and i in tracer.results:
            f, _, ok = tracer.results[i]
            converged += bool(ok)
            finals.setdefault(invariant_of[i], []).append(float(f))
    at_best = 0
    for fs in finals.values():
        best = min(fs)
        at_best += sum(abs(f - best) <= AT_BEST_RTOL * max(1.0, abs(best)) for f in fs)
    return {
        "by_name": by_name,
        "tau_in_oracle": tau_in_oracle,
        "descend": {
            "calls": sum(len(fs) for fs in finals.values()),
            "converged": converged,
            "at_best": at_best,
        },
    }
