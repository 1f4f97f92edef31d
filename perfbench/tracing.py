"""Span recorder and layer wrappers for the traced benchmark run.

Nothing under ``src/`` knows about tracing: :func:`install` replaces
module-level callables and envelope methods with timing wrappers, and
:func:`uninstall` puts the originals back.

Every wrapped call pushes a frame; on exit its duration is charged to the
parent frame, so a layer's self time is its duration minus the time of
the wrapped calls inside it.  Coarse layer boundaries (one or a few per
operation) are also kept as spans -- name, start, end, parent span and
operation id -- and written as JSONL at the end.  Calls made hundreds of
thousands of times per operation (heap operations, envelope methods,
Hungarian solves) are only summed per name, which keeps memory bounded.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import Counter

import emdut.cli
import emdut.emd
import emdut.envelope
import emdut.hardness
import emdut.sweep1d

_clock = time.perf_counter

# ``emdut.emdut_hd`` resolves to the function re-exported by the package,
# so the module has to come from sys.modules.
_HD = sys.modules["emdut.emdut_hd"]

_BACKENDS = {"naive": emdut.envelope.NaiveEnvelope, "tree": emdut.envelope.TreeEnvelope}
ENVELOPE_OPS = ("insert", "remove", "add_range", "root_piece", "get")


class Tracer:
    """Call stack, per-name totals and recorded spans of one traced run."""

    def __init__(self):
        self.stack = []  # frames: [name, start, child_s, span_id]
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.spans = []
        self.op_id = 0
        self._patches = []

    # -- frames ----------------------------------------------------------------

    def active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def wrap(self, name, fn, record: bool = False, on_result=None):
        """Timing wrapper; ``name`` may be a callable chosen per call."""
        stack = self.stack

        def wrapper(*args, **kwargs):
            label = name(self) if callable(name) else name
            span_id = len(self.spans) if record else None
            if record:
                self.spans.append(None)  # reserve the id; filled on exit
            frame = [label, _clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                self.calls[label] += 1
                self.total_s[label] += dur
                self.self_s[label] += dur - frame[2]
                if record:
                    parent = next((f[3] for f in reversed(stack) if f[3] is not None),
                                  None)
                    self.spans[span_id] = {
                        "id": span_id, "parent": parent, "op": self.op_id,
                        "name": label, "start": frame[1], "end": end,
                        "self_s": dur - frame[2],
                    }
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def count(self, name: str, fn, hit):
        """Counting-only wrapper: bumps ``name`` when ``hit(result)``."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if hit(result):
                self.counts[name] += 1
            return result

        return wrapper

    # -- patching ----------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_call(self, owner, attr: str, name, **kw) -> None:
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _hungarian_name(tracer: Tracer) -> str:
    return "emd.witness_assign" if tracer.active("emd.witness") else "emd.value"


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    cli, emd, hd = emdut.cli, emdut.emd, _HD

    def add_points(t, ps):
        t.counts["core.parse_points"] += len(ps)

    def add_sweep_stats(t, result):
        stats = result[3]
        t.counts["sweep1d.events"] += stats.events
        t.counts["sweep1d.alignment_events"] += stats.alignment_events
        t.counts["sweep1d.reassignment_events"] += stats.reassignment_events

    def add_candidates(t, cands):
        t.counts["emdut_hd.candidates"] += len(cands)

    tracer.patch_call(cli, "main", "cli.main", record=True)
    tracer.patch_call(cli, "parse_point_set", "core.parse", record=True,
                      on_result=add_points)
    tracer.patch_call(cli, "serialize_point_set", "core.serialize", record=True)
    tracer.patch_call(cli, "ov_reduction", "hardness.gen", record=True)
    tracer.patch_call(cli, "emdut_1d_sweep", "sweep1d.solve", record=True,
                      on_result=add_sweep_stats)
    tracer.patch_call(cli, "emd_hungarian", "emd.solve", record=True)
    tracer.patch_call(cli, "emdut_hd", "emdut_hd.solve", record=True)
    # the CLI enumerates once to report a count, emdut_hd once more to solve
    for owner in (cli, hd):
        tracer.patch_call(owner, "candidate_translations", "emdut_hd.enumerate",
                          record=True, on_result=add_candidates)
    for owner in (emd, hd):
        tracer.patch_call(owner, "_lex_min_assignment", "emd.witness", record=True)
    for owner in (emd, hd, emdut.hardness):
        tracer.patch_call(owner, "_min_cost_assignment", _hungarian_name)
    tracer.patch_call(hd, "emd_value_at", "emdut_hd.eval")
    tracer.patch(hd, "_as_int_matrix",
                 tracer.count("emdut_hd.int_path", hd._as_int_matrix,
                              lambda ints: ints is not None))

    heap = emdut.sweep1d.heapq
    tracer.patch(emdut.sweep1d, "heapq", types.SimpleNamespace(
        heappush=tracer.wrap("sweep1d.heappush", heap.heappush),
        heappop=tracer.wrap("sweep1d.heappop", heap.heappop),
    ))
    for backend, cls in _BACKENDS.items():
        tracer.patch_call(cls, "__init__", f"envelope.{backend}.build")
        for op in ENVELOPE_OPS:
            tracer.patch_call(cls, op, f"envelope.{backend}.{op}")


def uninstall(tracer: Tracer) -> None:
    while tracer._patches:
        owner, attr, original = tracer._patches.pop()
        setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, ops: int, node_allocs: int) -> dict:
    """Per-operation layer figures: seconds in ``s``, work as ``count``."""
    t, c, n = tracer, tracer.calls, tracer.counts
    per = 1.0 / ops
    heap_pops = c["sweep1d.heappop"]
    evals = c["emdut_hd.eval"]
    out = {
        "cli.self_s": (t.self_s["cli.main"] * per, "s"),
        "core.parse_s": (t.total_s["core.parse"] * per, "s"),
        "core.parse_points": (n["core.parse_points"] * per, "count"),
        "core.serialize_s": (t.total_s["core.serialize"] * per, "s"),
        "hardness.gen_s": (t.total_s["hardness.gen"] * per, "s"),
        "sweep1d.solve_s": (t.total_s["sweep1d.solve"] * per, "s"),
        "sweep1d.self_s": (t.self_s["sweep1d.solve"] * per, "s"),
        "sweep1d.events": (n["sweep1d.events"] * per, "count"),
        "sweep1d.alignment_events": (n["sweep1d.alignment_events"] * per, "count"),
        "sweep1d.reassignment_events": (n["sweep1d.reassignment_events"] * per, "count"),
        "sweep1d.heap_pushes": (c["sweep1d.heappush"] * per, "count"),
        "sweep1d.heap_pops": (heap_pops * per, "count"),
        "sweep1d.heap_s": ((t.total_s["sweep1d.heappush"]
                            + t.total_s["sweep1d.heappop"]) * per, "s"),
        "sweep1d.stale_pop_frac": (
            1 - n["sweep1d.events"] / heap_pops if heap_pops else 0.0, "frac"),
    }
    for backend in _BACKENDS:
        for op in ENVELOPE_OPS:
            key = f"envelope.{backend}.{op}"
            out[f"{key}.calls"] = (c[key] * per, "count")
            out[f"{key}.s"] = (t.total_s[key] * per, "s")
        out[f"envelope.{backend}.builds"] = (c[f"envelope.{backend}.build"] * per,
                                             "count")
    out["envelope.tree.node_allocs"] = (node_allocs * per, "count")
    out.update({
        "emd.value_s": (t.total_s["emd.value"] * per, "s"),
        "emd.value_calls": (c["emd.value"] * per, "count"),
        "emd.witness_s": (t.total_s["emd.witness"] * per, "s"),
        "emd.witness_assign_calls": (c["emd.witness_assign"] * per, "count"),
        "emdut_hd.enumerate_s": (t.total_s["emdut_hd.enumerate"] * per, "s"),
        "emdut_hd.enumerate_calls": (c["emdut_hd.enumerate"] * per, "count"),
        "emdut_hd.candidates": (
            n["emdut_hd.candidates"] / c["emdut_hd.enumerate"]
            if c["emdut_hd.enumerate"] else 0.0, "count"),
        "emdut_hd.eval_s": (t.total_s["emdut_hd.eval"] * per, "s"),
        "emdut_hd.eval_calls": (evals * per, "count"),
        "emdut_hd.int_path_frac": (n["emdut_hd.int_path"] / evals if evals else 0.0,
                                   "frac"),
    })
    return out
