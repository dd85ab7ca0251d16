"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each trisurf layer from the
outside.  ``from .x import f`` copies a binding into the importing
module, so a wrapper is installed under every module attribute that
holds the original function object: ``admissible`` in both
``admissibility`` and ``builder``, ``classify`` in ``surfaces``,
``builder`` and the benchmark's own modules, and so on.

Each call records one span (id, name, start, end, parent, operation).
The parent is the innermost open span.  The span stack is shared by all
threads, so traced searches run with ``threads=1``.  Spans stay in
memory until the traced pass ends.  The wrappers are installed only
around a traced operation and removed before the next untraced one.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import Counter, defaultdict

# (layer, function) pairs the recorder wraps; layer is the module name
# under trisurf.  generators is timed as set-up and cli from outside.
TARGETS = (
    ("hypergraph", "pair_link"),
    ("hypergraph", "best_pair"),
    ("hypergraph", "codegree_table"),
    ("surfaces", "classify"),
    ("surfaces", "has_induced_boundary"),
    ("surfaces", "interior_vertices"),
    ("paths", "max_disjoint_paths"),
    ("paths", "path_through"),
    ("paths", "cycle_with_forced_second_vertex"),
    ("paths", "cycle_with_edge"),
    ("admissibility", "admissible"),
    ("admissibility", "relevant_vertices"),
    ("admissibility", "admissible_exact"),
    ("admissibility", "admissible_mc"),
    ("admissibility", "semi_admissible"),
    ("builder", "find_dense_pair"),
    ("builder", "find_apex"),
    ("builder", "build_disk_from_pair"),
    ("builder", "assemble_rp2"),
    ("builder", "verify_certificate"),
    ("builder", "find_rp2"),
)


def _note_classify(args, result):
    return args[0].facets


def _note_relevant(args, result):
    return (args[0], args[1], args[2])


def _note_estimate(args, result):
    return (result.mode, result.verdict)


def _note_disk(args, result):
    return result is not None


# what a wrapper keeps from a call, for the ratios that need more than
# a span: distinct inputs, verdicts and success flags
_NOTES = {
    "surfaces.classify": _note_classify,
    "admissibility.relevant_vertices": _note_relevant,
    "admissibility.admissible": _note_estimate,
    "builder.build_disk_from_pair": _note_disk,
}


class SpanRecorder:
    """Wraps layer functions in the given modules while installed."""

    def __init__(self, modules):
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.notes: dict[str, list] = defaultdict(list)
        self.op = 0
        self._ids = itertools.count(1)
        self._stack: list[int] = []
        # (module, attribute, original, wrapper) for every binding of a target
        self._bindings: list[tuple[object, str, object, object]] = []
        for layer, func in TARGETS:
            original = getattr(importlib.import_module(f"trisurf.{layer}"), func)
            wrapper = self._wrap(f"{layer}.{func}", original)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is original:
                        self._bindings.append((mod, attr, original, wrapper))

    def _wrap(self, name: str, fn):
        note = _NOTES.get(name)
        spans = self.spans
        notes = self.notes[name]
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter
        recorder = self

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, recorder.op))
            if note is not None:
                notes.append((recorder.op, note(args, result)))
            return result

        return traced

    def install(self) -> None:
        for mod, attr, _original, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _wrapper in self._bindings:
            setattr(mod, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-function calls, self and total time, plus the span ratios."""
        spans = self.spans
        by_id = {s[0]: s for s in spans}
        child_s: Counter = Counter()
        for _sid, _name, start, end, parent, _op in spans:
            if parent:
                child_s[parent] += end - start

        calls: Counter = Counter()
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        flow_under_exact = 0
        for sid, name, start, end, parent, _op in spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_s[sid]
            if not _nested_in_same(by_id, name, parent):
                total_s[name] += end - start
            if name == "paths.max_disjoint_paths" and parent:
                if by_id[parent][1] == "admissibility.admissible_exact":
                    flow_under_exact += 1

        out: dict[str, float] = {}
        for layer, func in TARGETS:
            key = f"{layer}.{func}"
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.self_s"] = self_s[key]
            out[f"{key}.total_s"] = total_s[key]

        notes = {name: self.notes.get(name, []) for name in _NOTES}
        # a repeat is the same input twice within one operation
        for key in ("surfaces.classify", "admissibility.relevant_vertices"):
            out[f"{key}.repeat_ratio"] = _ratio(len(notes[key]), len(set(notes[key])))
        estimates = [n for _, n in notes["admissibility.admissible"]]
        out["admissibility.exact_share"] = _ratio(
            sum(1 for mode, _ in estimates if mode == "exact"), len(estimates))
        out["admissibility.certified_ratio"] = _ratio(
            sum(1 for _, verdict in estimates if verdict == "admissible"), len(estimates))
        out["admissibility.flow_solves_per_exact"] = _ratio(
            flow_under_exact, calls["admissibility.admissible_exact"])
        disks = [n for _, n in notes["builder.build_disk_from_pair"]]
        out["builder.build_disk_from_pair.success_ratio"] = _ratio(sum(disks), len(disks))
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _nested_in_same(by_id, name: str, parent: int) -> bool:
    """Does an ancestor span have the same name (recursion, e.g. find_apex)?"""
    while parent:
        span = by_id[parent]
        if span[1] == name:
            return True
        parent = span[4]
    return False
