"""Span tracing of onticbench from outside the package.

The tracer replaces selected public functions with timing wrappers wherever
their callers look them up: every ``onticbench`` module attribute and every
module-level dict value (such as the CLI's table of builtin models) that is
the original function object.  Nothing inside the package is edited, and
``uninstall`` puts every original back.

Each wrapped call records a span: id, operation id, name, start, end and
the id of the enclosing span.  All spans of one benchmark operation share
its operation id.  Spans stay in memory until the run ends, when ``write``
puts them in a JSON-lines file.  Counters are attached to the innermost
open span, so ratios are taken where the work happens.  The numerics layer
is too fine-grained to wrap; run.py times it with a microbenchmark instead.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# Functions wrapped in a traced run, by module.  Span names are
# "<module>.<function>"; the module is the layer.
TRACED: Dict[str, Tuple[str, ...]] = {
    "hilbert": ("born_probabilities",),
    "ontology": ("predicted_statistics", "check_born_agreement", "simulate"),
    "independence": ("analyze_independence", "classical_overlap"),
    "scenarios": (
        "build_pbr_quantum_scenario",
        "build_toy_nlhv_model",
        "build_pbr_lhv_model",
        "subsystem_states",
    ),
    "modelfile": ("loads", "validate_model"),
    "synthesis": (
        "build_synthesis_lp",
        "solve_feasibility",
        "verify_certificate",
        "solve_min_violation",
    ),
    "cli": ("run",),
}

# Functions that only bump a counter on the innermost open span: they run
# too often for a span each.
COUNTED: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "synthesis": (("_pivot", "pivots"),),
}

Observer = Callable[[tuple, dict, object], Dict[str, int]]


@dataclass
class Span:
    id: int
    op: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for the operation whose id is in ``op``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.op = 0
        self.spans: List[Span] = []
        self._stack: List[Tuple[int, Dict[str, int]]] = []
        self._next_id = 0
        self._patches: List[Tuple[object, object, object]] = []

    def wrap(self, name: str, fn: Callable, observe: Optional[Observer] = None) -> Callable:
        """A wrapper that records one span per call of ``fn``."""

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            counts: Dict[str, int] = defaultdict(int)
            self._stack.append((sid, counts))
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans.append(Span(sid, self.op, name, start, end, parent, counts))
            if observe is not None:
                for key, value in observe(args, kwargs, result).items():
                    counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, key: str, fn: Callable) -> Callable:
        """A wrapper that adds one to ``key`` on the innermost open span."""

        def counted(*args, **kwargs):
            if self._stack:
                self._stack[-1][1][key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self, observers: Optional[Dict[str, Observer]] = None) -> None:
        """Wrap every function in TRACED and COUNTED across loaded onticbench modules."""
        observers = observers or {}
        replacements: Dict[int, Callable] = {}
        for module_name, names in TRACED.items():
            module = sys.modules[f"onticbench.{module_name}"]
            for name in names:
                span_name = f"{module_name}.{name}"
                fn = getattr(module, name)
                replacements[id(fn)] = self.wrap(span_name, fn, observers.get(span_name))
        for module_name, pairs in COUNTED.items():
            module = sys.modules[f"onticbench.{module_name}"]
            for name, key in pairs:
                fn = getattr(module, name)
                replacements[id(fn)] = self.counter(key, fn)
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._patch(module, attr, replacements[id(value)])
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if id(item) in replacements:
                            self._patch(value, key, replacements[id(item)])

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        """Write every span as one JSON line, in the order spans ended."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = {"id": span.id, "op": span.op, "name": span.name, "start": span.start,
                          "end": span.end, "parent": span.parent, "counts": dict(span.counts)}
                handle.write(json.dumps(record) + "\n")

    def _patch(self, target, key, replacement) -> None:
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = replacement
        else:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, replacement)


def _package_modules() -> Iterable[object]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "onticbench" or name.startswith("onticbench."))
    ]


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = lo
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - covered_length(children[span.id], span.start, span.end)
        for span in spans
    }
