"""In-memory span recorder installed around tabevent's public functions.

`Tracer.install` replaces every public function of the given modules, in
every given module namespace that holds it, with a wrapper that records a
span: name, start, end, parent span, decoder phase and a per-sentence or
per-instance id, plus an optional measurement of the call (tokens, array
sizes, solutions). Spans stay in memory until `save` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import numpy as np

# Per-span measurements, taken from (args, kwargs, result) of the call.
MEASURES = {
    "neural.forward": lambda a, k, r: len(a[0]),
    "neural.backward": lambda a, k, r: a[1].shape[0],
    "neural.sgd_step": lambda a, k, r: sum(g.size for g in a[1].values()),
    "supervision.label_sentence": lambda a, k, r: float(r.positive),
    "ilp.ilp_decode_multi": lambda a, k, r: len(r.sequences) + (0.5 if r.truncated else 0.0),
}

NAME, PARENT, PHASE, OP, START, END, VALUE = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.names: list[str] = []
        self.labels: list[str] = ["-"]   # phase and op labels share one table
        self._label_id = {"-": 0}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.phase = 0
        self.op = 0
        self._instances = 0

    def label(self, text: str) -> int:
        if text not in self._label_id:
            self._label_id[text] = len(self.labels)
            self.labels.append(text)
        return self._label_id[text]

    def set_phase(self, phase: str) -> None:
        self.phase = self.label(phase)
        self.op = self.phase

    def set_op(self, op: str) -> None:
        self.op = self.label(op)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        measure = MEASURES.get(name)
        new_instance = name == "neural.forward"
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if new_instance and self.labels[self.phase] == "train":
                self._instances += 1
                self.op = self.label(f"train#{self._instances}")
            span = [nid, stack[-1] if stack else -1, self.phase, self.op, 0.0, 0.0, 0.0]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if measure is not None:
                span[VALUE] = float(measure(args, kwargs, result))
            return result

        return wrapper

    def install(self, modules) -> None:
        """Wrap every public function defined in `modules`, wherever bound."""
        package = {m.__name__ for m in modules}
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ not in package:
                    continue
                key = id(obj)
                if key not in wrappers:
                    short = obj.__module__.rsplit(".", 1)[-1]
                    wrappers[key] = self._wrap(f"{short}.{obj.__name__}", obj)
                self._installed.append((module, attr, obj))
                setattr(module, attr, wrappers[key])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._installed):
            setattr(module, attr, obj)
        self._installed.clear()

    def save(self, path) -> None:
        cols = np.array([s[:4] for s in self.spans], dtype=np.int64).reshape(-1, 4)
        times = np.array([s[4:] for s in self.spans], dtype=np.float64).reshape(-1, 3)
        np.savez(
            path,
            names=np.array(self.names),
            labels=np.array(self.labels),
            name=cols[:, NAME], parent=cols[:, PARENT], phase=cols[:, PHASE], op=cols[:, OP],
            start=times[:, 0], end=times[:, 1], value=times[:, 2],
        )

    def summary(self) -> "Summary":
        return Summary(self)


class Summary:
    """Per-name inclusive time, self time, call count and measured values."""

    def __init__(self, tracer: Tracer) -> None:
        spans = tracer.spans
        self.names = tracer.names
        self.labels = tracer.labels
        self.spans = spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.value = defaultdict(float)
        self.durations = defaultdict(list)
        for i, s in enumerate(spans):
            name = self.names[s[NAME]]
            dur = s[END] - s[START]
            self.total[name] += dur
            self.self_time[name] += dur - child_time[i]
            self.calls[name] += 1
            self.value[name] += s[VALUE]
            self.durations[name].append(dur)

    def name_of(self, span_index: int) -> str:
        return self.names[self.spans[span_index][NAME]] if span_index >= 0 else ""

    def calls_under(self, name: str, parent_prefix: str) -> int:
        """Calls of `name` whose direct parent span's name starts with the prefix."""
        return sum(
            1 for s in self.spans
            if self.names[s[NAME]] == name and self.name_of(s[PARENT]).startswith(parent_prefix)
        )

    def total_in_phase(self, name: str, phase: str) -> float:
        return sum(
            s[END] - s[START] for s in self.spans
            if self.names[s[NAME]] == name and self.labels[s[PHASE]] == phase
        )
