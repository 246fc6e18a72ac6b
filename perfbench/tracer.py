"""Span tracer that wraps the program's public names from outside.

install() swaps each listed module attribute for a wrapper that records
one span (name, start, end, parent) per call; uninstall() puts the
originals back. Callers that look a name up at call time (module
globals inside the package, or attribute access on a module) then go
through the wrapper, so nothing in the program changes. Spans stay in
memory and are written out once, at the end of the run.
"""

import functools
import os
import statistics
import time

_NAME, _START, _END, _PARENT = range(4)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self._stack = []
        self._saved = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self._stack.pop()
        self.spans[idx][_END] = time.perf_counter_ns()

    def _wrapper(self, fn, name):
        namer = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(namer(args, kwargs) if namer else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def install(self, targets):
        """targets: iterable of (module, attribute, span name or namer)."""
        for module, attr, name in targets:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(fn, name))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write_csv(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent}\n")


def _layer(name):
    return name.split(".", 1)[0]


class SpanIndex:
    """Derived views of a span list: self time, same-layer groups, ops."""

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.dur = [(s[_END] - s[_START]) * 1e-9 for s in spans]
        # quad only drives a caller's integrand: its time belongs to the
        # caller, so it is transparent when charging child time
        eff = [-1] * n
        group = [""] * n
        op = [""] * n
        child = [0.0] * n
        for i, (name, _, _, parent) in enumerate(spans):
            p = parent
            while p >= 0 and spans[p][_NAME] == "quad":
                p = spans[p][_PARENT]
            eff[i] = p
            if name != "quad" and p >= 0:
                child[p] += self.dur[i]
            # a span nested directly in a span of its own layer is
            # reported under that outer span's name
            if p >= 0 and _layer(spans[p][_NAME]) == _layer(name):
                group[i] = group[p]
            else:
                group[i] = name
            op[i] = name if _layer(name) == "op" else (op[parent] if parent >= 0 else "")
        self.eff_parent = eff
        self.group = group
        self.op = op
        self.exclusive = [
            0.0 if s[_NAME] == "quad" else self.dur[i] - child[i]
            for i, s in enumerate(spans)
        ]

    def count(self, name):
        return sum(1 for s in self.spans if s[_NAME] == name)

    def self_time(self, pred):
        return sum(t for i, t in enumerate(self.exclusive) if pred(self.spans[i][_NAME], self.group[i]))

    def durations(self, pred):
        return [self.dur[i] for i, s in enumerate(self.spans) if pred(i, s[_NAME])]

    def quad_calls(self, layer):
        return sum(
            1
            for i, s in enumerate(self.spans)
            if s[_NAME] == "quad"
            and self.eff_parent[i] >= 0
            and _layer(self.spans[self.eff_parent[i]][_NAME]) == layer
        )

    def nearest(self, i, layer):
        """Index of the closest ancestor of span i in the given layer, or -1."""
        p = self.spans[i][_PARENT]
        while p >= 0 and _layer(self.spans[p][_NAME]) != layer:
            p = self.spans[p][_PARENT]
        return p


def p50_ms(values):
    return statistics.median(values) * 1e3 if values else 0.0
