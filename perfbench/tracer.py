"""Spans around the package's public functions, installed from outside.

Every public function of the layer modules is wrapped, and the wrapper is
put both where the function is defined and wherever another module of the
package imported it by name (e.g. `classes.hooks_compose`), so calls made
inside the package are traced too. `uninstall` puts the originals back.

Per span the tracer adds to running totals: calls, self time (the span's
duration minus that of its child spans), calls that raised, and calls per
(parent, child) edge. Whole spans are kept only while `keep_spans` is set.
"""
from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, label_of=None, work_of=None, tally_returns=(), clock=perf_counter):
        """`label_of[name](args)` names a call's span when one function needs
        a label per argument; `work_of[name](args)` gives a work count
        computed from the arguments; calls of a label in `tally_returns` add
        their return values up. Spans are timed with `clock`."""
        self.clock = clock
        self.label_of = label_of or {}
        self.work_of = work_of or {}
        self.tally_returns = frozenset(tally_returns)
        self.stack = []  # open spans: [span id, label, seconds covered by children]
        self.next_id = 1
        self.keep_spans = False
        self.spans = []  # (id, parent id or 0, label, start, end, raised)
        self.patched = []
        self.totals = None
        self.reset()

    def reset(self):
        """Start new totals; returns the old ones."""
        old = self.totals
        self.totals = {
            "calls": Counter(),
            "self_s": defaultdict(float),
            "raised": Counter(),
            "edges": Counter(),
            "returned": Counter(),
            "work": Counter(),
        }
        return old

    def install(self, layers, modules):
        """Wrap the public functions defined in `layers` (name -> module) and
        patch every reference to them found in `modules`."""
        wrappers = {}
        for layer, mod in layers.items():
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self.patched.append((mod, name, value))
                    setattr(mod, name, wrappers[value])

    def uninstall(self):
        while self.patched:
            mod, name, fn = self.patched.pop()
            setattr(mod, name, fn)

    def _wrap(self, label, fn):
        label_of = self.label_of.get(label)
        work_of = self.work_of.get(label)
        tally = label in self.tally_returns
        stack = self.stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label_of(args) if label_of else label
            if work_of:
                self.totals["work"][name] += work_of(args)
            frame = [self.next_id, name, 0.0]
            self.next_id += 1
            parent = stack[-1] if stack else None
            stack.append(frame)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                self._close(frame, parent, start, end, raised)
            if tally:
                self.totals["returned"][name] += result
            return result

        return traced

    def _close(self, frame, parent, start, end, raised):
        span_id, name, children_s = frame
        t = self.totals
        t["calls"][name] += 1
        t["self_s"][name] += end - start - children_s
        if raised:
            t["raised"][name] += 1
        if parent is not None:
            parent[2] += end - start
            t["edges"][parent[1], name] += 1
        if self.keep_spans:
            self.spans.append((span_id, parent[0] if parent else 0, name, start, end, raised))

    def write_spans(self, path):
        """One tab-separated line per kept span; times in ns from the first start."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as f:
            f.write("id\tparent\tname\tstart_ns\tend_ns\traised\n")
            for span_id, parent, name, start, end, raised in self.spans:
                f.write(f"{span_id}\t{parent}\t{name}\t{round((start - t0) * 1e9)}\t{round((end - t0) * 1e9)}\t{int(raised)}\n")
