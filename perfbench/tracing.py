"""Spans and counters recorded around calls into sfwm_sim, from outside the package.

``Tracer.install`` swaps each traced function for a timing wrapper in the
namespace of every loaded ``sfwm_sim`` module that holds it.  ``cli``,
``templates`` and ``circuit`` import their callees by name, so patching only
the defining module would miss most calls.  Spans stay in memory until
``write`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        # One span: (name, start_s, end_s, parent index or -1, op index).
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.enabled = False
        self.op_index = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] += amount

    def _wrap(self, span_name: str, fn, on_return):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((span_name, 0.0, 0.0, parent, self.op_index))
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (span_name, start, end, parent, self.op_index)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced

    def install(self, module, attr: str, span_name: str, on_return=None) -> None:
        """Trace ``module.attr`` wherever a loaded sfwm_sim module refers to it."""
        original = getattr(module, attr)
        wrapper = self._wrap(span_name, original, on_return)
        for name, mod in list(sys.modules.items()):
            if name != "sfwm_sim" and not name.startswith("sfwm_sim."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def count_property(self, cls, attr: str, counter: str) -> bool:
        """Count each computation of a property (plain or cached) of ``cls``."""
        prop = cls.__dict__.get(attr)
        if isinstance(prop, property):
            compute = prop.fget
        elif isinstance(prop, functools.cached_property):
            compute = prop.func
        else:
            return False
        tracer = self

        def counted(obj):
            tracer.count(counter)
            return compute(obj)

        if isinstance(prop, property):
            replacement = property(counted, doc=prop.__doc__)
        else:
            replacement = functools.cached_property(counted)
            replacement.__set_name__(cls, attr)
        setattr(cls, attr, replacement)
        self._undo.append((cls, attr, prop))
        return True

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: inclusive seconds, self seconds and number of calls.

        Self time is a span's duration minus the time its child spans cover;
        with one thread, children never overlap one another.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: Counter[str] = Counter()
        own: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child_time[i]
            calls[name] += 1
        return dict(total), dict(own), dict(calls)

    def calls_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        found = 0
        for span_name, _, _, parent, _ in self.spans:
            if span_name != name:
                continue
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    found += 1
                    break
                parent = self.spans[parent][3]
        return found

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": n, "start_s": s, "end_s": e, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]
        path.write_text(json.dumps({"spans": rows, "counts": dict(self.counts)}) + "\n")
