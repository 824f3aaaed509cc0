"""Spans around the library's public functions, recorded from outside it.

`Tracer.install` replaces each traced function with a timing wrapper in
every `horocenter` module (and class) that holds a reference to it, so
calls made between modules, and within a module through its globals, are
caught as well as the benchmark's own calls.  The library's files are not
touched; `Tracer.uninstall` puts the originals back.

Each span records its name, its duration and the duration of the spans
it caused, and is aggregated in memory as it closes.  `Tracer.summary()`
gives, per span name:

* `calls`, `inclusive_s` and `self_s` (inclusive minus child spans);
* `outermost_s`: inclusive seconds of spans with no ancestor of the same
  name, so recursion is not counted twice;
* `by_parent`: calls, keyed by the name of the nearest traced ancestor;

and `layer_outermost_s` per layer (the name's prefix before the first dot).
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

CALLS, TOTAL, SELF, OUTER, ACTIVE, BY_PARENT = range(6)


class Tracer:
    def __init__(self):
        self._stats: dict[str, list] = {}
        self._layers: dict[str, list] = {}  # layer -> [active, outermost seconds]
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []
        self.results: defaultdict = defaultdict(list)

    def _wrap(self, name: str, fn, keep_result):
        stat = self._stats.setdefault(name, [0, 0.0, 0.0, 0.0, 0, {}])
        layer = self._layers.setdefault(name.split(".", 1)[0], [0, 0.0])
        by_parent = stat[BY_PARENT]
        results = self.results[name]
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            stat[ACTIVE] += 1
            layer[0] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                stat[ACTIVE] -= 1
                layer[0] -= 1
                stat[CALLS] += 1
                stat[TOTAL] += dur
                stat[SELF] += dur - frame[1]
                if not stat[ACTIVE]:
                    stat[OUTER] += dur
                if not layer[0]:
                    layer[1] += dur
                by_parent[parent] = by_parent.get(parent, 0) + 1
                if stack:
                    stack[-1][1] += dur
            if keep_result is not None and keep_result(parent):
                results.append(result)
            return result

        return traced

    def install(self, targets) -> None:
        """targets: (owner, attribute, span name, keep_result or None).

        `keep_result(parent)` decides whether to keep the call's result
        in `results[name]`, given the name of the enclosing span.
        """
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if key == "horocenter" or key.startswith("horocenter.")
        ]
        for owner, attr, name, keep in targets:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(name, raw.__func__, keep)))
                continue
            wrapped = self._wrap(name, raw, keep)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._set(module, key, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict:
        spans = {
            name: {
                "calls": s[CALLS],
                "inclusive_s": s[TOTAL],
                "self_s": s[SELF],
                "outermost_s": s[OUTER],
                "by_parent": {str(p): c for p, c in s[BY_PARENT].items()},
            }
            for name, s in sorted(self._stats.items())
            if s[CALLS]
        }
        layers = {name: cell[1] for name, cell in sorted(self._layers.items())}
        return {"spans": spans, "layer_outermost_s": layers}
