"""Span tracing of itpda's public functions, installed from outside.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that records a span, and it does so in every module
attribute that refers to the function.  Calls between modules
(``cli`` calling ``machine.accepts``) and calls through names imported
into another module (``contour`` calling ``level_word``) are therefore
caught as well.  ``uninstall`` puts the original functions back.

A span is ``(id, parent, name, start_ns, end_ns, size)``; ``size`` is the
length of the returned tuple, list or set, else None.  Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

_SIZED = (tuple, list, set, frozenset)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        sid, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, parent, name, start, None)

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, size):
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end, size))

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                size = len(result) if isinstance(result, _SIZED) else None
                self._close(sid, parent, name, start, size)
        return traced

    def install(self, layers: dict, modules) -> None:
        """Wrap the public functions defined in ``layers`` (layer name ->
        module), patching each reference to them in ``modules``."""
        wrappers = {}
        for layer, module in layers.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class SpanTree:
    """Per-root summaries of a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.children = defaultdict(list)
        for s in spans:
            if s[1] is not None:
                self.children[s[1]].append(s)

    def roots(self, name: str):
        return sorted((s for s in self.spans if s[1] is None and s[2] == name),
                      key=lambda s: s[3])

    def summary(self, root) -> dict:
        """Totals below one root span, in seconds.

        ``total[name]``: summed duration of the spans with that name.
        ``size[name]``: summed result sizes.
        ``outer[layer]``: summed duration of the outermost spans of a
        layer.  ``self[layer]``: summed self time (span minus its direct
        children).  ``cli_main_self``: time in ``cli.main`` outside the
        ``machine.accepts`` calls it makes.
        """
        total = defaultdict(float)
        size = defaultdict(int)
        outer = defaultdict(float)
        self_time = defaultdict(float)
        cli_main_self = 0.0
        pending = [(root, None, False)]
        while pending:
            span, parent_layer, under_cli = pending.pop()
            _sid, _parent, name, start, end, n = span
            dur = (end - start) / 1e9
            kids = self.children.get(span[0], ())
            layer = layer_of(name)
            total[name] += dur
            if n is not None:
                size[name] += n
            if layer != parent_layer:
                outer[layer] += dur
            self_time[layer] += dur - sum((k[4] - k[3]) / 1e9 for k in kids)
            if name == "cli.main":
                cli_main_self += dur
            elif name == "machine.accepts" and under_cli:
                cli_main_self -= dur
            for kid in kids:
                pending.append((kid, layer, under_cli or name == "cli.main"))
        return {"total": total, "size": size, "outer": outer,
                "self": self_time, "cli_main_self": cli_main_self}
