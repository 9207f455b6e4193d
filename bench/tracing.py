"""Timing wrappers around the package's public functions, for traced runs.

The wrappers are installed from the benchmark's own code; nothing in the
package is edited. A span is (id, parent id, operation id, context, name,
start, end). Spans stay in memory until `write` is called. Per (context,
name) the tracer also keeps calls, self time (duration minus the time of
child spans) and a unit count taken from the call (blocks replayed, bytes
stored, entries exported, ...).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import defaultdict

# Functions imported by name into other modules must be replaced in each
# of them, or calls made through those modules' globals would go untimed.
BY_NAME = {
    "canonical_bytes": "hashing.canonical_bytes",
    "digest": "hashing.digest",
    "parse_model_bytes": "model.parse",
    "fire": "engine.fire",
    "verify_chain_file": "ledger.verify_chain_file",
    "verify_entry": "tracker.verify_entry",
}


# (class attribute path, span name, units of one call)
METHODS = [
    ("engine.Engine.fire_and_register", "engine.fire_and_register", None),
    ("registry.Registry.apply", "registry.apply", None),
    ("registry.Registry.get_transitions", "registry.get_transitions", None),
    ("ledger.Ledger.submit", "ledger.submit", None),
    ("ledger.Ledger.open", "ledger.open", lambda args, result: len(result.blocks)),
    ("store.DirectoryContentStore.put", "store.put", lambda args, result: len(args[1])),
    ("store.DirectoryContentStore.get", "store.get", None),
    ("store.ContentStore.put", "store.put", lambda args, result: len(args[1])),
    ("tracker.Tracker.catch_up", "tracker.catch_up", lambda args, result: len(result)),
    ("tracker.Tracker.export", "tracker.export", lambda args, result: result.count(b"\n")),
]
UNITS_BY_NAME = {"verify_chain_file": lambda args, result: result.blocks_checked}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.context = "none"
        self.op = 0
        self.long_instances: set[str] = set()
        self.spans: list[tuple] = []
        self.stats = defaultdict(lambda: [0, 0.0, 0])  # calls, self seconds, units
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 1
        self._undo: list[tuple] = []

    def begin(self, context: str) -> None:
        """Start a new operation: later spans share its id and context."""
        self.context = context
        self.op += 1

    def wrap(self, fn, name, units=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = name
            if name == "tracker.verify_entry":
                kind = "long" if args[0].instance_hash in tracer.long_instances else "short"
                span_name = f"{name}.{kind}"
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else 0
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                stat = tracer.stats[(tracer.context, span_name)]
                stat[0] += 1
                stat[1] += duration - frame[1]
                if units is not None and result is not None:
                    stat[2] += units(args, result)
                tracer.spans.append((span_id, parent, tracer.op, tracer.context,
                                     span_name, start, end))

        return traced

    def install(self, package) -> None:
        """Wrap the package's public functions and methods in place."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in
                               ("hashing", "model", "engine", "ledger", "registry",
                                "store", "tracker", "demo", "cli")]
        for attr, name in BY_NAME.items():
            original = getattr(package, attr)
            traced = self.wrap(original, name, UNITS_BY_NAME.get(attr))
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, traced)
        for path, name, units in METHODS:
            module_name, cls_name, meth = path.split(".")
            cls = getattr(getattr(package, module_name), cls_name)
            raw = cls.__dict__[meth]
            self._undo.append((cls, meth, raw))
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self.wrap(raw.__func__, name, units)))
            else:
                setattr(cls, meth, self.wrap(raw, name, units))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def total(self, name: str, contexts=None) -> tuple[int, float, int]:
        """Calls, self seconds and units of a span name, over some contexts."""
        calls, seconds, units = 0, 0.0, 0
        for (context, span_name), (c, s, u) in self.stats.items():
            if span_name == name and (contexts is None or context in contexts):
                calls, seconds, units = calls + c, seconds + s, units + u
        return calls, seconds, units

    def write(self, path) -> None:
        """All spans as gzip-compressed JSON Lines, in completion order."""
        keys = ("id", "parent", "op", "context", "name", "start", "end")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
