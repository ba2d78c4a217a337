"""Out-of-program tracer for the cyclolog layers.

`Tracer.install` rebinds every public function of the layer modules ring,
series, preimage, verify and cli in each namespace that looks it up (the
package and every layer module), and patches the ring methods on
`PiElement`.  Calls into series, preimage, verify and cli become spans; ring
calls are too many for that (one `run_all` makes about 190k
multiplications), so they are aggregated per (parent span, op) into a call
count, a total time and a self time.  A span's self time is its duration
minus the time its child calls cover.  Everything stays in memory until
`dump` writes it out.  Nothing in the package is edited.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import time

LAYERS = ("ring", "series", "preimage", "verify", "cli")

# PiElement methods, grouped under the name their metrics use
RING_METHODS = {
    "__mul__": "mul",
    "__rmul__": "mul",
    "__add__": "addsub",
    "__radd__": "addsub",
    "__sub__": "addsub",
    "__rsub__": "addsub",
    "__neg__": "addsub",
    "__pow__": "pow",
    "invert_unit": "invert_unit",
    "div_pi_power": "div_pi_power",
    "div_p": "div_p",
}

OP_SPAN = "bench.op"


def public_functions(module):
    """The public functions defined in `module` itself, by name."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Spans and ring aggregates for one traced pass over a list of ops."""

    def __init__(self, package: str = "cyclolog"):
        self.package = importlib.import_module(package)
        self.modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        self.piel = self.modules["ring"].PiElement
        # span: [name, start, end, parent span, op, self_s]
        self.spans: list[list] = []
        # (parent span, op, name) -> [calls, total_s, self_s]
        self.ring: dict[tuple, list] = {}
        self.errors = dict.fromkeys(LAYERS, 0)
        self.names: list[str] = []
        self.op = None
        self._stack: list[list] = []  # [span that children attribute to, child time]
        self._undo: list[tuple] = []

    def namespaces(self):
        return [self.package, *self.modules.values()]

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for layer, module in self.modules.items():
            for name, fn in public_functions(module).items():
                qualified = f"{layer}.{name}"
                wrapper = self._wrap(fn, qualified, layer, layer == "ring")
                for ns in self.namespaces():
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._undo.append((ns, key, fn))
                            setattr(ns, key, wrapper)
                self._add_name(qualified)
        for attr, group in RING_METHODS.items():
            fn = self.piel.__dict__[attr]
            qualified = f"ring.{group}"
            self._undo.append((self.piel, attr, fn))
            setattr(self.piel, attr, self._wrap(fn, qualified, "ring", True))
            self._add_name(qualified)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _add_name(self, name: str) -> None:
        if name not in self.names:
            self.names.append(name)

    def _wrap(self, fn, name: str, layer: str, aggregate: bool):
        stack, ring, errors = self._stack, self.ring, self.errors
        clock = time.perf_counter
        tracer = self

        if aggregate:

            @functools.wraps(fn)
            def ring_wrapper(*args, **kwargs):
                parent = stack[-1][0] if stack else None
                frame = [parent, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    errors[layer] += 1
                    raise
                finally:
                    dur = clock() - start
                    stack.pop()
                    if stack:
                        stack[-1][1] += dur
                    key = (parent, tracer.op, name)
                    agg = ring.get(key)
                    if agg is None:
                        ring[key] = [1, dur, dur - frame[1]]
                    else:
                        agg[0] += 1
                        agg[1] += dur
                        agg[2] += dur - frame[1]

            return ring_wrapper

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            with tracer.span(name):
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    errors[layer] += 1
                    raise

        return span_wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1][0] if stack else None, self.op, 0.0]
        frame = [len(self.spans), 0.0]
        self.spans.append(record)
        stack.append(frame)
        record[1] = start = time.perf_counter()
        try:
            yield
        finally:
            record[2] = end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1][1] += end - start
            record[5] = end - start - frame[1]

    @contextlib.contextmanager
    def op_span(self, op_id: int):
        """Root span of one benchmark op; every call inside carries its id."""
        self.op = op_id
        try:
            with self.span(OP_SPAN):
                yield
        finally:
            self.op = None

    # -- queries ------------------------------------------------------------

    def calls(self, name: str) -> int:
        if name.startswith("ring."):
            return sum(a[0] for (_, _, n), a in self.ring.items() if n == name)
        return sum(1 for s in self.spans if s[0] == name)

    def self_s(self, name: str) -> float:
        if name.startswith("ring."):
            return sum(a[2] for (_, _, n), a in self.ring.items() if n == name)
        return sum(s[5] for s in self.spans if s[0] == name)

    def ring_calls_under(self, name: str, parent: str) -> int:
        """Ring calls `name` whose nearest enclosing span is a `parent` span."""
        spans = self.spans
        return sum(
            a[0]
            for (pid, _, n), a in self.ring.items()
            if n == name and pid is not None and spans[pid][0] == parent
        )

    def child_calls(self, name: str, parent: str) -> int:
        """Spans `name` whose direct parent span is a `parent` span."""
        spans = self.spans
        return sum(1 for s in spans if s[0] == name and s[3] is not None and spans[s[3]][0] == parent)

    def calls_within(self, name: str, ancestor: str) -> int:
        """Spans `name` with an `ancestor` span anywhere above them."""
        spans = self.spans
        count = 0
        for s in spans:
            if s[0] != name:
                continue
            pid = s[3]
            while pid is not None and spans[pid][0] != ancestor:
                pid = spans[pid][3]
            count += pid is not None
        return count

    def dump(self, path) -> None:
        """Write every span and ring aggregate as gzipped JSON."""
        doc = {
            "span_fields": ["name", "start", "end", "parent", "op", "self_s"],
            "spans": self.spans,
            "ring_fields": ["parent", "op", "name", "calls", "total_s", "self_s"],
            "ring": [[*key, *agg] for key, agg in self.ring.items()],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
