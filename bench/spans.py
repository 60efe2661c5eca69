"""Spans around thetagap's public functions, recorded from outside the program.

Each traced function is replaced, at every thetagap module attribute bound to
it, by a wrapper that times the call.  Spans nest through a stack, so a
span's self time is its duration minus the time spent in child spans.  Two
checks hidden inside constructors are measured by rebuilding the returned
object from its fields: the FiniteMetric from ``distance_matrix`` (its
triangle check) and the certificate from ``is_l1_embeddable``.  The rebuild
runs after the span has ended and is charged to neither the span nor its
parents.  No source file of the program changes.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _rebuild(obj) -> None:
    type(obj)(**{f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})


# (module, function, name of the check measured by rebuilding its result)
TRACED = (
    ("graphio", "loads_graph", None),
    ("graphio", "loads_points", None),
    ("core", "distance_matrix", "core.metric_check"),
    ("theta", "minimal_theta", None),
    ("witness", "construct_witness", None),
    ("analysis", "is_negative_type", None),
    ("analysis", "psd_decompose", None),
    ("analysis", "gamma", None),
    ("analysis", "gap_bracket", None),
    ("l1cut", "is_l1_embeddable", "l1cut.certificate_check"),
)


class Tracer:
    """Self time and call count per traced function, plus the CLI root span."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self._stack: list[list] = []  # [child seconds, layer] per open span
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn, check):
        key = f"{layer}.{name}"
        stack, self_s, calls = self._stack, self.self_s, self.calls

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if name == "psd_decompose" and any(f[1] == "l1cut" for f in stack):
                calls["analysis.psd_decompose_from_l1cut"] += 1
            frame = [0.0, layer]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            own = t1 - t0 - frame[0]
            if check is not None:
                c0 = perf_counter()
                _rebuild(result)
                spent = perf_counter() - c0
                self_s[check] += spent
                own -= spent
            self_s[key] += own
            calls[key] += 1
            parent[0] += perf_counter() - t0
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of each traced function in the thetagap modules."""
        modules = [sys.modules["thetagap"]] + [
            importlib.import_module(f"thetagap.{m}")
            for m in ("analysis", "cli", "core", "families", "graphio", "l1cut", "theta", "witness")
        ]
        for layer, name, check in TRACED:
            fn = getattr(sys.modules[f"thetagap.{layer}"], name)
            wrapper = self._wrap(layer, name, fn, check)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in self._restore:
            setattr(module, attr, fn)
        self._restore.clear()

    def command(self, call):
        """Run one CLI call as the root span; its self time is the cli layer's."""
        frame = [0.0, "cli"]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return call()
        finally:
            elapsed = perf_counter() - t0
            self._stack.pop()
            self.self_s["cli.main"] += elapsed - frame[0]
            self.self_s["command"] += elapsed
