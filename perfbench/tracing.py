"""Span tracing of pulsepair's layers, installed from outside the package.

Every public function of the layer modules (plus the few private hot spots
named in ``EXTRA``) is replaced by a wrapper that records a span.  A wrapped
function can be reached under several names, because ``from .x import f``
copies it into other modules' namespaces (``analysis.simulate_run``,
``polarization.hermitian_eigensystem``); every such alias across the
``pulsepair.*`` namespaces is rebound while tracing is enabled, and the
originals are put back when it is disabled.

Self time is a span's duration minus the part of it that its child spans
cover.  Worker threads of ``simulate_run`` start with an empty span stack;
their spans become children of the span open on the tracing thread, so the
caller's self time does not include the time it waits on the pool.
Aggregates are kept in memory while tracing runs; no span is written out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("rng", "counting", "source", "polarization", "linalg", "analysis", "cli")

# private functions and methods traced besides the public module functions
EXTRA = {
    "counting": ("_run_chunk", "_build_tables"),
    "polarization": ("DensityMatrix.__init__",),
}


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class _Span:
    __slots__ = ("children",)

    def __init__(self) -> None:
        self.children: list[tuple[float, float]] = []


class Tracer:
    """Installs span wrappers on the layer modules and aggregates self time."""

    def __init__(self) -> None:
        self.present: list[str] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.func_self_s: dict[str, float] = defaultdict(float)
        self.words = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[_Span] = []
        # (namespace, attribute, original, wrapper) for every alias
        self._bindings: list[tuple[object, str, object, object]] = []

    def _stack(self) -> list[_Span]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        key = f"{layer}.{name}"
        counts_words = key in ("rng.mix64", "rng.mix64_int")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                owner = tracer._owner_stack
                parent = owner[-1] if owner and stack is not owner else None
            span = _Span()
            stack.append(span)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                own = (t1 - t0) - _covered(span.children)
                words = (getattr(args[0], "size", 1) if args else 1) if counts_words else 0
                with tracer._lock:
                    tracer.self_s[layer] += own
                    tracer.calls[layer] += 1
                    tracer.func_self_s[key] += own
                    tracer.words += words
                if parent is not None:
                    parent.children.append((t0, t1))

        return traced

    def install(self) -> None:
        """Build a wrapper for every traced function and find all its aliases.

        Nothing is rebound until :meth:`enable`.
        """
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"pulsepair.{layer}")
            except ImportError:
                continue  # layer deleted: its metrics are reported absent
            self.present.append(layer)
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and (not name.startswith("_") or name in EXTRA.get(layer, ()))
                ):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
            for dotted in EXTRA.get(layer, ()):
                if "." not in dotted:
                    continue
                cls_name, meth = dotted.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is not None and meth in vars(cls):
                    orig = vars(cls)[meth]
                    self._bindings.append((cls, meth, orig, self._wrap(layer, dotted, orig)))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pulsepair" or mod_name.startswith("pulsepair.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._bindings.append((mod, attr, val, hit[1]))

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, orig, _ in self._bindings:
            setattr(owner, attr, orig)
