"""In-memory spans around the public functions of each wrapcheck layer.

A traced worker replaces each public function under every module
attribute its callers look it up by (``basis_and_dims`` in
``wrapcheck.algebra``, ``wrapcheck.battery`` and ``wrapcheck.embed``)
with a shim that records a span: name, start, end, parent span and
operation id.  Spans stay in memory until the pass ends; self time is a
span's duration minus that of its direct children, which nest strictly
because every call is synchronous.

A shim whose target attribute has disappeared raises ``TracingError``:
a layer that is no longer called where the benchmark expects it must
stop the run, not report zero.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager


class TracingError(RuntimeError):
    """A traced name is missing from the module that should hold it."""


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.recording = False
        self.op: str | None = None
        self.missed_presentations: list = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; yields its dict (None while not recording)."""
        if not self.recording:
            yield None
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._stack[-1]["id"] if self._stack else None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _replace(self, owner, attr: str, make_shim) -> None:
        where = getattr(owner, "__name__", repr(owner))
        if not hasattr(owner, attr):
            raise TracingError(f"traced target {where}.{attr} no longer exists")
        original = getattr(owner, attr)
        if not callable(original):
            raise TracingError(f"traced target {where}.{attr} is not callable")
        setattr(owner, attr, make_shim(original))

    def install(self, name: str, owner, attr: str) -> None:
        def make_shim(fn):
            def shim(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)

            return shim

        self._replace(owner, attr, make_shim)

    def install_cached(self, name: str, owner, attr: str) -> None:
        """Like ``install``, and marks calls that missed the function's lru_cache."""

        def make_shim(fn):
            if not hasattr(fn, "cache_info"):
                raise TracingError(f"{name}: target has no cache_info, misses cannot be counted")

            def shim(presentation):
                with self.span(name) as rec:
                    before = fn.cache_info().misses
                    result = fn(presentation)
                    if rec is not None:
                        rec["miss"] = fn.cache_info().misses > before
                        if rec["miss"]:
                            self.missed_presentations.append((self.op, presentation))
                    return result

            return shim

        self._replace(owner, attr, make_shim)

    def install_degree(self, name: str, owner, attr: str) -> None:
        """Like ``install``, and keeps the map, step and tracemalloc peak of each call."""

        def make_shim(fn):
            def shim(m, radii, quadrature_step, *args, **kwargs):
                with self.span(name) as rec:
                    if rec is None:
                        return fn(m, radii, quadrature_step, *args, **kwargs)
                    tracemalloc.start()
                    try:
                        result = fn(m, radii, quadrature_step, *args, **kwargs)
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                    rec["map"] = m.name
                    rec["step"] = quadrature_step
                    rec["radii"] = [float(r) for r in radii]
                    rec["domain_dim"] = m.domain_dim
                    rec["peak_mb"] = peak / 2**20
                    return result

            return shim

        self._replace(owner, attr, make_shim)

    def self_times(self) -> list[float]:
        """Self time in seconds of every span, indexed like ``spans``."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out
