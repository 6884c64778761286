"""Span tracer that times calls into the library from outside it.

The library stays clock-free (lint rule RL005), so per-layer time is
measured here: :meth:`Tracer.patch` swaps a public function or method
for a timing wrapper for the duration of a ``with`` block and restores
the original afterwards.  Spans nest through a stack, so every span
name gets both its total time and its *self* time (total minus the time
of traced calls made inside it).  Spans are accumulated in memory per
name -- no per-call records -- and read out when a rep ends.  Spans
opened inside a *scope* span (recovery, say) are kept apart under
``"<scope>><name>"``, so a layer's total covers the data path alone.

Tracing only adds timing around calls; it never changes arguments or
results, which the benchmark checks by comparing every deterministic
count of a traced rep with an untraced rep of the same input.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Iterator

#: ``(owner, attribute, span name, count hook or None)``.  A count hook
#: is called as ``hook(tracer, args, result)`` after each call.
Target = tuple[Any, str, str, Callable[..., None] | None]


class Tracer:
    """Accumulates span totals, self times, call counts and counters."""

    def __init__(self, scopes: tuple[str, ...] = ()) -> None:
        self.scopes = scopes
        self.reset()

    def reset(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        # Child time and name of every open span, innermost last.
        self._stack: list[float] = []
        self._open: list[str] = []

    def self_time(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def _enter(self, name: str) -> float:
        inside = [s for s in self._open if s in self.scopes]
        self._open.append(f"{inside[-1]}>{name}" if inside else name)
        self._stack.append(0.0)
        return perf_counter()

    def _close(self, t0: float) -> None:
        dt = perf_counter() - t0
        key = self._open.pop()
        self.child[key] += self._stack.pop()
        self.total[key] += dt
        self.calls[key] += 1
        if self._stack:
            self._stack[-1] += dt

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a block of benchmark code as span ``name``."""
        t0 = self._enter(name)
        try:
            yield
        finally:
            self._close(t0)

    def wrap(
        self, name: str, fn: Callable[..., Any],
        hook: Callable[..., None] | None = None,
    ) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            t0 = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(t0)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def patch(self, targets: list[Target]) -> Iterator["Tracer"]:
        """Route every target through a timing wrapper inside the block."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for owner, attr, name, hook in targets:
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(
                        self.wrap(name, raw.__func__, hook)
                    )
                else:
                    wrapped = self.wrap(name, raw, hook)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


def null_span(name: str) -> contextlib.AbstractContextManager[None]:
    """Stand-in for :meth:`Tracer.span` in untraced runs."""
    return contextlib.nullcontext()
