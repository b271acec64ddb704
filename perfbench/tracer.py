"""In-memory span tracer that times the program's public entry points.

The traced run wraps each layer's entry points at runtime, at every place
the program holds a reference to them: module attributes that are the
same function object (``from .techmap import cleanup`` copies the
reference into ``repro.synth.dcshell``) and the defining class for
methods.  Each call records one :class:`Span`; spans stay in memory until
the run ends.  :meth:`Tracer.uninstall` puts every original back.

Parent links follow ``contextvars``.  Pool threads started by
``repro.parallel`` already run in a copy of the submitting context; while
the tracer is installed, ``ThreadPoolExecutor.submit`` also copies the
caller's context, so kernels that the serving engine hands to its stage
executor attach to the span that submitted them.

Self time is computed by :func:`attribute` with a sweep over span
boundaries: each instant of the pass goes to the innermost spans open at
that instant (split evenly when several run at once in different
threads), or to the unattributed remainder when no span is open.  So a
span's self time is its duration minus the time its child spans cover,
never negative, and all self times plus the remainder add up to the wall
time of the pass.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import sys
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Span", "Tracer", "attribute", "layer_totals", "request_scope"]

#: ``(span id, request id)`` of the innermost open span in this context.
_CURRENT: contextvars.ContextVar[tuple[int, Any] | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)
#: Request id set by the benchmark around each request it issues.
_REQUEST: contextvars.ContextVar[Any] = contextvars.ContextVar(
    "perfbench_request", default=None
)


class request_scope:
    """``with request_scope(rid):`` tags spans opened inside with ``rid``."""

    def __init__(self, request_id: Any) -> None:
        self.request_id = request_id
        self._token = None

    def __enter__(self) -> "request_scope":
        self._token = _REQUEST.set(self.request_id)
        return self

    def __exit__(self, *exc) -> None:
        _REQUEST.reset(self._token)


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    request_id: Any = None


class Tracer:
    """Records spans around wrapped callables; restores them on uninstall."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Outcome counters filled by ``observe`` hooks (e.g. failed scripts).
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._restore: list[tuple[Any, str, Any]] = []

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable[["Tracer", Any], None] | None = None,
    ) -> Callable:
        """A traced copy of ``fn`` recording spans named ``name``."""
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                token, span_id, parent = tracer._open()
                start = time.perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer._close(token, span_id, parent, name, start)
                if observe is not None:
                    observe(tracer, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token, span_id, parent = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(token, span_id, parent, name, start)
            if observe is not None:
                observe(tracer, result)
            return result

        return wrapper

    def _open(self):
        parent = _CURRENT.get()
        span_id = next(self._ids)
        request = parent[1] if parent is not None else _REQUEST.get()
        token = _CURRENT.set((span_id, request))
        return token, span_id, parent

    def _close(self, token, span_id, parent, name, start) -> None:
        end = time.perf_counter()
        request = _CURRENT.get()[1]
        _CURRENT.reset(token)
        self.spans.append(
            Span(
                span_id,
                parent[0] if parent is not None else None,
                name,
                start,
                end,
                request,
            )
        )

    def patch_function(
        self,
        module_name: str,
        attr: str,
        name: str,
        observe: Callable[["Tracer", Any], None] | None = None,
    ) -> None:
        """Wrap ``module.attr`` at every module under its package that holds it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self.wrap(name, original, observe)
        package = module_name.split(".")[0]
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == package or mod_name.startswith(package + ".")
            ):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def patch_method(
        self,
        cls: type,
        attr: str,
        name: str,
        observe: Callable[["Tracer", Any], None] | None = None,
    ) -> None:
        """Wrap ``cls.attr`` on the class that defines it."""
        owner = next(klass for klass in cls.__mro__ if attr in vars(klass))
        original = vars(owner)[attr]
        self._set(owner, attr, self.wrap(name, original, observe))

    def propagate_executor_context(self) -> None:
        """Make ``ThreadPoolExecutor.submit`` run work in the caller's context."""
        original = ThreadPoolExecutor.submit

        def submit(executor, fn, /, *args, **kwargs):
            return original(
                executor, contextvars.copy_context().run, fn, *args, **kwargs
            )

        self._set(ThreadPoolExecutor, "submit", submit)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._restore)

    def take(self) -> list[Span]:
        """Return the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def attribute(
    spans: list[Span], start: float, end: float
) -> tuple[dict[int, float], float]:
    """Self time per span id over ``[start, end]``, plus the unattributed rest.

    An instant belongs to the open spans that have no open child; when
    several such spans are open at once (concurrent threads) they share
    it evenly.  Instants with no open span are unattributed.  Returns
    ``(self_time_by_span_id, unattributed_s)``; the values sum to
    ``end - start``.
    """
    by_id = {span.span_id: span for span in spans}
    events: list[tuple[float, int, int, Span]] = []
    for span in spans:
        s, e = max(span.start, start), min(span.end, end)
        if e < s:
            continue
        # Opens in creation order (parents first), closes children first.
        events.append((s, 1, span.span_id, span))
        events.append((e, 0, -span.span_id, span))
    events.sort(key=lambda item: item[:3])
    self_time: dict[int, float] = {span.span_id: 0.0 for span in spans}
    open_children: dict[int, int] = defaultdict(int)
    is_open: set[int] = set()
    frontier: set[int] = set()
    unattributed = 0.0
    cursor = start
    for when, opening, _, span in events:
        dt = when - cursor
        if dt > 0:
            if frontier:
                share = dt / len(frontier)
                for span_id in frontier:
                    self_time[span_id] += share
            else:
                unattributed += dt
            cursor = when
        parent = span.parent_id if span.parent_id in by_id else None
        if opening:
            is_open.add(span.span_id)
            frontier.add(span.span_id)
            if parent is not None and parent in is_open:
                open_children[parent] += 1
                frontier.discard(parent)
        else:
            is_open.discard(span.span_id)
            frontier.discard(span.span_id)
            if parent is not None and parent in is_open:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    frontier.add(parent)
    if end > cursor:
        unattributed += end - cursor
    return self_time, unattributed


def layer_totals(
    spans: list[Span], self_time: dict[int, float]
) -> dict[str, dict[str, float]]:
    """``{span name: {"self_s": ..., "calls": ...}}`` over ``spans``."""
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span.name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += self_time.get(span.span_id, 0.0)
        entry["calls"] += 1
    return totals
