"""In-memory span recorder for the traced run.

Spans are opened around the public callables each layer exposes, by
replacing those attributes from outside (``Tracer.wrap``); nothing in the
program is edited.  A span's self time is its duration minus the time its
child spans cover.  ``self_ns`` keeps the summed self time per span name;
``durations`` keeps every span's own duration in ms (for percentiles).
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Union


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self._stack: List[list] = []
        self.self_ns: Dict[str, int] = {}
        self.durations: Dict[str, List[float]] = {}

    def reset(self) -> None:
        self.self_ns.clear()
        self.durations.clear()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        self._push(name)
        try:
            yield
        finally:
            self._pop()

    def _push(self, name: str) -> None:
        self._stack.append([name, time.perf_counter_ns(), 0])

    def _pop(self) -> None:
        name, start, child = self._stack.pop()
        duration = time.perf_counter_ns() - start
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child
        self.durations.setdefault(name, []).append(duration / 1e6)
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, owner: object, attr: str, name: Union[str, Callable[[], str]]) -> None:
        """Replace ``owner.attr`` with a version that records a span.

        ``name`` may be a callable, evaluated at call time, for callables
        whose layer depends on the caller (a mapper's setup and run belong to
        the analytic core or to the routers).
        """

        inner = getattr(owner, attr)
        tracer = self

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return inner(*args, **kwargs)
            tracer._push(name() if callable(name) else name)
            try:
                return inner(*args, **kwargs)
            finally:
                tracer._pop()

        setattr(owner, attr, traced)
