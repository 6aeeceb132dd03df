"""Spans and counters recorded from outside scrubsim.

The benchmark replaces layer functions in the namespaces of the scrubsim
modules that call them (``scrubsim.simulate``, ``scrubsim.adaptation``,
``scrubsim.oracle``) and restores them afterwards. Spans are kept in memory;
the caller writes them out when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict

# Span name for the tracer's own work (counting results); its time is
# subtracted from the enclosing span and attributed to no layer.
BOOKKEEPING = "bench.bookkeeping"


class Patches:
    """Module attributes replaced for one run; restored by ``restore``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, module, attr: str, make) -> None:
        """Set ``module.attr`` to ``make(original)``."""
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


class Tracer:
    """Nested spans of one single-threaded run.

    A span is ``[name, start, end, parent index, op id]``. Root spans opened
    with ``start_op`` delimit ops; every span opened inside one carries its
    op id.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = -1

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self._op])

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def start_op(self, name: str) -> None:
        """Close the open op span, if any, and open the next one."""
        self.end_op()
        self._op += 1
        self.open(name)

    def end_op(self) -> None:
        if self._stack:
            if len(self._stack) != 1:
                raise RuntimeError(f"op boundary inside {len(self._stack) - 1} open span(s)")
            self.close()

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def wrapped(self, original, name: str, on_result=None, on_error=None,
                before=None, top_level_only: bool = False):
        """``original`` inside a span called ``name``.

        ``before()`` runs first, outside the span. ``on_result(counters,
        args, kwargs, result)`` and ``on_error(counters, exc)`` run in a
        bookkeeping span. With ``top_level_only`` the call is recorded only
        when made directly inside an op span, not from deeper layers.
        """
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before()
            if top_level_only and len(tracer._stack) != 1:
                return original(*args, **kwargs)
            tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer.close()
                if on_error is not None:
                    with tracer.span(BOOKKEEPING):
                        on_error(tracer.counters, exc)
                raise
            tracer.close()
            if on_result is not None:
                with tracer.span(BOOKKEEPING):
                    on_result(tracer.counters, args, kwargs, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: each span's duration minus the part its
        child spans cover, summed over the run."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _parent, _op), child in zip(self.spans, covered):
            out[name] += (end - start) - child
        return out


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        self._tracer.open(self._name)

    def __exit__(self, *exc):
        self._tracer.close()
