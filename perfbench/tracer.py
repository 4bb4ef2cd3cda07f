"""Spans and counters around sostar's public functions, installed from the
benchmark by patching names where callers look them up.

A span records (name, parent, start, end) around one call into a layer.  A
span's self time is its duration minus the time its direct child spans
cover.  Hot arithmetic methods (``ExactScalar.__mul__``,
``Quaternion.__mul__``) get counters instead of spans: they run millions of
times per pass and a span each would swamp the measurement.

Work done by hooks (argument sizes, content keys for ``unique_frac``,
coefficient bit lengths) is timed and charged to no span, so it does not
inflate any layer's self time; it shows up in the tracing overhead.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    """In-memory spans and counters.  The wrap_* and count_method calls
    patch sostar; `uninstall` restores every patched name."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, parent index or -1, start, end)
        self._stack: list = []  # [span index, time covered by child spans]
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.maxima: dict = defaultdict(int)
        self.keys: dict = defaultdict(set)
        self.hook_s = 0.0
        self._patches: list = []

    # -- recording -----------------------------------------------------------

    def _hook(self, fn, *args) -> None:
        t0 = perf_counter()
        fn(self, *args)
        dt = perf_counter() - t0
        self.hook_s += dt
        if self._stack:
            self._stack[-1][1] += dt

    def span_wrapper(self, fn, name, before=None, after=None):
        """Wrap `fn` so every call records a span called `name`.

        `name` may be a callable of the positional arguments.  `before(tracer,
        args)` and `after(tracer, result)` run outside the span.
        """
        tracer = self
        spans, stack = self.spans, self._stack

        def wrapped(*args, **kwargs):
            label = name(args) if callable(name) else name
            if before is not None:
                tracer._hook(before, args)
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                spans[index] = (label, parent, start, end)
                tracer.calls[label] += 1
                tracer.self_s[label] += duration - frame[1]
                tracer.total_s[label] += duration
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                tracer._hook(after, result)
            return result

        return wrapped

    # -- patching --------------------------------------------------------------

    def _replace(self, owners, original, replacement) -> None:
        """Rebind every attribute of `owners` that is `original`."""
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, replacement)
                    self._patches.append((owner, attr, original))

    def wrap_function(self, module, attr, name, before=None, after=None) -> None:
        """Span every call of `module.attr`, in every sostar module that
        imported the name (``from .liealg import bracket`` binds its own)."""
        original = getattr(module, attr)
        owners = [m for key, m in sorted(sys.modules.items())
                  if m is not None and (key == "sostar" or key.startswith("sostar."))]
        self._replace(owners, original,
                      self.span_wrapper(original, name, before, after))

    def wrap_method(self, cls, attr, name, before=None, after=None) -> None:
        original = vars(cls)[attr]
        self._replace([cls], original,
                      self.span_wrapper(original, name, before, after))

    def count_method(self, cls, attr, counter) -> None:
        """Call `counter(tracer, self, other)` before every call of the method
        (and of any alias such as ``__rmul__ = __mul__``)."""
        original = vars(cls)[attr]
        tracer = self

        def counted(a, b):
            counter(tracer, a, b)
            return original(a, b)

        self._replace([cls], original, counted)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def self_sum(self) -> float:
        return sum(self.self_s.values())

    def dump(self, path) -> None:
        """Write the spans as JSON: one [name, parent, start, end] row each."""
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[n, p, round(s - t0, 9), round(e - t0, 9)]
                for (n, p, s, e) in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "parent", "start_s", "end_s"],
                       "spans": rows}, fh)
