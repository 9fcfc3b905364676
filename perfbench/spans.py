"""In-memory span tracer and the statistics the benchmark reports.

The tracer wraps package functions at the module attribute where their
caller looks them up, so no source file changes.  A span is a list
[name, start, end, parent] with perf_counter times and the index of the
enclosing span (-1 at top level); spans are appended in start order and
kept in memory until the run writes them out.  Runs are single-threaded,
so one stack gives every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import math
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def recording(self, on: bool = True):
        """Record spans from hooked calls inside the block when `on`."""
        self.active = on
        try:
            yield
        finally:
            self.active = False

    def _open(self, name: str) -> list:
        span = [name, perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def hook(self, target: str, name, after=None, wrap_args=None) -> None:
        """Replace the function at dotted `target` by a traced wrapper.

        name: span name, or a callable of the call's args giving it.
        after(tracer, args, kwargs, result): runs outside the span on success.
        wrap_args(tracer, args, kwargs) -> (args, kwargs): rewrites the call.
        A target that no longer exists is listed in `absent`, not an error.
        """
        module_name, attr = target.rsplit(".", 1)
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.append(target)
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            span = tracer._open(name(args) if callable(name) else name)
            try:
                if wrap_args is not None:
                    args, kwargs = wrap_args(tracer, args, kwargs)
                result = original(*args, **kwargs)
            except Exception:
                tracer.counts[span[0] + ".raised"] += 1
                raise
            finally:
                tracer._close(span)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        inside = [(max(s, start), min(e, end)) for s, e in children.get(i, ()) if e > start and s < end]
        out.append((end - start) - covered_length(inside))
    return out


def quantile(values, q: float) -> float:
    """The q-quantile (0 <= q <= 1), interpolating linearly between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no values")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    if lo == pos:
        return xs[lo]
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def median(values) -> float:
    return quantile(values, 0.5)


def tail_percentile(values, ladder=(99.9, 99.0, 90.0, 50.0)):
    """The highest percentile in `ladder` with at least ten samples above it.

    A sample is beyond a percentile when its rank lies above the percentile's
    interpolation position.  Returns (percentile, value), or None when even
    the median has fewer than ten samples beyond it (fewer than 20 samples).
    """
    n = len(values)
    for pct in ladder:
        beyond = n - 1 - math.floor(pct / 100.0 * (n - 1))
        if beyond >= 10:
            return pct, quantile(values, pct / 100.0)
    return None
