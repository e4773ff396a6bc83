"""Spans recorded from outside the program, and self-time accounting.

A Tracer replaces named functions on their modules with wrappers that
open a span per call, and puts the originals back on `restore()` (or on
leaving its `with` block). Only module attributes are patched, so the
package under test carries no tracing switch of its own. Calls resolved
through a module global (`simcore.run_simulation` calling
`admissible_transmissions`) or a module attribute (`sc.run_replications`)
both see the wrapper.

Spans stay in memory as small lists until the run ends:
[name, start, end, parent index or -1, job id].
"""

from __future__ import annotations

import functools
import json
import resource
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, JOB = range(5)


def max_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = 0
        self._stack = []
        self._patches = []

    def patch(self, module, attr, name, observe=None, rss=False):
        """Wrap module.attr so each call records span `name`.

        observe(tracer, args, kwargs, result) runs after the call returns,
        inside the caller's span, to add counts. With rss=True the growth of
        peak RSS across the call is kept as the maximum in counts[name +
        '.rss_mb'].
        """
        original = getattr(module, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            rss0 = max_rss_mb() if rss else 0.0
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if rss:
                key = name + ".rss_mb"
                self.counts[key] = max(self.counts[key], max_rss_mb() - rss0)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self):
        """Put every patched function back, last patch first."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, such as a job root."""
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def self_times(spans) -> list:
    """Per span: its duration minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged, so overlapping or
    out-of-order children are not counted twice.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span[START]
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, span[END])
            if b > a:
                covered += b - a
                reach = b
        out.append(span[END] - span[START] - covered)
    return out


def self_time_by_name(spans) -> dict:
    totals = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[NAME]] += own
    return dict(totals)
