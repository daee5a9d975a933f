"""In-memory span tracer for the pglacier benchmark.

Spans are recorded from the benchmark's own files: ``Tracer.wrap``
replaces a library function at the name its caller looks up (a module
global such as ``pglacier.inversion.make_state``, a class attribute such
as ``Spaces.eliminate``, or ``scipy.sparse.linalg.splu``) and puts the
original back when the traced region ends.  Each span stores its name,
start, end and parent; spans stay in memory until ``write`` dumps them.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    """Span recorder plus named counters.

    Wrappers installed by ``wrap`` record only while ``enabled`` is
    true and are removed by ``unwrap_all``; code between traced regions
    runs the unwrapped library.
    """

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = defaultdict(int)
        self.enabled = False
        self._stack = []
        self._patches = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        if not self.enabled:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def count(self, name, amount=1):
        if self.enabled:
            self.counters[name] += amount

    def wrap(self, owner, attr, name, on_return=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``on_return(result)`` runs after a successful call, for counters
        read off the result.
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if on_return is not None:
                on_return(result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layers(self):
        """Per span name: count, total seconds and self seconds.

        Self time is the span's duration minus the time its direct
        children cover.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for k, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[k]
        return out

    def write(self, path):
        """Dump the spans as JSON lines, times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for k, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": name,
                                     "start": start - origin,
                                     "end": end - origin,
                                     "parent": parent}) + "\n")


def timed(owner, attr, sink):
    """Append ``(start, end)`` to ``sink`` for every call of
    ``owner.attr``.  Returns a function that restores the original."""
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append((start, time.perf_counter()))

    setattr(owner, attr, wrapper)
    return lambda: setattr(owner, attr, original)
