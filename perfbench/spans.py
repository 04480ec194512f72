"""Spans around the calls the benchmark makes into the package's layers.

A span is ``[name, bucket, start, end, parent, op]``: ``name`` is
``module.function``, ``bucket`` an optional input-size class, ``parent``
the index of the enclosing span (-1 for none) and ``op`` the operation the
span belongs to.  Spans stay in memory until the run writes them out.
"""

from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans = []
        self.stack = []
        self.op = 0
        self.counters = defaultdict(int)

    def call(self, name, fn, *args, bucket=None, **kwargs):
        """``fn(*args, **kwargs)``, inside a span when tracing is on."""
        if not self.enabled:
            return fn(*args, **kwargs)
        record = [name, bucket, perf_counter(), None, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = perf_counter()
            self.stack.pop()

    def count(self, name, stat, value=1):
        self.counters[(name, stat)] += value

    def summary(self):
        """Per span name: calls, busy seconds, busy seconds per bucket; per module: self seconds.

        A span's self time is its duration minus the time its direct
        children cover (spans never overlap: one thread, nested calls).
        """
        calls = defaultdict(int)
        busy = defaultdict(float)
        child_time = defaultdict(float)
        for name, bucket, start, end, parent, _ in self.spans:
            duration = end - start
            calls[name] += 1
            busy[name] += duration
            if bucket is not None:
                busy[(name, bucket)] += duration
            if parent >= 0:
                child_time[parent] += duration
        self_time = defaultdict(float)
        for index, (name, _, start, end, _, _) in enumerate(self.spans):
            self_time[name.split(".")[0]] += end - start - child_time[index]
        return calls, busy, self_time
