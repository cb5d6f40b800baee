"""Spans around the benchmark's calls into the program.

A span records the name of the public call it wraps, its start and end,
the span that was open when it started, the pass it belongs to, and the
counts the harness read off the call's result.  Spans stay in memory and
are written out once, when the run ends.  A layer's self time is its
span's duration minus the part covered by its child spans.

``NullTracer`` has the same interface and records nothing; untraced runs
use it, so the code of a pass is the same with tracing on and off.
"""

from __future__ import annotations

import time
from collections import defaultdict

_clock = time.perf_counter


class _NullSpan:
    __slots__ = ("counts",)

    def __init__(self):
        self.counts = {}

    def __enter__(self):
        return self.counts

    def __exit__(self, *exc):
        return False


class NullTracer:
    on = False

    def __init__(self):
        self._span = _NullSpan()

    def begin_pass(self, pass_id: str) -> None:
        pass

    def span(self, name: str) -> _NullSpan:
        return self._span


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        # name, start, end, parent index, pass id, counts
        self.record = [name, 0.0, 0.0, -1, tracer.pass_id, {}]

    def __enter__(self) -> dict:
        tr = self.tracer
        rec = self.record
        rec[3] = tr._stack[-1] if tr._stack else -1
        tr._stack.append(len(tr.spans))
        tr.spans.append(rec)
        rec[1] = _clock()
        return rec[5]

    def __exit__(self, *exc):
        self.record[2] = _clock()
        self.tracer._stack.pop()
        return False


class Tracer:
    on = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_id = ""

    def begin_pass(self, pass_id: str) -> None:
        self.pass_id = pass_id

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def by_pass(self) -> dict[str, dict]:
        """Per pass id: wall time of its root spans, and per span name the
        self time, the number of calls and the summed counts."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]
        out: dict[str, dict] = {}
        for i, (name, start, end, parent, pass_id, counts) in enumerate(self.spans):
            agg = out.setdefault(
                pass_id,
                {"wall": 0.0, "self": defaultdict(float), "calls": defaultdict(int),
                 "counts": defaultdict(float)},
            )
            if parent < 0:
                agg["wall"] += end - start
            agg["self"][name] += (end - start) - child_time[i]
            agg["calls"][name] += 1
            for key, value in counts.items():
                agg["counts"][f"{name}.{key}"] += value
        return out

    def to_json(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "pass": pid, "counts": c}
            for n, s, e, p, pid, c in self.spans
        ]
