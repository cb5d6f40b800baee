"""The host's speed, gauged beside each timed call.

The benchmark's host is a share of a machine whose other tenants change
how fast a single-threaded Python process runs: by a third from one
minute to the next, and by as much from one set of runs to the next.
Within a 20-second run that slow drift does not average out, so the
median of a run moves with the host, not with the program.

``timed`` therefore runs a fixed piece of pure-Python work, the gauge,
right before and right after the call it times, and scales the call's
wall time by ``REFERENCE_S`` over the gauge's mean time.  The result is
the call's time on a host as fast as the one the bounds were set on.
The gauge does not touch the program, so a change to the program moves
the scaled time exactly as it moves the wall time; only the host's
share of the drift is taken out.  The raw wall time is kept beside the
scaled one and printed with the result.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Any, Callable

clock = time.perf_counter

# The gauge's median time, in seconds, on the host the bounds were set on
# (2 vCPUs of an Intel Xeon at 2.1 GHz, Python 3.11.7).
REFERENCE_S = 0.030
GAUGE_NODES = 12000

_OPS = ("cons", "node", "swap")


class _Node:
    __slots__ = ("op", "kids", "key")

    def __init__(self, op: str, kids: tuple):
        self.op = op
        self.kids = kids
        self.key = (op, kids)


def gauge(n: int = GAUGE_NODES) -> float:
    """Seconds taken by fixed work shaped like the program's own:
    hash-consing small nodes into a table, union-find with path halving,
    grouping members by root and a sort."""
    t0 = clock()
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    table: dict[tuple, int] = {}
    nodes = [_Node("nil", ())]
    for i in range(1, n):
        node = _Node(_OPS[i % 3], (find(i // 2), find(i // 3)))
        nodes.append(node)
        first = table.setdefault(node.key, i)
        if first != i:
            parent[i] = find(first)
        elif i % 4 == 0:
            parent[find(i)] = find(i // 5)
    members: dict[int, list[str]] = {}
    for i, node in enumerate(nodes):
        members.setdefault(find(i), []).append(node.op)
    sorted(members.items(), key=lambda kv: (len(kv[1]), kv[0]))
    return clock() - t0


@dataclass
class Timing:
    raw_s: float  # wall time of the call
    scale: float  # REFERENCE_S over the gauge's mean time around the call

    @property
    def seconds(self) -> float:
        """The call's time on a host as fast as the reference one."""
        return self.raw_s * self.scale


def timed(call: Callable[[], Any]) -> tuple[Any, Timing]:
    """Run ``call`` between two gauges, after collecting garbage, so that
    each timed call starts from the same collector state."""
    gc.collect()
    before = gauge()
    t0 = clock()
    out = call()
    raw = clock() - t0
    after = gauge()
    return out, Timing(raw, 2 * REFERENCE_S / (before + after))
