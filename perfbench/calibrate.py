"""A fixed reference computation, timed between jobs, to rescale job times.

On a host whose cores are shared with other tenants, the same job's time
drifts by up to 2x over minutes. A fixed pure-Python kernel slows down
with it. Its time divided by its nominal time is the host's slowness at
that moment. The worker divides each job's time, and run.py each set-up
time, by the slowness sampled just before and just after it, which cancels
much of the drift (see README.md). The kernel is small, so it leaves peak
RSS alone. It is frozen: changing it or its nominal times changes every
rescaled figure.
"""

from __future__ import annotations

import heapq
import math
import random
import time

# lower-quartile times of each kernel on a 2-vCPU x86-64 host shared with
# other tenants (Python 3.11.7)
NOMINAL_S = {"arith": 0.029, "churn": 0.046}
# share of a run spent sampling slowness, the time of one sample, and the
# number of samples before the first job
SHARE, SAMPLE_S, FIRST_SAMPLES = 0.15, 0.08, 5


class _Item:
    __slots__ = ("key", "node", "hits")

    def __init__(self, key, node):
        self.key, self.node, self.hits = key, node, 0


def _arith():
    total = 0
    for j in range(400_000):
        total += j * j
    return total


def _churn():
    """Heap, dict, set and small-object traffic like an event loop's."""
    rng = random.Random(7)
    nodes = 400
    peers = {v: frozenset(rng.sample(range(nodes), 12)) for v in range(nodes)}
    heap = [(rng.random(), i, _Item(rng.random(), i % nodes))
            for i in range(6000)]
    heapq.heapify(heap)
    queues = {v: [] for v in range(nodes)}
    busy = []
    while heap:
        key, i, item = heapq.heappop(heap)
        near = set()
        for v in busy[-6:]:
            near.update(peers[v])
        item.hits += item.node in near
        busy.append(item.node)
        heapq.heappush(queues[item.node], (key, i))
        if len(queues[item.node]) > 3:
            heapq.heappop(queues[item.node])
    return len(busy)


KERNELS = {"arith": _arith, "churn": _churn}


def samples_after(job_s: float) -> int:
    """How many slowness samples to take after a job of job_s seconds."""
    return max(1, round(SHARE * job_s / SAMPLE_S))


def slowness() -> float:
    """Geometric mean over the kernels of measured over nominal time."""
    logs = []
    for name, kernel in KERNELS.items():
        t0 = time.perf_counter()
        kernel()
        logs.append(math.log((time.perf_counter() - t0) / NOMINAL_S[name]))
    return math.exp(sum(logs) / len(logs))
