"""A fixed reference task timed next to the program, to factor out host speed.

On a shared host the speed of a vCPU drifts by tens of percent over minutes
as neighbours load the caches and memory.  The program's timings drift with
it.  The runner therefore times this task in short slices before and after
every episode, and now and then between the episode's operations, and scales
the episode's timings by ``REFERENCE_MS`` divided by the rounds' trimmed mean:
the reported times are those of a host on which one reference round takes
``REFERENCE_MS``.  A mean, not a median: the host switches between fast and
slow states within seconds, and an episode's time integrates over them.

The task is benchmark-owned and never touches the program, so a change to the
program cannot move it.  One round is a bounded Dijkstra over a dict-of-dicts
graph with a binary heap, string node names and tuple allocation (the kind of
work the program does), from the next source in a fixed rotation, followed by
a fixed integer loop.  The round makes its Dijkstra visit twice and times only
the second visit and the loop: the first visit pulls that part of the graph
into the caches, so the time does not depend on what the program left there.
The garbage collector is off during a round, so that the round never pays for
collecting the program's heap.  A program that used less memory would
otherwise speed up its own reference rounds and hide part of its gain.

The mix was chosen by measurement.  On eight runs each of ``churn`` and
``crowd`` (2-vCPU KVM guest on a shared Xeon host) it cut the run-to-run
spread of ``run_s`` (interquartile range over median) from 0.14 and 0.27
unscaled to 0.04 and 0.04; the Dijkstra visit alone left 0.07 and 0.07, the
loop alone 0.10 and 0.12.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
from time import perf_counter
from typing import Dict, List

#: Nodes and random edges per node of the reference graph.
NODES = 20_000
DEGREE = 4
#: Nodes one reference round settles, and iterations of its integer loop.
SETTLE = 500
SPIN = 20_000
#: Milliseconds of one round on the host the reported times are scaled to.
REFERENCE_MS = 4.0


class Reference:
    def __init__(self, seed: int = 7) -> None:
        rng = random.Random(seed)
        names = [f"v{index}" for index in range(NODES)]
        graph: Dict[str, Dict[str, int]] = {name: {} for name in names}
        for name in names:
            for _ in range(DEGREE):
                other = names[rng.randrange(NODES)]
                if other != name:
                    graph[name][other] = graph[other][name] = rng.randint(1, 20)
        self.graph = graph
        self.sources = [names[rng.randrange(NODES)] for _ in range(97)]
        self.rounds = 0

    def visit(self, source: str) -> int:
        """One bounded Dijkstra; returns the number of nodes settled."""
        graph = self.graph
        distance = {source: 0}
        settled = set()
        heap = [(0, source)]
        while heap and len(settled) < SETTLE:
            cost, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            for neighbour, weight in graph[node].items():
                candidate = cost + weight
                if candidate < distance.get(neighbour, candidate + 1):
                    distance[neighbour] = candidate
                    heapq.heappush(heap, (candidate, neighbour))
        return len(settled)

    def slice(self, rounds: int) -> List[float]:
        """Milliseconds of the timed part of each of ``rounds`` rounds."""
        times = []
        # A collection here would traverse the program's heap and charge its
        # size to the host.
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(rounds):
                source = self.sources[self.rounds % len(self.sources)]
                self.rounds += 1
                self.visit(source)
                start = perf_counter()
                self.visit(source)
                spin()
                times.append((perf_counter() - start) * 1e3)
        finally:
            if collecting:
                gc.enable()
        return times


def spin() -> int:
    total = 0
    for value in range(SPIN):
        total += value * value % 7
    return total


def scale(rounds_ms: List[float]) -> float:
    """Factor that turns this host's seconds into reference-host seconds.

    The mean leaves out the slowest and fastest tenth of the rounds.
    """
    ordered = sorted(rounds_ms)
    trim = len(ordered) // 10
    return REFERENCE_MS / statistics.fmean(ordered[trim:len(ordered) - trim])
