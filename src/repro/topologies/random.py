"""Seeded random topology generators.

These are used by the optimality-gap and scaling benchmarks, which need a
family of networks larger and more varied than the 7-router demo.  All
generators take an explicit ``seed`` and are fully deterministic for a given
seed, so every benchmark run is reproducible.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.igp.topology import DEFAULT_CAPACITY, Topology
from repro.util.errors import ValidationError
from repro.util.prefixes import Prefix

__all__ = ["random_topology", "waxman_topology", "attach_destination_prefixes"]


def attach_destination_prefixes(
    topology: Topology,
    routers: Optional[Sequence[str]] = None,
    base: str = "172.16",
) -> Dict[str, Prefix]:
    """Attach one /24 destination prefix to each router in ``routers``.

    Returns the mapping from router name to the prefix attached behind it.
    When ``routers`` is ``None`` every router receives a prefix.
    """
    if routers is None:
        routers = topology.routers
    octets = base.split(".")
    if len(octets) != 2 or not all(part.isdigit() and int(part) <= 255 for part in octets):
        raise ValidationError(f"base must look like 'a.b' (two octets), got {base!r}")
    first, second = (int(part) for part in octets)
    mapping: Dict[str, Prefix] = {}
    for index, router in enumerate(routers):
        if second + index // 256 > 255:
            raise ValidationError("too many routers to derive /24 prefixes from this base")
        prefix = Prefix.parse(f"{first}.{second + index // 256}.{index % 256}.0/24")
        # Guard against clashes when the base is reused across calls.
        if prefix in topology.prefixes:
            raise ValidationError(f"prefix {prefix} already attached; use a different base")
        topology.attach_prefix(router, prefix, cost=0)
        mapping[router] = prefix
    return mapping


def random_topology(
    num_routers: int,
    edge_probability: float = 0.3,
    seed: int = 0,
    weight_range: Tuple[int, int] = (1, 5),
    capacity: float = DEFAULT_CAPACITY,
    with_prefixes: bool = True,
) -> Topology:
    """Erdős–Rényi-style random topology, augmented to be connected.

    A random spanning tree is laid down first so that the result is always
    connected, then each remaining router pair is linked with probability
    ``edge_probability``.  Weights are integers drawn uniformly from
    ``weight_range``.
    """
    if num_routers < 2:
        raise ValidationError(f"need at least 2 routers, got {num_routers}")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValidationError(f"edge_probability must be in [0, 1], got {edge_probability}")
    rng = random.Random(seed)
    topology = Topology(name=f"random-{num_routers}-p{edge_probability}-s{seed}")
    names = [f"N{i}" for i in range(num_routers)]
    topology.add_routers(names)

    # Random spanning tree (random permutation, attach each node to a random
    # earlier node) guarantees connectivity.
    order = names[:]
    rng.shuffle(order)
    for index in range(1, len(order)):
        parent = order[rng.randrange(index)]
        weight = rng.randint(*weight_range)
        topology.add_link(order[index], parent, weight=weight, capacity=capacity)

    for i in range(num_routers):
        for j in range(i + 1, num_routers):
            if topology.has_link(names[i], names[j]):
                continue
            if rng.random() < edge_probability:
                weight = rng.randint(*weight_range)
                topology.add_link(names[i], names[j], weight=weight, capacity=capacity)

    if with_prefixes:
        attach_destination_prefixes(topology)
    topology.validate()
    return topology


def waxman_topology(
    num_routers: int,
    alpha: float = 0.6,
    beta: float = 0.4,
    seed: int = 0,
    capacity: float = DEFAULT_CAPACITY,
    with_prefixes: bool = True,
) -> Topology:
    """Waxman random graph: link probability decays with Euclidean distance.

    Routers are placed uniformly at random in the unit square; the probability
    of a link between routers at distance ``d`` is
    ``alpha * exp(-d / (beta * L))`` with ``L`` the maximal distance.  Link
    weights are the rounded distances (scaled to 1..10), which makes shortest
    paths follow geography, like real IGP-TE weight assignments tend to.
    A spanning tree over nearest neighbors keeps the graph connected.
    """
    if num_routers < 2:
        raise ValidationError(f"need at least 2 routers, got {num_routers}")
    if alpha <= 0 or beta <= 0:
        raise ValidationError("alpha and beta must be strictly positive")
    rng = random.Random(seed)
    topology = Topology(name=f"waxman-{num_routers}-s{seed}")
    names = [f"W{i}" for i in range(num_routers)]
    topology.add_routers(names)
    positions = {name: (rng.random(), rng.random()) for name in names}

    def distance(a: str, b: str) -> float:
        ax, ay = positions[a]
        bx, by = positions[b]
        return math.hypot(ax - bx, ay - by)

    def weight_for(a: str, b: str) -> int:
        return max(1, round(distance(a, b) * 10))

    max_distance = math.sqrt(2.0)
    # Connectivity first: attach each router to its nearest already-placed one.
    for index in range(1, len(names)):
        candidates = names[:index]
        nearest = min(candidates, key=lambda other: (distance(names[index], other), other))
        topology.add_link(
            names[index], nearest, weight=weight_for(names[index], nearest), capacity=capacity
        )

    for i in range(num_routers):
        for j in range(i + 1, num_routers):
            if topology.has_link(names[i], names[j]):
                continue
            probability = alpha * math.exp(-distance(names[i], names[j]) / (beta * max_distance))
            if rng.random() < probability:
                topology.add_link(
                    names[i], names[j], weight=weight_for(names[i], names[j]), capacity=capacity
                )

    if with_prefixes:
        attach_destination_prefixes(topology)
    topology.validate()
    return topology
