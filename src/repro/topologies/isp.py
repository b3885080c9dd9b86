"""Two-level synthetic ISP topologies.

The lie-count scaling ablation (experiment A2) needs networks with the
structure the paper targets: a meshed core carrying transit traffic and
aggregation points of presence (PoPs) where customer prefixes attach.  The
generator below builds such a network deterministically from a seed:

* ``core_size`` core routers connected as a ring plus random chords
  (mimicking a national backbone);
* ``pops`` PoPs, each made of two aggregation routers dual-homed to two
  distinct core routers (the classic redundancy pattern);
* each PoP announces ``prefixes_per_pop`` customer /24 prefixes from one of
  its aggregation routers.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.igp.topology import DEFAULT_CAPACITY, Topology
from repro.util.errors import ValidationError
from repro.util.prefixes import Prefix

__all__ = ["synthetic_isp"]


def synthetic_isp(
    core_size: int = 8,
    pops: int = 4,
    prefixes_per_pop: int = 2,
    seed: int = 0,
    core_capacity: float = DEFAULT_CAPACITY * 4,
    pop_capacity: float = DEFAULT_CAPACITY,
) -> Topology:
    """Build a two-level synthetic ISP topology (see module docstring)."""
    if core_size < 3:
        raise ValidationError(f"core_size must be >= 3, got {core_size}")
    if pops < 1:
        raise ValidationError(f"pops must be >= 1, got {pops}")
    if prefixes_per_pop < 0:
        raise ValidationError(f"prefixes_per_pop must be >= 0, got {prefixes_per_pop}")
    if pops * prefixes_per_pop > 65_000:
        raise ValidationError("too many customer prefixes requested")

    rng = random.Random(seed)
    topology = Topology(name=f"isp-c{core_size}-p{pops}-s{seed}")

    core = [f"Core{i}" for i in range(core_size)]
    topology.add_routers(core)
    # Core ring.
    for index in range(core_size):
        topology.add_link(
            core[index], core[(index + 1) % core_size], weight=2, capacity=core_capacity
        )
    # Random chords: roughly one extra link per two core routers.
    chords_added = 0
    attempts = 0
    while chords_added < core_size // 2 and attempts < core_size * core_size:
        attempts += 1
        first, second = rng.sample(core, 2)
        if topology.has_link(first, second):
            continue
        topology.add_link(first, second, weight=rng.randint(2, 4), capacity=core_capacity)
        chords_added += 1

    prefix_counter = 0
    for pop_index in range(pops):
        agg_primary = f"Pop{pop_index}A"
        agg_backup = f"Pop{pop_index}B"
        topology.add_routers([agg_primary, agg_backup])
        topology.add_link(agg_primary, agg_backup, weight=1, capacity=pop_capacity)
        attachments = rng.sample(core, 2)
        topology.add_link(agg_primary, attachments[0], weight=1, capacity=pop_capacity)
        topology.add_link(agg_backup, attachments[1], weight=1, capacity=pop_capacity)
        for _ in range(prefixes_per_pop):
            prefix = Prefix.parse(
                f"100.{prefix_counter // 256}.{prefix_counter % 256}.0/24"
            )
            topology.attach_prefix(agg_primary, prefix, cost=0)
            prefix_counter += 1

    topology.validate()
    return topology
