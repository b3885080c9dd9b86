"""The three benchmark workloads: ``crowd``, ``churn`` and ``plan``.

Each workload runs in *episodes*: ``setup(seed, episode)`` builds every input
from the seed before the clock starts (topology, initial convergence and
enforcement, requirement waves, flap links, arrival schedules), then
``run(inputs, probe)`` drives the timed section through the program's public
API and returns an :class:`Episode`.  Between operations, off the clock, it
calls ``probe.tick()``, which now and then times a reference round (see
``reference.py``).  ``check(seed, episodes)`` verifies the
run-level outputs and returns the problems it found.

Latencies are wall-clock seconds scaled to the reference host by
``probe.scaled`` (the runner scales ``run_s`` and set-up times); an operation
that raised or failed its check enters its latency distribution as ``inf``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Tuple

from repro.core.controller import FibbingController
from repro.core.lies import lie_set_digest
from repro.core.requirements import DestinationRequirement
from repro.experiments.fig2 import run_demo_timeseries
from repro.experiments.flashcrowd_classes import build_scaled_demo_scenario
from repro.experiments.scaling import build_ring_topology, churn_requirement
from repro.igp.network import IgpNetwork
from repro.igp.topology import Topology
from repro.monitoring.collector import LoadCollector
from repro.topologies.demo import DemoScenario
from repro.util.errors import ReproError, RoutingError, TopologyError
from repro.video.server import StreamingService

#: Sessions of the scaled Fig. 2 flash crowd (rounded up to 62 x 4033).
CROWD_SESSIONS = 250_000
#: Arrival batches each of the demo's three surges is spread over, and the
#: seeded relative jitter of their sizes.
CROWD_BATCHES = 100
CROWD_JITTER = 0.25
#: Times the crowd's cheap set-up is repeated per episode (median reported).
CROWD_SETUP_ROUNDS = 9
#: Simulated seconds over which one surge's batches arrive.
CROWD_RAMP_S = 2.0

#: Ring size and requirement count of the live-network churn.
CHURN_RING = 32
CHURN_REQUIREMENTS = 8
#: Operations per churn episode (half reaction waves, half link flaps, in
#: seeded order), requirements changed per reaction wave, and the share of
#: successful operations whose FIBs are checked.
CHURN_OPS = 20
CHURN_CHANGES = 2
CHURN_CHECK_SHARE = 0.25

#: Ring size, requirement count, requirements changed per wave and waves per
#: episode of the network-less controller churn.
PLAN_RING = 64
PLAN_REQUIREMENTS = 128
PLAN_CHANGES = 8
PLAN_WAVES = 100

QUARTERS = 4


@dataclass
class Episode:
    """What one episode measured, plus the outputs its checks need."""

    #: Set-up times of the episode's set-up rounds (seconds).
    setup_s: List[float] = field(default_factory=list)
    run_s: float = 0.0
    #: Reaction-wave latencies (seconds), one list per quarter of the episode.
    waves: List[List[float]] = field(default_factory=lambda: [[] for _ in range(QUARTERS)])
    #: Link-flap latencies (seconds), churn only.
    flaps: List[float] = field(default_factory=list)
    #: Operations that raised or failed their check.
    failed: int = 0
    routing_errors: int = 0
    #: Fake-node LSAs injected plus withdrawn during the timed section.
    lsas: int = 0
    outputs: Dict[str, object] = field(default_factory=dict)
    #: Per-layer counts of a traced episode (filled in by the runner).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Per-quarter probe snapshots of a traced episode.
    quarters: List[Dict[str, float]] = field(default_factory=list)
    #: Per-layer self seconds of a traced episode (filled in by the runner).
    self_s: Dict[str, float] = field(default_factory=dict)
    #: The factor that scaled ``run_s`` (host seconds to reference seconds).
    scale: float = 1.0
    #: Reference rounds timed around the episode (milliseconds).
    reference_ms: List[float] = field(default_factory=list)

    @property
    def wave_latencies(self) -> List[float]:
        return [latency for quarter in self.waves for latency in quarter]

    @property
    def attempted(self) -> int:
        return len(self.wave_latencies) + len(self.flaps)


class Workload(NamedTuple):
    setup: Callable
    run: Callable
    check: Callable
    #: Wall seconds of one episode, reference rounds included, on a slow
    #: phase of the host the benchmark was written on: a run of ``s``
    #: seconds makes ``round(s / episode_s)`` episodes.
    episode_s: float = 1.0
    #: Set-up rounds per episode; the last round's inputs are run.
    setup_rounds: int = 1


def _episode_rng(seed: int, episode: int) -> random.Random:
    # Integer arithmetic only: inputs must not depend on PYTHONHASHSEED.
    return random.Random(seed * 1_000_003 + episode)


def _quarter(index: int, total: int) -> int:
    return QUARTERS * index // total


def _is_quarter_end(index: int, total: int) -> bool:
    return index + 1 == total or _quarter(index + 1, total) != _quarter(index, total)


def _shipped_lsas(controller: FibbingController) -> int:
    stats = controller.stats
    return stats.lies_injected + stats.lies_withdrawn


class _RequirementBook:
    """Memoised ``churn_requirement`` calls for one topology."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._memo: Dict[Tuple[int, int], DestinationRequirement] = {}

    def wave(self, generations: List[int]) -> List[DestinationRequirement]:
        requirements = []
        for index, generation in enumerate(generations):
            key = (index, generation)
            if key not in self._memo:
                self._memo[key] = churn_requirement(self.topology, index, generation)
            requirements.append(self._memo[key])
        return requirements


# ---------------------------------------------------------------------- #
# crowd: the scaled Fig. 2 flash crowd, closed loop
# ---------------------------------------------------------------------- #
@dataclass
class CrowdInput:
    seed: int
    scenario: DemoScenario
    #: Arrival batches of each of the demo's surges, in schedule order.
    surge_batches: List[int]


def crowd_setup(seed: int, episode: int) -> CrowdInput:
    """The scaled demo with each surge spread over seeded arrival batches.

    Every episode of a run replays the same input, so the checks can demand
    identical outputs across episodes.
    """
    scenario = build_scaled_demo_scenario(CROWD_SESSIONS)
    rng = random.Random(seed)
    schedule, surge_batches = [], []
    for start, server, count in scenario.flow_schedule:
        batches = min(CROWD_BATCHES, count)
        surge_batches.append(batches)
        # Near-equal batches with seeded jitter: the seed moves the arrival
        # pattern but not the spread of batch sizes the latency median sees.
        weights = [1.0 + CROWD_JITTER * (2.0 * rng.random() - 1.0) for _ in range(batches)]
        total = sum(weights)
        cuts, running = [], 0.0
        for weight in weights[:-1]:
            running += weight
            cuts.append(round(count * running / total))
        sizes = [high - low for low, high in zip([0, *cuts], [*cuts, count])]
        if min(sizes) < 1:
            raise ValueError(f"surge of {count} sessions cannot fill {batches} batches")
        schedule.extend(
            (start + CROWD_RAMP_S * index / batches, server, size)
            for index, size in enumerate(sizes)
        )
    return CrowdInput(
        seed=seed,
        scenario=replace(scenario, flow_schedule=tuple(schedule)),
        surge_batches=surge_batches,
    )


def crowd_run(inputs: CrowdInput, probe) -> Episode:
    """One closed-loop run; a wave is one surge, absorbed batch by batch.

    A surge's latency is the sum of its batches' ``start_sessions`` calls.
    The probe ticks after every arrival batch and every monitoring sample,
    and the time its ticks take is left out of ``run_s``.
    """
    episode = Episode()
    total = len(inputs.scenario.flow_schedule)
    latencies: List[float] = []
    start_sessions = StreamingService.start_sessions
    ingest = LoadCollector.ingest

    def timed_start_sessions(service, *args, **kwargs):
        start = perf_counter()
        try:
            return start_sessions(service, *args, **kwargs)
        finally:
            index = len(latencies)
            latencies.append(probe.scaled(perf_counter() - start))
            if _is_quarter_end(index, total):
                probe.quarter()
            probe.tick()

    def ticking_ingest(collector, *args, **kwargs):
        try:
            return ingest(collector, *args, **kwargs)
        finally:
            probe.tick()

    StreamingService.start_sessions = timed_start_sessions
    LoadCollector.ingest = ticking_ingest
    try:
        start = perf_counter()
        result = run_demo_timeseries(
            scenario=inputs.scenario, dataplane_aggregate=True, seed=inputs.seed
        )
        episode.run_s = perf_counter() - start - probe.ticked_s
    finally:
        StreamingService.start_sessions = start_sessions
        LoadCollector.ingest = ingest
    surges = len(inputs.surge_batches)
    first = 0
    for index, batches in enumerate(inputs.surge_batches):
        surge = math.fsum(latencies[first:first + batches])
        episode.waves[_quarter(index, surges)].append(surge)
        first += batches
    stats = result.controller_stats
    episode.lsas = stats["lies_injected"] + stats["lies_withdrawn"]
    episode.outputs = {
        "scheduled": sum(count for _, _, count in inputs.scenario.flow_schedule),
        "started": result.sessions_started,
        "qoe": result.qoe,
        "peak_util": result.peak_utilization,
        "lie_digests": result.lie_digests,
        "link_counters": result.link_counters,
    }
    return episode


def crowd_check(seed: int, episodes: List[Episode]) -> List[str]:
    problems = []
    first = episodes[0].outputs
    for number, episode in enumerate(episodes):
        out = episode.outputs
        qoe = out["qoe"]
        started = out["started"]
        if started != out["scheduled"]:
            problems.append(
                f"episode {number}: {started} sessions started, {out['scheduled']} scheduled"
            )
        if qoe.sessions != started or qoe.smooth_sessions + qoe.stalled_sessions != qoe.sessions:
            problems.append(f"episode {number}: QoE counts {qoe.sessions} sessions, not {started}")
        if out["peak_util"] > 1.0 + 1e-9:
            problems.append(f"episode {number}: a sampled link rate exceeds capacity")
        if any(out[key] != first[key] for key in ("lie_digests", "link_counters")):
            problems.append(f"episode {number}: lies or link byte counters differ from episode 0")
    return problems


# ---------------------------------------------------------------------- #
# churn: reaction waves and link flaps on a live IGP network
# ---------------------------------------------------------------------- #
@dataclass
class ChurnInput:
    network: IgpNetwork
    controller: FibbingController
    #: (kind, argument, checked): a requirement wave or a link to flap.
    ops: List[Tuple[str, object, bool]]


def churn_setup(seed: int, episode: int) -> ChurnInput:
    rng = _episode_rng(seed, episode)
    topology = build_ring_topology(CHURN_RING, CHURN_REQUIREMENTS)
    book = _RequirementBook(topology)
    links = sorted({tuple(sorted((link.source, link.target))) for link in topology.links})
    # Every episode starts from the first generation of each requirement; the
    # seed moves only the order of bumps, flaps and operations.  Seeded start
    # generations made the LSAs a wave ships swing from seed to seed.
    generations = [1] * CHURN_REQUIREMENTS
    initial = book.wave(generations)
    # Every link, lie anchors included, is flapped about equally often in a
    # run, and a flap is never filtered by whether it will fail.
    flaps = iter(_stratified(f"churn-flaps-{seed}", episode, links, CHURN_OPS // 2))
    bumps = iter(
        _stratified(
            f"churn-bumps-{seed}", episode, list(range(CHURN_REQUIREMENTS)),
            CHURN_OPS // 2 * CHURN_CHANGES,
        )
    )
    kinds = ["wave", "flap"] * (CHURN_OPS // 2)
    rng.shuffle(kinds)
    ops: List[Tuple[str, object, bool]] = []
    for kind in kinds:
        if kind == "wave":
            for _ in range(CHURN_CHANGES):
                generations[next(bumps)] += 1
            ops.append(("wave", book.wave(generations), rng.random() < CHURN_CHECK_SHARE))
        else:
            ops.append(("flap", next(flaps), rng.random() < CHURN_CHECK_SHARE))
    network = IgpNetwork(topology)
    network.start()
    network.converge()
    controller = FibbingController(topology, network=network, attachment="R0")
    controller.enforce(initial)
    network.converge()
    return ChurnInput(network=network, controller=controller, ops=ops)


def _stratified(name: str, episode: int, items: List, count: int) -> List:
    """The episode's ``count`` items: its slice of a run-long sequence of
    seeded permutations of ``items``.

    Every item then comes up about equally often in a run.  Drawing items
    independently would let the share of failing flaps or costly waves, and
    with it the run's cost, swing from seed to seed.
    """
    first = episode * count
    offset = first % len(items)
    permutation = first // len(items)
    sequence: List = []
    while len(sequence) < offset + count:
        order = list(items)
        # A string seed is hashed with SHA-512: independent of PYTHONHASHSEED.
        random.Random(f"{name}-{permutation}").shuffle(order)
        sequence.extend(order)
        permutation += 1
    return sequence[offset:offset + count]


def _fibs_match(network: IgpNetwork, controller: FibbingController) -> bool:
    expected = controller.static_fibs()
    return all(
        not network.fib_of(router).changed_prefixes(expected[router])
        for router in network.routers
    )


def churn_run(inputs: ChurnInput, probe) -> Episode:
    episode = Episode()
    network, controller = inputs.network, inputs.controller
    shipped = _shipped_lsas(controller)
    total = len(inputs.ops)
    for index, (kind, argument, checked) in enumerate(inputs.ops):
        error = None
        start = perf_counter()
        try:
            if kind == "wave":
                controller.enforce(argument)
                network.converge()
            else:
                network.fail_link(*argument)
                network.converge()
                network.restore_link(*argument)
                network.converge()
        except ReproError as raised:
            error = raised
        broken = False
        if error is not None:
            # Recovery stays on the clock: a failed flap costs about what a
            # completed one does, so a fix that lets it complete is no
            # run_s regression.
            episode.routing_errors += isinstance(error, RoutingError)
            broken = not _recover(network, kind, argument)
        elapsed = perf_counter() - start
        episode.run_s += elapsed
        ok = error is None
        if ok and checked:
            with probe.paused():
                ok = _fibs_match(network, controller)
        episode.failed += not ok
        latency = probe.scaled(elapsed) if ok else math.inf
        if kind == "wave":
            episode.waves[_quarter(index, total)].append(latency)
        else:
            episode.flaps.append(latency)
        if _is_quarter_end(index, total):
            probe.quarter()
        if broken:
            break
        probe.tick()
    episode.lsas = _shipped_lsas(controller) - shipped
    return episode


def _recover(network: IgpNetwork, kind: str, argument) -> bool:
    """Bring the network back after a failed operation; False if it cannot."""
    try:
        if kind == "flap":
            try:
                network.restore_link(*argument)
            except TopologyError:
                pass  # the failure happened before the link went down
        network.converge()
    except ReproError:
        return False
    return True


def churn_check(seed: int, episodes: List[Episode]) -> List[str]:
    # Churn's checks are per operation (sampled FIB comparisons in run).
    return []


# ---------------------------------------------------------------------- #
# plan: a network-less controller replaying a long requirement churn
# ---------------------------------------------------------------------- #
@dataclass
class PlanInput:
    controller: FibbingController
    waves: List[List[DestinationRequirement]]


def plan_setup(seed: int, episode: int, incremental: bool = True) -> PlanInput:
    rng = _episode_rng(seed, episode)
    topology = build_ring_topology(PLAN_RING, PLAN_REQUIREMENTS)
    book = _RequirementBook(topology)
    generations = [rng.randrange(1, 5) for _ in range(PLAN_REQUIREMENTS)]
    initial = book.wave(generations)
    waves = []
    for _ in range(PLAN_WAVES):
        for index in rng.sample(range(PLAN_REQUIREMENTS), PLAN_CHANGES):
            generations[index] += 1
        waves.append(book.wave(generations))
    controller = FibbingController(topology, incremental=incremental)
    controller.enforce(initial)
    return PlanInput(controller=controller, waves=waves)


def _replay(inputs: PlanInput, on_wave: Callable[[int, float, bool], None]) -> None:
    for index, requirements in enumerate(inputs.waves):
        start = perf_counter()
        try:
            inputs.controller.enforce(requirements)
            ok = True
        except ReproError:
            ok = False
        on_wave(index, perf_counter() - start, ok)


def plan_run(inputs: PlanInput, probe) -> Episode:
    episode = Episode()
    shipped = _shipped_lsas(inputs.controller)
    total = len(inputs.waves)

    def on_wave(index: int, elapsed: float, ok: bool) -> None:
        episode.run_s += elapsed
        episode.failed += not ok
        episode.waves[_quarter(index, total)].append(probe.scaled(elapsed) if ok else math.inf)
        if _is_quarter_end(index, total):
            probe.quarter()
        probe.tick()

    _replay(inputs, on_wave)
    episode.lsas = _shipped_lsas(inputs.controller) - shipped
    episode.outputs = {"digest": lie_set_digest(inputs.controller.active_lies())}
    return episode


def plan_check(seed: int, episodes: List[Episode]) -> List[str]:
    """Episode 0's final lies must equal a clear-and-replay controller's."""
    oracle = plan_setup(seed, 0, incremental=False)
    _replay(oracle, lambda index, elapsed, ok: None)
    digest = lie_set_digest(oracle.controller.active_lies())
    if digest != episodes[0].outputs["digest"]:
        return [f"episode 0: lie set digest {episodes[0].outputs['digest']} != oracle {digest}"]
    return []


WORKLOADS: Dict[str, Workload] = {
    "crowd": Workload(crowd_setup, crowd_run, crowd_check, 2.8, CROWD_SETUP_ROUNDS),
    "churn": Workload(churn_setup, churn_run, churn_check, 2.3),
    "plan": Workload(plan_setup, plan_run, plan_check, 2.2),
}
