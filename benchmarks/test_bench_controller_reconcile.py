"""Benchmark: the controller reaction wave with and without the plan cache.

PRs 1–3 made SPF, RIB/FIB and the flow-level data plane incremental; the
controller itself still re-planned *every* requirement on every reaction —
validation walk, lie synthesis and registry diff for destinations whose
demand never moved.  This benchmark replays the canonical churn workload (a
requirement set of which exactly one entry changes per reaction) through the
clear-and-replay oracle (``incremental=False``) and through the plan-cache
reconciler, asserting the ≥ 2x hot-path speedup that closes the end-to-end
incremental pipeline — and, first, that both land on bit-identical lies.

A second case replays the partition churn (a quarter of the requirement set
changing per wave) and checks that the single controller's per-wave cost
scales with the *dirty* requirements, not with the whole set.
"""

import os

import pytest

from repro.core.controller import FibbingController
from repro.core.lies import lie_set_digest
from repro.experiments.scaling import (
    build_ring_topology,
    partition_churn_waves,
    replay_partition_churn,
    replay_requirement_churn,
    run_reconcile_scaling,
)

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

RING = 16 if QUICK else 32
COUNT = 16 if QUICK else 48
WAVES = 20 if QUICK else 60


def run_reconcile_comparison():
    """Replay the churn through both engines; return times and counters."""
    topology = build_ring_topology(RING, COUNT)

    oracle = FibbingController(topology, incremental=False)
    oracle_time = replay_requirement_churn(oracle, topology, COUNT, WAVES)

    incremental = FibbingController(topology)
    incremental_time = replay_requirement_churn(incremental, topology, COUNT, WAVES)

    # Equivalence first, speed second: a reconciler that skips work it
    # should not skip would also "win" this benchmark.
    assert lie_set_digest(incremental.active_lies()) == lie_set_digest(
        oracle.active_lies()
    )
    return oracle_time, incremental_time, incremental.stats.snapshot()


def test_requirement_churn_reconcile_speedup(benchmark, report):
    oracle_time, incremental_time, stats = benchmark.pedantic(
        run_reconcile_comparison, rounds=1, iterations=1
    )
    speedup = oracle_time / incremental_time

    report.add_line(
        f"Controller reconciliation — requirement churn waves "
        f"({COUNT} requirements on a {RING}-router ring, {WAVES} waves, "
        f"1 requirement changing per wave)"
    )
    report.add_table(
        ["engine", "total enforce time [s]"],
        [
            ("clear-and-replay oracle", f"{oracle_time:.4f}"),
            ("plan-cache reconciler", f"{incremental_time:.4f}"),
            ("speedup", f"{speedup:.1f}x"),
        ],
    )
    report.add_line(
        "ctl counters: "
        + ", ".join(
            f"{key}={stats[key]}" for key in sorted(stats) if key.startswith("ctl_")
        )
    )
    report.add_metric("oracle_seconds", oracle_time)
    report.add_metric("incremental_seconds", incremental_time)
    report.add_metric("speedup", speedup)

    # The acceptance bar for the incremental controller.  Quick mode
    # measures sub-millisecond waves on shared CI runners, so it only
    # smoke-checks that the reconciler is not slower.
    assert speedup >= (1.2 if QUICK else 2.0)
    assert stats["ctl_fallbacks"] == 0
    # Every wave after the first skipped all unchanged requirements…
    assert stats["ctl_plan_cache_hits"] == WAVES * (COUNT - 1)
    # …and re-planned exactly the one that moved (plus the initial wave).
    assert stats["ctl_plans_recomputed"] == COUNT + WAVES
    # Skipping must dominate the churn: far more lies kept than moved.
    assert stats["ctl_lies_kept"] > stats["ctl_lies_injected"]


def test_reconcile_scaling_rows(benchmark, report):
    """A5 — reconciliation speedup as the requirement count grows."""
    counts = (8, 16) if QUICK else (8, 16, 32)
    waves = 20 if QUICK else 60
    rows = benchmark.pedantic(
        run_reconcile_scaling,
        kwargs=dict(requirement_counts=counts, waves=waves, ring=RING),
        rounds=1,
        iterations=1,
    )

    report.add_line(
        f"A5 — controller reconciliation scaling ({RING}-router ring, "
        f"{waves} churn waves, 1 requirement changing per wave)"
    )
    report.add_table(
        [
            "requirements",
            "oracle [s]",
            "incremental [s]",
            "speedup",
            "plan hits",
            "replans",
            "lies kept",
        ],
        [
            (
                row.requirements,
                f"{row.oracle_seconds:.4f}",
                f"{row.incremental_seconds:.4f}",
                f"{row.speedup:.1f}x",
                row.plan_cache_hits,
                row.plans_recomputed,
                row.lies_kept,
            )
            for row in rows
        ],
    )

    for row in rows:
        report.add_metric(f"speedup_{row.requirements}_requirements", row.speedup)

    for row in rows:
        assert row.fallbacks == 0
        assert row.plan_cache_hits > row.plans_recomputed
    # The whole point of the reconciler: the gap must widen (or at least
    # not collapse) as the unchanged fraction of the set grows.
    if not QUICK:
        assert rows[-1].speedup >= rows[0].speedup * 0.8


PARTITION_GROUPS = 4  # a quarter of the set is dirty per churn wave
PARTITION_ROUNDS = 3


def replay_partition(groups):
    """Best-of-N steady-state churn time and the counters of one replay."""
    topology = build_ring_topology(RING, COUNT)
    best = float("inf")
    for _ in range(PARTITION_ROUNDS):
        controller = FibbingController(topology)
        seconds = replay_partition_churn(controller, topology, COUNT, WAVES, groups)
        best = min(best, seconds)
    return best, controller.reconciler.counters.snapshot()


def check_partition_against_oracle(groups):
    """Untimed: the lies match the oracle after every wave; returns the
    number of waves that ended with a non-empty lie set."""
    topology = build_ring_topology(RING, COUNT)
    incremental = FibbingController(topology)
    oracle = FibbingController(topology, incremental=False)
    populated = 0
    for wave, requirements in enumerate(
        partition_churn_waves(topology, COUNT, WAVES, groups)
    ):
        incremental.enforce(requirements)
        oracle.enforce(requirements)
        digest = lie_set_digest(incremental.active_lies())
        assert digest == lie_set_digest(oracle.active_lies()), f"wave {wave}"
        populated += bool(incremental.active_lies())
    return populated


def test_partition_churn_scales_with_dirty_requirements(benchmark, report):
    quarter_time, quarter = benchmark.pedantic(
        replay_partition, args=(PARTITION_GROUPS,), rounds=1, iterations=1
    )
    all_time, everything = replay_partition(1)
    ratio = quarter_time / all_time

    report.add_line(
        f"Controller partition churn ({COUNT} requirements on a {RING}-router "
        f"ring, {WAVES} waves, best of {PARTITION_ROUNDS} replays)"
    )
    report.add_table(
        ["dirty per wave", "per-wave time [ms]", "plans recomputed"],
        [
            (
                f"1/{PARTITION_GROUPS}",
                f"{1e3 * quarter_time / WAVES:.3f}",
                quarter["ctl_plans_recomputed"],
            ),
            ("all", f"{1e3 * all_time / WAVES:.3f}", everything["ctl_plans_recomputed"]),
            ("ratio", f"{ratio:.2f}", ""),
        ],
    )
    report.add_metric("quarter_dirty_wave_seconds", quarter_time / WAVES)
    report.add_metric("all_dirty_wave_seconds", all_time / WAVES)
    report.add_metric("dirty_time_ratio", ratio)

    # Exactly the dirty requirements are re-planned: the initial wave plus
    # one group per churn wave.
    assert quarter["ctl_plans_recomputed"] == COUNT + WAVES * (COUNT // PARTITION_GROUPS)
    assert everything["ctl_plans_recomputed"] == COUNT * (WAVES + 1)
    assert quarter["ctl_fallbacks"] == everything["ctl_fallbacks"] == 0
    # The cost follows the dirty fraction, not the requirement count.
    assert ratio <= 0.75

    # Equivalence, outside the clock: bit-identical to the oracle after
    # every wave, and the workload really installs lies.
    assert check_partition_against_oracle(PARTITION_GROUPS) > 0
