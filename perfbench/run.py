"""Benchmark of the Fibbing closed loop: one command, three seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 25 --trace 0

A run makes a fixed number of episodes, ``round(seconds / episode_s)``, so
the same arguments always do the same work.  ``--trace 0`` measures the
end-to-end metrics with no tracing.  ``--trace 1`` makes the first half of the
episodes untraced and the second half with the per-layer tracer installed
(see ``tracer.py``), prints a per-layer table and reports the per-layer
metrics.  Every timing is scaled to a reference host speed by the reference
task of ``reference.py``, timed around and between each episode's operations.
Either way the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
Metric names and units come from ``BENCHMARK.json``; ``perfbench/README.md``
defines each metric.  Spans and a full record of the run (host, episodes,
quarters) are written under ``.perfbench_out/``.

The command exits with code 1 when a run-level output check fails, and with
code 2, printing no result, when there is no program under ``src/repro``.
"""

from __future__ import annotations

import os

# One fresh single-threaded process per run: pin native thread pools before
# numpy is imported.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from collections import deque
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Deque, Dict, List, Optional

from reference import Reference, scale
from tracer import LEVELS, NAMES, Tracer, layer_counts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

CALIBRATION_ROUNDS = 5
#: Reference rounds timed before the set-up, between set-up and run, and
#: after the run of every episode.
REFERENCE_ROUNDS = 10
#: Least wall time between two reference rounds inside an episode, and the
#: rounds that scale one operation's time.
TICK_S = 0.05
LOCAL_ROUNDS = 10
#: A run stops early, with fewer episodes than asked, once its episodes have
#: taken this many times ``--seconds`` of wall time.
DEADLINE_FACTOR = 1.6


class Probe:
    """What a workload's timed section reports to the runner.

    ``paused()`` brackets work that is not part of the measurement (output
    checks); ``quarter()`` marks the end of each quarter of an episode's
    operations.  Without a tracer both are no-ops.  ``tick()``, called
    between operations and off their clocks, times one reference round when
    ``TICK_S`` have passed since the last, so that host speed is sampled all
    through the episode; ``ticked_s`` is the wall time the ticks took.
    ``scaled()`` scales one operation's time by the last ``LOCAL_ROUNDS``
    rounds, which sample the host state the operation ran in.
    """

    def __init__(self, reference: Reference, tracer=None) -> None:
        self.reference = reference
        self.tracer = tracer
        self.snapshots: List[Dict[str, float]] = []
        self.reference_ms: List[float] = []
        self.ticked_s = 0.0
        self._last_tick = 0.0
        self._recent: Deque[float] = deque(maxlen=LOCAL_ROUNDS)
        self._active_lies = 0.0

    def start(self, warm_ms: List[float]) -> None:
        """Begin an episode; ``warm_ms`` are the rounds timed just before it."""
        self.snapshots = []
        self.reference_ms = []
        self._recent = deque(warm_ms, maxlen=LOCAL_ROUNDS)
        self.ticked_s = 0.0
        self._last_tick = perf_counter()
        if self.tracer is not None:
            self._active_lies = self.tracer.self_seconds()["core.active_lies"]

    def tick(self) -> None:
        start = perf_counter()
        if start - self._last_tick < TICK_S:
            return
        if self.tracer is not None and self.tracer.in_span():
            return  # the round would count as the open span's self time
        self.reference_ms += self.reference.slice(1)
        self._recent.append(self.reference_ms[-1])
        self._last_tick = perf_counter()
        self.ticked_s += self._last_tick - start

    def scaled(self, seconds: float) -> float:
        return seconds * scale(list(self._recent))

    def paused(self):
        return self.tracer.paused() if self.tracer is not None else nullcontext()

    def quarter(self) -> None:
        if self.tracer is None:
            return
        active_lies = self.tracer.self_seconds()["core.active_lies"]
        controllers = self.tracer.instances["FibbingController"]
        self.snapshots.append(
            {
                "core.active_lies_s": active_lies - self._active_lies,
                "core.registry_lies": sum(len(c.registry.history()) for c in controllers),
            }
        )
        self._active_lies = active_lies


def calibrate() -> float:
    """Milliseconds of a fixed pure-Python loop (median of a few rounds)."""
    times = []
    for _ in range(CALIBRATION_ROUNDS):
        start = perf_counter()
        total = 0
        for value in range(300_000):
            total += value * value % 7
        times.append((perf_counter() - start) * 1e3)
    return statistics.median(times)


def host_info() -> Dict[str, object]:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu": cpu,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro_kernel": os.environ.get("REPRO_KERNEL"),
        "git_commit": commit,
        "git_dirty": dirty,
    }


def measure(
    workload, seed: int, count: int, deadline_s: float, reference: Reference,
    tracer: Optional[Tracer] = None,
) -> List:
    """Run ``count`` episodes, or fewer once ``deadline_s`` of wall time passed.

    Each episode's timings are scaled by the reference rounds timed next to
    them: the set-up by the rounds before and after it, ``run_s`` and self
    times by those and the rounds its ticks timed, and single operations by
    the rounds just before them (:meth:`Probe.scaled`).
    """
    probe = Probe(reference, tracer)
    episodes = []
    start = perf_counter()
    for number in range(count):
        if episodes and perf_counter() - start > deadline_s:
            break
        # Keep each episode's GC pauses proportional to what it allocates.
        gc.collect()
        gc.freeze()
        before = reference.slice(REFERENCE_ROUNDS)
        setup_s = []
        for _ in range(workload.setup_rounds):
            inputs = None  # let the previous round's inputs go first
            setup_start = perf_counter()
            inputs = workload.setup(seed, number)
            setup_s.append(perf_counter() - setup_start)
        middle = reference.slice(REFERENCE_ROUNDS)
        probe.start(middle)
        if tracer is None:
            episode = workload.run(inputs, probe)
        else:
            counts = layer_counts(tracer.instances)
            self_s = tracer.self_seconds()
            with tracer.recording():
                episode = workload.run(inputs, probe)
            counted = layer_counts(tracer.take_instances())
            episode.counts = {
                name: value if name in LEVELS else value - counts.get(name, 0)
                for name, value in counted.items()
            }
            episode.self_s = {
                name: seconds - self_s[name] for name, seconds in tracer.self_seconds().items()
            }
            episode.quarters = probe.snapshots
        after = reference.slice(REFERENCE_ROUNDS)
        del inputs
        gc.unfreeze()
        factor = scale(middle + probe.reference_ms + after)
        episode.scale = factor
        episode.run_s *= factor
        episode.self_s = {name: seconds * factor for name, seconds in episode.self_s.items()}
        for quarter in episode.quarters:
            quarter["core.active_lies_s"] *= factor
        setup_factor = scale(before + middle)
        episode.setup_s = [seconds * setup_factor for seconds in setup_s]
        episode.reference_ms = before + middle + probe.reference_ms + after
        episodes.append(episode)
    return episodes


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (``inf`` entries sort last)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(episodes: List) -> Dict[str, float]:
    waves = [latency for episode in episodes for latency in episode.wave_latencies]
    attempted = sum(episode.attempted for episode in episodes)
    failed = sum(episode.failed for episode in episodes)
    return {
        "setup_s": statistics.median(t for episode in episodes for t in episode.setup_s),
        "run_s": statistics.median(episode.run_s for episode in episodes),
        "wave_p50_ms": percentile(waves, 0.5) * 1e3,
        "wave_p90_ms": percentile(waves, 0.9) * 1e3,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "lsas_per_wave": sum(episode.lsas for episode in episodes) / len(waves),
    }


def per_layer(
    untraced: List, traced: List, tracer: Tracer, calibration_ms: float, declared: List[str]
) -> Dict[str, float]:
    """Per-episode means of the traced episodes' self times, calls and counts.

    Timings that tracing would distort (link flaps) come from the untraced
    episodes; a declared count no traced episode produced reads 0.
    """
    count = len(traced)
    self_seconds = {name: sum(e.self_s[name] for e in traced) for name in NAMES}
    calls = tracer.calls()
    metrics: Dict[str, float] = {}
    for name in NAMES:
        metrics[f"{name}_s"] = self_seconds[name] / count
        metrics[f"{name}_calls"] = calls[name] / count
    totals: Dict[str, float] = {}
    for episode in traced:
        for name, value in episode.counts.items():
            totals[name] = totals.get(name, 0) + value
    metrics["igp.routing_errors"] = sum(e.routing_errors for e in traced) / count
    metrics["igp.rib_reuse_ratio"] = _ratio(
        totals.get("igp.rib_reused", 0), totals.get("igp.rib_repaired", 0)
    )
    metrics["core.plan_hit_ratio"] = _ratio(
        totals.get("core.plan_cache_hits", 0), totals.get("core.plans_recomputed", 0)
    )
    metrics["trace.coverage"] = sum(self_seconds.values()) / sum(e.run_s for e in traced)
    metrics["trace.overhead"] = statistics.median(e.run_s for e in traced) / statistics.median(
        e.run_s for e in untraced
    )
    for quarter in range(len(traced[0].waves)):
        waves = [latency for episode in traced for latency in episode.waves[quarter]]
        metrics[f"wave_p50_ms.q{quarter + 1}"] = percentile(waves, 0.5) * 1e3 if waves else 0.0
        for name in ("core.active_lies_s", "core.registry_lies"):
            values = [e.quarters[quarter][name] for e in traced if len(e.quarters) > quarter]
            metrics[f"{name}.q{quarter + 1}"] = statistics.fmean(values) if values else 0.0
    flaps = [latency for episode in untraced for latency in episode.flaps]
    metrics["flap_p50_ms"] = percentile(flaps, 0.5) * 1e3 if flaps else 0.0
    metrics["flap_failed_ratio"] = (
        sum(1 for latency in flaps if math.isinf(latency)) / len(flaps) if flaps else 0.0
    )
    qoe = [e.outputs["qoe"] for e in untraced + traced if "qoe" in e.outputs]
    sessions = sum(report.sessions for report in qoe)
    metrics["smooth_ratio"] = sum(r.smooth_sessions for r in qoe) / sessions if sessions else 0.0
    metrics["rebuffer_ratio"] = (
        sum(r.mean_rebuffer_ratio * r.sessions for r in qoe) / sessions if sessions else 0.0
    )
    metrics["peak_util"] = max(
        (e.outputs["peak_util"] for e in untraced + traced if "peak_util" in e.outputs),
        default=0.0,
    )
    metrics["host.calibration_ms"] = calibration_ms
    metrics["host.reference_ms"] = statistics.median(
        ms for episode in untraced + traced for ms in episode.reference_ms
    )
    for name in declared:
        if name not in metrics:
            metrics[name] = totals.get(name, 0) / count
    return metrics


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_table(metrics: Dict[str, float], traced: List) -> List[str]:
    wall = statistics.fmean(episode.run_s for episode in traced)
    lines = [f"{'layer':<22}{'self s/episode':>16}{'calls/episode':>16}{'share':>8}"]
    for name in sorted(NAMES, key=lambda n: -metrics[f"{n}_s"]):
        seconds = metrics[f"{name}_s"]
        lines.append(
            f"{name:<22}{seconds:>16.4f}{metrics[f'{name}_calls']:>16.1f}{seconds / wall:>8.1%}"
        )
    lines.append(f"{'traced run_s':<22}{wall:>16.4f}{'':>16}{metrics['trace.coverage']:>8.1%}")
    quarters = "  ".join(
        f"q{q}: {metrics[f'wave_p50_ms.q{q}']:.2f} ms, "
        f"{metrics[f'core.active_lies_s.q{q}']:.4f} s active_lies, "
        f"{metrics[f'core.registry_lies.q{q}']:.0f} registry lies"
        for q in range(1, len(traced[0].waves) + 1)
    )
    lines.append(f"wave p50 by quarter: {quarters}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"no program to measure: {source / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    host = host_info()
    calibration = [calibrate()]
    print("host " + json.dumps(host), flush=True)
    reference = Reference()
    count = max(1, round(args.seconds / workload.episode_s))
    deadline_s = DEADLINE_FACTOR * args.seconds

    tracer = None
    if args.trace:
        half = max(1, count // 2)
        untraced = measure(workload, args.seed, half, deadline_s / 2, reference)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(
                workload, args.seed, max(1, count - half), deadline_s / 2, reference, tracer
            )
        finally:
            tracer.uninstall()
        episodes = untraced + traced
    else:
        episodes = measure(workload, args.seed, count, deadline_s, reference)
    calibration.append(calibrate())
    calibration_ms = statistics.fmean(calibration)

    problems = workload.check(args.seed, episodes)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", flush=True)

    if args.trace:
        declared = spec["per_layer"]
        metrics = per_layer(
            untraced, traced, tracer, calibration_ms, [entry["name"] for entry in declared]
        )
        print(f"per-layer table, workload {args.workload} (traced episodes: {len(traced)})")
        for line in layer_table(metrics, traced):
            print("  " + line)
    else:
        metrics = end_to_end(episodes)
        declared = spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(units) != set(metrics):
        mismatch = sorted(set(units) ^ set(metrics))
        raise SystemExit(f"metrics {mismatch} disagree with BENCHMARK.json")

    attempted = sum(episode.attempted for episode in episodes)
    failed = sum(episode.failed for episode in episodes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "calibration_ms": calibration,
        "episodes": [
            {"setup_s": e.setup_s, "run_s": e.run_s, "scale": e.scale,
             "reference_ms": e.reference_ms, "waves": len(e.wave_latencies),
             "flaps": len(e.flaps), "failed": e.failed, "counts": e.counts,
             "quarters": e.quarters}
            for e in episodes
        ],
        "metrics": metrics,
        "problems": problems,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.jsonl.gz", {"workload": args.workload, "seed": args.seed})

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
