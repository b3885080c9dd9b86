"""Tests for the asynchronous control loop (repro.core.scheduler).

Two families:

* **Differential** — at the degenerate knob point (zero reaction latency,
  zero stagger, zero jitter) the :class:`ControlLoopScheduler` wiring must be
  byte-identical to the historical direct ``balancer.attach(alarm)`` wiring,
  and the :class:`ConvergenceMonitor` must be a pure observer whose presence
  changes nothing but its own counters.
* **Behavioural** — the timing knobs do what they claim: deferred reactions
  execute exactly ``reaction_latency`` later, supersession cancels pending
  reactions (and its starvation mode is reachable when the alarm cooldown is
  shorter than the latency), staggered per-prefix sub-waves still converge
  to the same lies, and the convergence monitor's accounting is correct on a
  scripted sequence of inject/FIB events.
"""

from types import SimpleNamespace

import pytest

import repro.experiments.fig2 as fig2
from repro.core.controller import FibbingController
from repro.core.scheduler import ControlLoopScheduler, ConvergenceMonitor
from repro.experiments.fig2 import run_demo_timeseries
from repro.experiments.scaling import build_ring_topology, churn_requirement
from repro.igp.network import IgpNetwork
from repro.util.errors import ValidationError
from repro.util.timeline import Timeline

SEED = 7


def signature(result):
    """The comparison surface for differential runs (all bit-exact fields)."""
    return {
        "alarms": [alarm.time for alarm in result.alarms],
        "actions": [(action.time, action.completed_time) for action in result.actions],
        "link_counters": result.link_counters,
        "series": result.throughput_series,
        "lie_digests": result.lie_digests,
        "stall": result.qoe.total_stall_time,
        "lies_active": result.lies_active,
    }


class _DirectWiring:
    """The historical synchronous wiring: ``balancer.attach(alarm)``.

    Stands in for :class:`ControlLoopScheduler` (same constructor shape) to
    prove the scheduler's degenerate point reproduces it bit for bit.
    """

    def __init__(self, balancer, timeline, reaction_latency=0.0, stagger=0.0, supersede=True):
        assert reaction_latency == 0.0 and stagger == 0.0
        self.balancer = balancer

    def attach(self, alarm):
        self.balancer.attach(alarm)


MONITOR_KEYS = (
    "ctl_converge_seconds",
    "ctl_converge_events",
    "ctl_transient_loops",
    "ctl_transient_blackholes",
)


class TestDifferential:
    def test_zero_knob_scheduler_matches_direct_wiring(self, monkeypatch):
        asynchronous = run_demo_timeseries(seed=SEED)
        monkeypatch.setattr(fig2, "ControlLoopScheduler", _DirectWiring)
        direct = run_demo_timeseries(seed=SEED)
        assert signature(asynchronous) == signature(direct)
        # Including every counter: the scheduler's synchronous path neither
        # defers nor supersedes anything.
        assert asynchronous.controller_stats == direct.controller_stats
        assert asynchronous.controller_stats.get("ctl_reactions_deferred", 0) == 0

    def test_convergence_monitor_is_a_pure_observer(self, monkeypatch):
        observed = run_demo_timeseries(seed=SEED)
        monkeypatch.setattr(fig2, "ConvergenceMonitor", lambda *args, **kwargs: None)
        unobserved = run_demo_timeseries(seed=SEED)
        assert signature(observed) == signature(unobserved)
        # Only the monitor's own counters may differ.
        strip = lambda stats: {k: v for k, v in stats.items() if k not in MONITOR_KEYS}
        assert strip(observed.controller_stats) == strip(unobserved.controller_stats)
        assert observed.controller_stats["ctl_converge_events"] > 0
        assert observed.controller_stats["ctl_converge_seconds"] > 0.0
        assert unobserved.controller_stats["ctl_converge_events"] == 0

    def test_jittered_polls_are_seed_deterministic_and_move_the_alarms(self):
        jittered = run_demo_timeseries(seed=SEED, poll_jitter=0.25)
        again = run_demo_timeseries(seed=SEED, poll_jitter=0.25)
        assert signature(jittered) == signature(again)
        plain = run_demo_timeseries(seed=SEED)
        assert [a.time for a in jittered.alarms] != [a.time for a in plain.alarms]
        # The jittered loop still detects and mitigates the surge.
        assert jittered.actions and jittered.lies_active > 0


class TestDeferredReactions:
    def test_reactions_execute_exactly_reaction_latency_later(self):
        result = run_demo_timeseries(seed=SEED, reaction_latency=0.5)
        assert result.actions
        for action in result.actions:
            assert action.completed_time - action.time == pytest.approx(0.5)
            assert action.reaction_latency == pytest.approx(0.5)
        stats = result.controller_stats
        assert stats["ctl_reactions_deferred"] >= len(result.actions)
        # The deferred loop converges to the same lies as the synchronous one
        # (it reacts to the same congestion, only later).
        assert result.lie_digests == run_demo_timeseries(seed=SEED).lie_digests

    def test_supersession_starves_when_cooldown_beats_latency(self):
        # With reaction_latency (21 s) far above the alarm cooldown (3 s),
        # every re-fire supersedes the still-pending reaction: the loop
        # livelocks by design, and the counters expose it.
        result = run_demo_timeseries(seed=SEED, reaction_latency=21.0, duration=60.0)
        stats = result.controller_stats
        assert result.actions == []
        assert stats["ctl_reactions_deferred"] == len(result.alarms)
        assert stats["ctl_supersessions"] == stats["ctl_reactions_deferred"] - 1

    def test_supersede_false_keeps_the_pending_reaction(self):
        result = run_demo_timeseries(
            seed=SEED, reaction_latency=21.0, duration=60.0, supersede=False
        )
        stats = result.controller_stats
        # The first pending reaction survives all re-fires and completes
        # 21 s after its alarm, observing the *fresh* state at completion.
        assert len(result.actions) == 2
        assert result.actions[0].reaction_latency == pytest.approx(21.0)
        assert stats["ctl_supersessions"] == 0
        assert stats["ctl_reactions_deferred"] == len(result.actions)


class TestStaggeredWaves:
    def test_staggered_waves_converge_to_the_same_lies(self):
        atomic = run_demo_timeseries(seed=SEED)
        staggered = run_demo_timeseries(seed=SEED, stagger=0.1)
        assert staggered.actions
        assert staggered.lie_digests == atomic.lie_digests
        # Stagger routes reactions through the deferred path.
        assert staggered.controller_stats["ctl_reactions_deferred"] >= len(staggered.actions)

    def test_one_subwave_per_prefix_in_wave_order(self):
        """Group ``k`` of a wave (one per prefix, in wave order) is injected
        ``k * stagger`` seconds after the first."""
        topology = build_ring_topology(8, 3)
        network = IgpNetwork(topology)
        network.start()
        network.converge()
        controller = FibbingController(topology, network=network, attachment="R0")
        scheduler = ControlLoopScheduler(
            SimpleNamespace(controller=controller), network.timeline, stagger=0.25
        )
        sent = []
        inject = network.inject

        def recording_inject(lsas, at_router):
            sent.append((network.timeline.now, {lsa.prefix for lsa in lsas}))
            inject(lsas, at_router=at_router)

        network.inject = recording_inject
        wave = [churn_requirement(topology, index, 1) for index in (2, 0, 1)]
        start = network.timeline.now
        controller.wave_injector = scheduler._staggered_inject
        try:
            controller.enforce(wave)
        finally:
            controller.wave_injector = None
        network.converge()
        assert [(now - start, prefixes) for now, prefixes in sent] == [
            (pytest.approx(0.25 * k), {requirement.prefix})
            for k, requirement in enumerate(wave)
        ]

    def test_negative_knobs_rejected(self):
        with pytest.raises(ValidationError):
            run_demo_timeseries(seed=SEED, reaction_latency=-1.0, duration=5.0)
        with pytest.raises(ValidationError):
            run_demo_timeseries(seed=SEED, stagger=-0.1, duration=5.0)


class _StubNetwork:
    """Minimal on_inject/on_fib_change surface for the monitor's unit tests."""

    def __init__(self, timeline):
        self.timeline = timeline
        self._inject_listeners = []
        self._fib_listeners = []

    def on_inject(self, listener):
        self._inject_listeners.append(listener)

    def on_fib_change(self, listener):
        self._fib_listeners.append(listener)

    def fire_inject(self, at_router="R3", count=1):
        for listener in self._inject_listeners:
            listener(at_router, count)

    def fire_fib_change(self, router="A"):
        for listener in self._fib_listeners:
            listener(router, None)


class _StubEngine:
    def __init__(self):
        self.flaws = ({}, {})

    def routing_flaws(self):
        return self.flaws


class TestConvergenceMonitorAccounting:
    def make(self):
        from repro.core.reconciler import CtlCounters

        timeline = Timeline()
        network = _StubNetwork(timeline)
        engine = _StubEngine()
        counters = CtlCounters()
        ConvergenceMonitor(network, engine, counters=counters)
        return timeline, network, engine, counters

    def test_fib_changes_before_any_wave_are_not_charged(self):
        timeline, network, engine, counters = self.make()
        timeline.schedule(1.0, network.fire_fib_change)
        timeline.run_all()
        assert counters.converge_events == 0
        assert counters.converge_seconds == 0.0

    def test_wave_accounting_and_transient_baselining(self):
        timeline, network, engine, counters = self.make()
        # A loop that exists *before* the wave starts is pre-existing, not a
        # transient caused by it: the inject baselines it away.
        engine.flaws = ({"pre": 2}, {})
        timeline.schedule(0.0, network.fire_inject)

        def first_install():
            engine.flaws = ({"pre": 2, "new": 3}, {"hole": 1})
            network.fire_fib_change()

        def second_install():
            network.fire_fib_change()  # same flaws: nothing newly seen

        timeline.schedule(1.0, first_install)
        timeline.schedule(1.5, second_install)
        timeline.run_all()
        assert counters.converge_events == 2
        assert counters.converge_seconds == pytest.approx(1.5)
        assert counters.transient_loops == 3  # "new" only, weighted
        assert counters.transient_blackholes == 1

    def test_idle_time_between_waves_is_never_charged(self):
        timeline, network, engine, counters = self.make()
        timeline.schedule(0.0, network.fire_inject)
        timeline.schedule(1.0, network.fire_fib_change)
        # Ten idle seconds, then a second wave: its first install charges
        # only the gap since the *new* inject marker.
        timeline.schedule(11.0, network.fire_inject)
        timeline.schedule(11.5, network.fire_fib_change)
        timeline.run_all()
        assert counters.converge_events == 2
        assert counters.converge_seconds == pytest.approx(1.0 + 0.5)


class TestSchedulerValidation:
    class _Balancer:
        def __init__(self, controller):
            self.controller = controller

    def test_stagger_on_a_plain_controller_is_accepted(self):
        scheduler = ControlLoopScheduler(
            self._Balancer(object()), Timeline(), stagger=0.1
        )
        assert scheduler.stagger == 0.1

    def test_negative_latency_rejected(self):
        with pytest.raises(ValidationError):
            ControlLoopScheduler(self._Balancer(object()), Timeline(), reaction_latency=-0.5)
