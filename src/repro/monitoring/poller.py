"""Periodic SNMP polling.

The poller wakes up every ``poll_interval`` seconds of simulated time, reads
all interface counters from every agent, converts the octet deltas into
per-link bit rates, and hands the resulting :class:`PollSample` to its
listeners (typically a :class:`~repro.monitoring.collector.LoadCollector`).

The polling period is the dominant term of the controller's reaction time
(ablation A1): congestion can only be noticed at the next poll.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.monitoring.counters import SnmpAgent
from repro.util.errors import MonitoringError
from repro.util.timeline import Timeline
from repro.util.validation import check_non_negative, check_positive

__all__ = ["PollSample", "SnmpPoller"]

LinkKey = Tuple[str, str]


@dataclass(frozen=True)
class PollSample:
    """Per-link average rates (bit/s) measured over one polling interval."""

    time: float
    interval: float
    rates: Dict[LinkKey, float]

    def rate_of(self, source: str, target: str) -> float:
        """Measured rate on ``source -> target`` (0.0 when idle or unknown)."""
        return self.rates.get((source, target), 0.0)


class SnmpPoller:
    """Polls every agent's counters on a fixed period and derives link rates."""

    def __init__(
        self,
        agents: Mapping[str, SnmpAgent],
        timeline: Timeline,
        poll_interval: float = 1.0,
        jitter: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not agents:
            raise MonitoringError("the poller needs at least one SNMP agent")
        self.agents = dict(agents)
        self.timeline = timeline
        self.poll_interval = check_positive(poll_interval, "poll_interval")
        # Per-poll schedule jitter: each poll fires poll_interval ± U(jitter)
        # seconds after the previous one, drawn from an *explicit* RNG so
        # runs stay deterministic and sweep-reproducible.  jitter=0 draws
        # nothing at all — the zero-jitter schedule is byte-identical to the
        # fixed-period poller whether or not an RNG is supplied.
        self.jitter = check_non_negative(jitter, "jitter")
        if self.jitter >= self.poll_interval:
            raise MonitoringError(
                f"jitter ({self.jitter}) must stay below poll_interval "
                f"({self.poll_interval}) so polls never coincide or reorder"
            )
        if self.jitter > 0.0 and rng is None:
            raise MonitoringError(
                "a jittered poller needs an explicit random.Random (rng=) "
                "so the poll schedule is reproducible"
            )
        self.rng = rng
        # Fault-injection knobs (see core.chaos): each poll attempt times
        # out with probability ``timeout_rate`` (drawn from an explicit
        # seeded RNG), is retried up to ``max_retries`` times with
        # exponential backoff (retry k fires ``retry_backoff * 2**k``
        # seconds later), and is *omitted* — no sample at all this round —
        # when every retry times out too.  The baseline reading survives an
        # omission, so the next successful poll measures its rates over the
        # whole elapsed gap; downstream consumers see that as a long
        # ``sample.interval`` (the alarm's staleness horizon keys on it).
        # At the default rate of 0.0 no random numbers are drawn and every
        # poll succeeds immediately.
        self.timeout_rate: float = 0.0
        self.timeout_rng: Optional[random.Random] = None
        self.max_retries: int = 2
        self.retry_backoff: float = 0.1
        self.poll_timeouts = 0
        self.poll_omissions = 0
        self.polls_performed = 0
        #: Counter resets/wraps observed: negative octet deltas re-baseline
        #: the link (no rate reported that interval) instead of silently
        #: reporting it idle.
        self.poll_counter_resets = 0
        self.samples: List[PollSample] = []
        self._listeners: List[Callable[[PollSample], None]] = []
        self._previous_counters: Dict[LinkKey, float] = {}
        self._previous_time = timeline.now
        self._started = False

    def set_timeouts(
        self,
        rate: float,
        rng: Optional[random.Random] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.1,
    ) -> None:
        """Configure SNMP timeout fault injection (see the class attributes).

        ``rate`` is the per-attempt timeout probability; ``rng`` must be an
        explicit seeded ``random.Random`` whenever it is positive.
        """
        rate = check_non_negative(rate, "timeout rate")
        if rate > 1.0:
            raise MonitoringError(f"timeout rate must be at most 1.0, got {rate}")
        if rate > 0.0 and rng is None:
            raise MonitoringError(
                "a seeded random.Random is required when the timeout rate is positive"
            )
        if max_retries < 0:
            raise MonitoringError(f"max_retries must be >= 0, got {max_retries}")
        self.timeout_rate = rate
        self.timeout_rng = rng
        self.max_retries = max_retries
        self.retry_backoff = check_non_negative(retry_backoff, "retry_backoff")

    def on_sample(self, listener: Callable[[PollSample], None]) -> None:
        """Register ``listener(sample)`` invoked after every poll."""
        self._listeners.append(listener)

    def start(self) -> None:
        """Schedule the first poll (idempotent)."""
        if self._started:
            return
        self._started = True
        # Take a baseline reading so the first real poll measures a delta.
        self._previous_counters = self._read_counters()
        self._previous_time = self.timeline.now
        self._schedule_next_poll()

    def _schedule_next_poll(self) -> None:
        delay = self.poll_interval
        if self.jitter > 0.0:
            delay += self.rng.uniform(-self.jitter, self.jitter)
        self.timeline.schedule_in(delay, self._poll, label="snmp-poll")

    def _read_counters(self) -> Dict[LinkKey, float]:
        counters: Dict[LinkKey, float] = {}
        for router in sorted(self.agents):
            for stat in self.agents[router].read_all():
                counters[(stat.router, stat.neighbor)] = stat.out_octets
        return counters

    def _poll(self) -> None:
        self._attempt(0)

    def _attempt(self, attempt: int) -> None:
        if (
            self.timeout_rate > 0.0
            and self.timeout_rng is not None
            and self.timeout_rng.random() < self.timeout_rate
        ):
            self.poll_timeouts += 1
            if attempt < self.max_retries:
                self.timeline.schedule_in(
                    self.retry_backoff * (2.0 ** attempt),
                    lambda: self._attempt(attempt + 1),
                    label="snmp-poll-retry",
                )
            else:
                # Every retry timed out: this polling round produces no
                # sample.  The baseline counters/time survive, so the next
                # successful poll averages over the whole gap.
                self.poll_omissions += 1
                self._schedule_next_poll()
            return
        now = self.timeline.now
        counters = self._read_counters()
        interval = now - self._previous_time
        rates: Dict[LinkKey, float] = {}
        if interval > 0:
            for link, octets in counters.items():
                delta = octets - self._previous_counters.get(link, 0.0)
                if delta > 0:
                    rates[link] = delta * 8.0 / interval
                elif delta < 0:
                    # An agent restart or 64-bit counter wrap: the reading
                    # went backwards.  The delta is meaningless, so no rate
                    # is reported this interval; the link re-baselines at the
                    # new reading (the wholesale counter replacement below)
                    # and measures normally from the next poll on.
                    self.poll_counter_resets += 1
        sample = PollSample(time=now, interval=interval, rates=rates)
        self.polls_performed += 1
        self.samples.append(sample)
        # Wholesale replacement: links that vanished from the agents' reads
        # (failed links are dropped from the topology's neighbor sets) leave
        # no stale baseline entry behind.
        self._previous_counters = counters
        self._previous_time = now
        for listener in self._listeners:
            listener(sample)
        self._schedule_next_poll()
