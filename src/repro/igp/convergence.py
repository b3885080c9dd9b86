"""Convergence measurement helpers.

The reaction-time ablation (experiment A1) needs to know how long the
network takes, after the controller injects lies, until the last router
installs its updated FIB.  :class:`ConvergenceTracker` subscribes to the FIB
change notifications of an :class:`~repro.igp.network.IgpNetwork` and records
every installation time, from which per-episode convergence durations are
derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.igp.fib import Fib
from repro.igp.network import IgpNetwork
from repro.util.errors import SimulationError

__all__ = ["ConvergenceTracker", "ConvergenceEpisode"]


@dataclass
class ConvergenceEpisode:
    """One tracked change episode: from a trigger to the last FIB install."""

    label: str
    started_at: float
    installs: List[Tuple[float, str]] = field(default_factory=list)

    @property
    def finished_at(self) -> Optional[float]:
        """Time of the last FIB installation seen so far (``None`` if none)."""
        return max((time for time, _ in self.installs), default=None)

    @property
    def duration(self) -> float:
        """Elapsed time between the trigger and the last FIB installation."""
        finished = self.finished_at
        if finished is None:
            return 0.0
        return finished - self.started_at

    @property
    def routers_updated(self) -> List[str]:
        """Routers that installed a new FIB during the episode, sorted."""
        return sorted({router for _, router in self.installs})


class ConvergenceTracker:
    """Records FIB installation times grouped into labelled episodes."""

    def __init__(self, network: IgpNetwork) -> None:
        self.network = network
        self.episodes: List[ConvergenceEpisode] = []
        self._active: Optional[ConvergenceEpisode] = None
        network.on_fib_change(self._record)

    def start_episode(self, label: str) -> ConvergenceEpisode:
        """Open a new episode starting at the network's current simulated time."""
        episode = ConvergenceEpisode(label=label, started_at=self.network.timeline.now)
        self.episodes.append(episode)
        self._active = episode
        return episode

    def close_episode(self) -> ConvergenceEpisode:
        """Close the active episode and return it."""
        if self._active is None:
            raise SimulationError("no active convergence episode to close")
        episode = self._active
        self._active = None
        return episode

    def _record(self, router: str, fib: Fib) -> None:
        if self._active is not None:
            self._active.installs.append((self.network.timeline.now, router))

    def durations(self) -> Dict[str, float]:
        """Mapping from episode label to measured convergence duration."""
        return {episode.label: episode.duration for episode in self.episodes}
