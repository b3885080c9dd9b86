"""Lifecycle management of lies.

The controller keeps every lie it has injected in a :class:`LieRegistry`.
When a new set of lies is computed for a prefix (after a re-optimisation),
the registry *diffs* it against what is already active so that only the
difference touches the network: lies that are still needed are left alone,
new ones are injected, and obsolete ones are withdrawn.  This is what keeps
the control-plane churn proportional to the change rather than to the total
amount of programmed state — one of the paper's selling points against
tunnel-based TE.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.igp.lsa import FakeNodeLsa
from repro.util.errors import ControllerError
from repro.util.prefixes import Prefix

__all__ = [
    "LieState",
    "Lie",
    "LieUpdate",
    "LieRegistry",
    "lsa_signature",
    "lie_set_digest",
    "per_prefix_lie_digests",
]

#: A lie's behavioural signature: two lies with the same signature are
#: interchangeable from the routers' point of view (same anchor, same
#: resolved next hop, same perceived cost for the same prefix).
LieSignature = Tuple[str, str, float, Prefix]


def lsa_signature(lsa: FakeNodeLsa) -> LieSignature:
    """The behavioural signature of a fake-node LSA (see module docstring)."""
    return (
        lsa.anchor,
        lsa.forwarding_address,
        round(lsa.total_cost, 9),
        lsa.prefix,
    )


def lie_set_digest(lsas: Iterable[FakeNodeLsa]) -> str:
    """Stable hex digest of a set of lies, names included.

    Order-independent (the LSAs are canonically sorted first) but otherwise
    exact: fake-node name, anchor, forwarding address and the ``repr``-level
    costs all enter the digest, so both a behavioural drift *and* a change
    of the controller's deterministic naming fail the golden snapshots.
    """
    hasher = hashlib.sha256()
    lines = sorted(
        f"{lsa.fake_node}|{lsa.anchor}>{lsa.forwarding_address}"
        f"|{lsa.link_cost!r}+{lsa.prefix_cost!r}|{lsa.prefix}"
        for lsa in lsas
    )
    for line in lines:
        hasher.update(line.encode())
        hasher.update(b";")
    return hasher.hexdigest()


def per_prefix_lie_digests(lsas: Iterable[FakeNodeLsa]) -> Dict[str, str]:
    """``{prefix: digest}`` of a lie set, one digest per programmed prefix."""
    by_prefix: Dict[Prefix, List[FakeNodeLsa]] = {}
    for lsa in lsas:
        by_prefix.setdefault(lsa.prefix, []).append(lsa)
    return {
        str(prefix): lie_set_digest(group)
        for prefix, group in sorted(by_prefix.items())
    }


class LieState(enum.Enum):
    """Lifecycle of a lie."""

    ACTIVE = "active"
    WITHDRAWN = "withdrawn"


@dataclass
class Lie:
    """One injected lie and its lifecycle state."""

    lsa: FakeNodeLsa
    state: LieState = LieState.ACTIVE
    injected_at: float = 0.0
    withdrawn_at: Optional[float] = None

    @property
    def prefix(self) -> Prefix:
        """Destination prefix the lie programs."""
        return self.lsa.prefix

    @property
    def anchor(self) -> str:
        """Router the fake node is attached to."""
        return self.lsa.anchor

    @property
    def signature(self) -> LieSignature:
        """Behavioural identity used for diffing (see module docstring)."""
        return lsa_signature(self.lsa)


@dataclass(frozen=True)
class LieUpdate:
    """The outcome of reconciling desired lies against the registry."""

    prefix: Prefix
    to_inject: Tuple[FakeNodeLsa, ...]
    to_withdraw: Tuple[FakeNodeLsa, ...]
    unchanged: int

    @property
    def message_count(self) -> int:
        """Number of LSAs that must be sent to the network for this update."""
        return len(self.to_inject) + len(self.to_withdraw)

    @property
    def is_noop(self) -> bool:
        """Whether the desired state was already in place."""
        return self.message_count == 0


class LieRegistry:
    """All lies the controller currently maintains, keyed by fake node name."""

    def __init__(self, controller: str = "fibbing-controller") -> None:
        self.controller = controller
        # Active lies only, keyed by fake-node name and indexed per prefix,
        # so every query costs in proportion to the live state rather than
        # to the committed history (withdrawn lies live in ``_history``).
        self._lies: Dict[str, Lie] = {}
        self._by_prefix: Dict[Prefix, Dict[str, Lie]] = {}
        self._history: List[Lie] = []

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    def active_lies(self, prefix: Optional[Prefix] = None) -> List[Lie]:
        """Active lies, optionally restricted to one prefix, sorted by fake node name."""
        lies = self._lies if prefix is None else self._by_prefix.get(prefix, {})
        return [lies[name] for name in sorted(lies)]

    def active_lsas(self, prefix: Optional[Prefix] = None) -> List[FakeNodeLsa]:
        """The LSAs of the active lies (what a static FIB computation needs)."""
        return [lie.lsa for lie in self.active_lies(prefix)]

    def active_count(self, prefix: Optional[Prefix] = None) -> int:
        """Number of active lies (optionally for one prefix)."""
        if prefix is None:
            return len(self._lies)
        return len(self._by_prefix.get(prefix, ()))

    def active_counts(self) -> Dict[Prefix, int]:
        """Active-lie count per prefix (only prefixes with active lies)."""
        return {prefix: len(lies) for prefix, lies in self._by_prefix.items()}

    def prefixes(self) -> List[Prefix]:
        """Prefixes that currently have at least one active lie."""
        return sorted(self._by_prefix)

    def history(self) -> List[Lie]:
        """Every lie ever registered (active and withdrawn)."""
        return list(self._history)

    # ------------------------------------------------------------------ #
    # Reconciliation
    # ------------------------------------------------------------------ #
    def plan_update(self, prefix: Prefix, desired: Iterable[FakeNodeLsa]) -> LieUpdate:
        """Diff ``desired`` lies for ``prefix`` against the active ones.

        Lies are matched by behavioural signature (anchor, forwarding
        address, total cost), so re-running the optimizer with an unchanged
        outcome produces a no-op update even though the freshly synthesised
        LSAs carry new fake-node names.
        """
        desired = list(desired)
        for lsa in desired:
            if lsa.prefix != prefix:
                raise ControllerError(
                    f"desired lie {lsa.fake_node!r} targets {lsa.prefix}, expected {prefix}"
                )

        active = self.active_lies(prefix)
        remaining: Dict[LieSignature, List[Lie]] = {}
        for lie in active:
            remaining.setdefault(lie.signature, []).append(lie)

        to_inject: List[FakeNodeLsa] = []
        unchanged = 0
        for lsa in desired:
            matches = remaining.get(lsa_signature(lsa))
            if matches:
                matches.pop()
                unchanged += 1
            else:
                to_inject.append(lsa)

        to_withdraw = [
            lie.lsa for lies in remaining.values() for lie in lies
        ]
        to_withdraw.sort(key=lambda lsa: lsa.fake_node)
        return LieUpdate(
            prefix=prefix,
            to_inject=tuple(to_inject),
            to_withdraw=tuple(to_withdraw),
            unchanged=unchanged,
        )

    def commit(self, update: LieUpdate, now: float = 0.0) -> None:
        """Record the effects of an update that has been sent to the network."""
        for lsa in update.to_inject:
            if lsa.fake_node in self._lies:
                raise ControllerError(f"fake node {lsa.fake_node!r} is already active")
            self._activate(Lie(lsa=lsa, state=LieState.ACTIVE, injected_at=now))
        for lsa in update.to_withdraw:
            lie = self._lies.pop(lsa.fake_node, None)
            if lie is None:
                raise ControllerError(f"cannot withdraw unknown lie {lsa.fake_node!r}")
            lies = self._by_prefix[lie.prefix]
            del lies[lsa.fake_node]
            if not lies:
                del self._by_prefix[lie.prefix]
            lie.state = LieState.WITHDRAWN
            lie.withdrawn_at = now

    def _activate(self, lie: Lie) -> None:
        """Register ``lie`` as active, in the name map, the index and the history."""
        self._lies[lie.lsa.fake_node] = lie
        self._by_prefix.setdefault(lie.prefix, {})[lie.lsa.fake_node] = lie
        self._history.append(lie)

    def reset(self) -> None:
        """Forget every lie — the in-memory state lost in a controller crash.

        The lies themselves survive in the network (fake LSAs live in the
        routers' LSDBs); :meth:`restore` re-learns them after a restart.
        """
        self._lies.clear()
        self._by_prefix.clear()
        self._history.clear()

    def restore(self, lsas: Iterable[FakeNodeLsa], now: float = 0.0) -> int:
        """Re-register surviving lies read back from the network's LSDB.

        Called by :meth:`~repro.core.controller.FibbingController.resync`
        with the live fake-node LSAs found at the attachment router.  Each
        becomes an ACTIVE lie again, exactly as if this registry had
        committed it; returns the number of lies recovered.
        """
        count = 0
        for lsa in sorted(lsas, key=lambda item: item.fake_node):
            if lsa.fake_node in self._lies:
                raise ControllerError(
                    f"cannot restore {lsa.fake_node!r}: fake node is already active"
                )
            self._activate(Lie(lsa=lsa, state=LieState.ACTIVE, injected_at=now))
            count += 1
        return count

    def clear(self, prefix: Optional[Prefix] = None) -> LieUpdate:
        """Plan the withdrawal of every active lie (optionally for one prefix)."""
        active = self.active_lies(prefix)
        target_prefix = prefix if prefix is not None else (
            active[0].prefix if active else Prefix.parse("0.0.0.0/0")
        )
        return LieUpdate(
            prefix=target_prefix,
            to_inject=(),
            to_withdraw=tuple(lie.lsa for lie in active),
            unchanged=0,
        )

    def __len__(self) -> int:
        return self.active_count()
