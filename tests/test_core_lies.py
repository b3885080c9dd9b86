"""Tests for the lie registry and diff-based updates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lies import Lie, LieRegistry, LieState, LieUpdate
from repro.igp.lsa import FakeNodeLsa
from repro.topologies.demo import BLUE_PREFIX
from repro.util.errors import ControllerError
from repro.util.prefixes import Prefix

OTHER_PREFIX = Prefix.parse("10.7.0.0/24")


def make_lsa(name="f1", anchor="B", forwarding="R3", cost=2.0, prefix=BLUE_PREFIX):
    return FakeNodeLsa(
        origin="ctrl",
        fake_node=name,
        anchor=anchor,
        link_cost=cost / 2,
        prefix=prefix,
        prefix_cost=cost / 2,
        forwarding_address=forwarding,
    )


class TestRegistryBasics:
    def test_commit_injection_registers_active_lie(self):
        registry = LieRegistry()
        update = registry.plan_update(BLUE_PREFIX, [make_lsa()])
        assert len(update.to_inject) == 1
        assert update.to_withdraw == ()
        registry.commit(update, now=5.0)
        assert registry.active_count(BLUE_PREFIX) == 1
        assert registry.active_lies()[0].injected_at == 5.0
        assert registry.prefixes() == [BLUE_PREFIX]

    def test_duplicate_commit_rejected(self):
        registry = LieRegistry()
        update = registry.plan_update(BLUE_PREFIX, [make_lsa()])
        registry.commit(update)
        with pytest.raises(ControllerError):
            registry.commit(update)

    def test_plan_update_rejects_wrong_prefix(self):
        registry = LieRegistry()
        with pytest.raises(ControllerError):
            registry.plan_update(OTHER_PREFIX, [make_lsa(prefix=BLUE_PREFIX)])

    def test_lie_signature_ignores_name(self):
        a = Lie(lsa=make_lsa(name="x"))
        b = Lie(lsa=make_lsa(name="y"))
        assert a.signature == b.signature


class TestDiffing:
    def test_identical_desired_state_is_noop(self):
        registry = LieRegistry()
        registry.commit(registry.plan_update(BLUE_PREFIX, [make_lsa(name="f1")]))
        update = registry.plan_update(BLUE_PREFIX, [make_lsa(name="f2")])
        assert update.is_noop
        assert update.unchanged == 1

    def test_new_lie_injected_old_kept(self):
        registry = LieRegistry()
        registry.commit(registry.plan_update(BLUE_PREFIX, [make_lsa(name="f1")]))
        desired = [make_lsa(name="f2"), make_lsa(name="f3", anchor="A", forwarding="R1", cost=3.0)]
        update = registry.plan_update(BLUE_PREFIX, desired)
        assert len(update.to_inject) == 1
        assert update.to_inject[0].anchor == "A"
        assert update.to_withdraw == ()
        assert update.unchanged == 1

    def test_obsolete_lie_withdrawn(self):
        registry = LieRegistry()
        registry.commit(
            registry.plan_update(
                BLUE_PREFIX,
                [make_lsa(name="f1"), make_lsa(name="f2", anchor="A", forwarding="R1", cost=3.0)],
            )
        )
        update = registry.plan_update(BLUE_PREFIX, [make_lsa(name="f3")])
        assert len(update.to_withdraw) == 1
        assert update.to_withdraw[0].anchor == "A"
        registry.commit(update, now=9.0)
        assert registry.active_count(BLUE_PREFIX) == 1
        withdrawn = [lie for lie in registry.history() if lie.state is LieState.WITHDRAWN]
        assert withdrawn[0].withdrawn_at == 9.0

    def test_multiplicity_matters_in_diff(self):
        registry = LieRegistry()
        # Two identical-signature lies active (uneven split replication).
        registry.commit(
            registry.plan_update(
                BLUE_PREFIX,
                [make_lsa(name="f1", anchor="A", forwarding="R1", cost=3.0),
                 make_lsa(name="f2", anchor="A", forwarding="R1", cost=3.0)],
            )
        )
        # Desired state only needs one of them: exactly one withdrawal.
        update = registry.plan_update(
            BLUE_PREFIX, [make_lsa(name="f3", anchor="A", forwarding="R1", cost=3.0)]
        )
        assert len(update.to_withdraw) == 1
        assert update.unchanged == 1

    def test_changed_cost_replaces_lie(self):
        registry = LieRegistry()
        registry.commit(registry.plan_update(BLUE_PREFIX, [make_lsa(name="f1", cost=2.0)]))
        update = registry.plan_update(BLUE_PREFIX, [make_lsa(name="f2", cost=4.0)])
        assert len(update.to_inject) == 1
        assert len(update.to_withdraw) == 1

    def test_prefixes_are_independent(self):
        registry = LieRegistry()
        registry.commit(registry.plan_update(BLUE_PREFIX, [make_lsa(name="f1")]))
        registry.commit(
            registry.plan_update(OTHER_PREFIX, [make_lsa(name="f2", prefix=OTHER_PREFIX)])
        )
        update = registry.plan_update(BLUE_PREFIX, [])
        assert len(update.to_withdraw) == 1
        registry.commit(update)
        assert registry.active_count(OTHER_PREFIX) == 1
        assert registry.active_count(BLUE_PREFIX) == 0


class TestClear:
    def test_clear_prefix_plans_all_withdrawals(self):
        registry = LieRegistry()
        registry.commit(
            registry.plan_update(BLUE_PREFIX, [make_lsa(name="f1"), make_lsa(name="f2", anchor="A", forwarding="R1", cost=3.0)])
        )
        update = registry.clear(BLUE_PREFIX)
        assert len(update.to_withdraw) == 2
        registry.commit(update)
        assert len(registry) == 0

    def test_withdraw_unknown_lie_rejected(self):
        registry = LieRegistry()
        from repro.core.lies import LieUpdate

        bogus = LieUpdate(
            prefix=BLUE_PREFIX, to_inject=(), to_withdraw=(make_lsa(name="ghost"),), unchanged=0
        )
        with pytest.raises(ControllerError):
            registry.commit(bogus)

    def test_active_lsas_returns_lsa_objects(self):
        registry = LieRegistry()
        registry.commit(registry.plan_update(BLUE_PREFIX, [make_lsa(name="f1")]))
        lsas = registry.active_lsas()
        assert len(lsas) == 1
        assert isinstance(lsas[0], FakeNodeLsa)


PROPERTY_PREFIXES = (BLUE_PREFIX, OTHER_PREFIX, Prefix.parse("10.9.0.0/24"))
PROPERTY_SHAPES = (("B", "R3", 2.0), ("A", "R1", 3.0), ("A", "R2", 3.0))
REGISTRY_ACTIONS = st.one_of(
    st.tuples(
        st.just("plan"),
        st.integers(0, len(PROPERTY_PREFIXES) - 1),
        st.lists(st.integers(0, len(PROPERTY_SHAPES) - 1), max_size=4),
    ),
    st.tuples(st.just("withdraw"), st.integers(0, 63)),
    st.tuples(st.just("reinject"), st.integers(0, 63)),
    st.tuples(st.just("reset")),
    st.tuples(
        st.just("restore"),
        st.lists(
            st.tuples(
                st.integers(0, len(PROPERTY_PREFIXES) - 1),
                st.integers(0, len(PROPERTY_SHAPES) - 1),
            ),
            max_size=4,
        ),
    ),
)


def _scan_active(registry):
    """Reference: the active lies, by brute force over the whole history."""
    active = [lie for lie in registry.history() if lie.state is LieState.ACTIVE]
    return sorted(active, key=lambda lie: lie.lsa.fake_node)


class TestRegistryIndexProperty:
    """Every active-lie query agrees with a scan of ``history()``."""

    def check(self, registry):
        reference = _scan_active(registry)
        assert registry.active_lies() == reference
        assert registry.active_lsas() == [lie.lsa for lie in reference]
        assert registry.active_count() == len(reference) == len(registry)
        counts = {}
        for lie in reference:
            counts[lie.prefix] = counts.get(lie.prefix, 0) + 1
        assert registry.active_counts() == counts
        assert registry.prefixes() == sorted(counts)
        for prefix in PROPERTY_PREFIXES:
            expected = [lie for lie in reference if lie.prefix == prefix]
            assert registry.active_lies(prefix) == expected
            assert registry.active_lsas(prefix) == [lie.lsa for lie in expected]
            assert registry.active_count(prefix) == len(expected)
            assert registry.clear(prefix).to_withdraw == tuple(
                lie.lsa for lie in expected
            )

    @settings(max_examples=200, deadline=None)
    @given(actions=st.lists(REGISTRY_ACTIONS, max_size=25))
    def test_queries_match_a_history_scan(self, actions):
        registry = LieRegistry()
        fresh = iter(range(10_000))

        def shaped(prefix_index, shape_index):
            anchor, forwarding, cost = PROPERTY_SHAPES[shape_index]
            return make_lsa(
                name=f"n{next(fresh)}",
                anchor=anchor,
                forwarding=forwarding,
                cost=cost,
                prefix=PROPERTY_PREFIXES[prefix_index],
            )

        for step, action in enumerate(actions):
            kind = action[0]
            if kind == "plan":
                prefix = PROPERTY_PREFIXES[action[1]]
                desired = [shaped(action[1], index) for index in action[2]]
                registry.commit(registry.plan_update(prefix, desired), now=float(step))
            elif kind == "withdraw":
                active = registry.active_lies()
                if active:
                    lsa = active[action[1] % len(active)].lsa
                    registry.commit(
                        LieUpdate(prefix=lsa.prefix, to_inject=(), to_withdraw=(lsa,), unchanged=0),
                        now=float(step),
                    )
            elif kind == "reinject":
                # Re-use the name of a withdrawn lie: the old instance stays
                # withdrawn in the history, the new one is active.
                active = {lie.lsa.fake_node for lie in registry.active_lies()}
                withdrawn = [
                    lie.lsa for lie in registry.history()
                    if lie.lsa.fake_node not in active
                ]
                if withdrawn:
                    lsa = withdrawn[action[1] % len(withdrawn)]
                    registry.commit(
                        LieUpdate(prefix=lsa.prefix, to_inject=(lsa,), to_withdraw=(), unchanged=0),
                        now=float(step),
                    )
                    with pytest.raises(ControllerError):
                        registry.commit(
                            LieUpdate(prefix=lsa.prefix, to_inject=(lsa,), to_withdraw=(), unchanged=0)
                        )
            elif kind == "reset":
                registry.reset()
                assert registry.history() == []
            else:
                lsas = [shaped(prefix, shape) for prefix, shape in action[1]]
                assert registry.restore(lsas, now=float(step)) == len(lsas)
            self.check(registry)
