"""Tests for the payload kind-id registry and slotted protocol objects."""

import pytest

from repro.net.message import (
    intern_kind,
    kind_count,
    kind_name,
    register_kind,
    registered_kinds,
)


class TestKindRegistry:
    def test_register_returns_dense_ids(self):
        a = register_kind("test-kind-dense-a")
        b = register_kind("test-kind-dense-b")
        assert b == a + 1
        assert kind_name(a) == "test-kind-dense-a"
        assert intern_kind("test-kind-dense-b") == b

    def test_duplicate_registration_raises(self):
        register_kind("test-kind-dup")
        with pytest.raises(ValueError, match="already registered"):
            register_kind("test-kind-dup")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_kind("")

    def test_intern_unknown_kind_raises(self):
        """Regression: a lookup miss must never silently mint a kind-id —
        an accidental registration on one side of a fork/spawn boundary
        would skew every id after it between shard workers."""
        with pytest.raises(KeyError, match="unknown payload kind"):
            intern_kind("test-kind-never-registered")
        # The failed lookup must not have registered the name as a side
        # effect of composing the error message.
        assert "test-kind-never-registered" not in registered_kinds()

    def test_intern_register_is_idempotent(self):
        first = intern_kind("test-kind-intern", register=True)
        assert intern_kind("test-kind-intern", register=True) == first
        # Once registered, plain lookup resolves it.
        assert intern_kind("test-kind-intern") == first

    def test_registry_enumeration_is_consistent(self):
        kinds = registered_kinds()
        assert len(kinds) == kind_count()
        for kind_id, name in enumerate(kinds):
            assert intern_kind(name) == kind_id

    def test_protocol_kinds_are_registered_with_distinct_ids(self):
        from repro.baselines.tree import TreePush
        from repro.core.aggregation import AggregationMessage
        from repro.core.messages import Propose, Request, Serve
        from repro.core.size_estimation import (SizeEstimateMessage,
                                                SizeEstimateReply)
        from repro.freeriders.detection import AuditReport
        from repro.membership.peer_sampling import ShuffleReply, ShuffleRequest

        classes = [Propose, Request, Serve, AggregationMessage,
                   SizeEstimateMessage, SizeEstimateReply, ShuffleRequest,
                   ShuffleReply, AuditReport, TreePush]
        ids = [cls.kind_id for cls in classes]
        assert len(set(ids)) == len(ids)
        for cls in classes:
            assert kind_name(cls.kind_id) == cls.kind
            assert intern_kind(cls.kind) == cls.kind_id


class TestSlottedProtocolObjects:
    """The tentpole's memory contract: no per-instance __dict__ on node
    classes, payload messages, or the fabric's stats record."""

    def _assert_slotted(self, obj):
        assert not hasattr(obj, "__dict__"), type(obj).__name__

    def test_payload_messages_are_slotted(self):
        from repro.core.aggregation import AggregationMessage
        from repro.core.messages import Propose, Request, Serve
        from repro.membership.peer_sampling import ShuffleReply, ShuffleRequest

        for payload in (Propose([1]), Request([1]), Serve([]),
                        AggregationMessage([]), ShuffleRequest([]),
                        ShuffleReply([])):
            self._assert_slotted(payload)

    def test_stats_records_are_slotted(self):
        from repro.net.stats import NetworkStats

        self._assert_slotted(NetworkStats())

    def test_gossip_nodes_are_slotted(self):
        import random

        from repro.core.config import GossipConfig
        from repro.core.heap import HeapGossipNode
        from repro.core.standard import StandardGossipNode
        from repro.membership.directory import MembershipDirectory
        from repro.net.network import Network
        from repro.sim.engine import Simulator

        sim = Simulator()
        net = Network(sim)
        directory = MembershipDirectory(sim, random.Random(0),
                                        mean_detection_delay=0.0)
        directory.register_all(range(4))
        config = GossipConfig(randomize_phase=False)
        for node_class in (StandardGossipNode, HeapGossipNode):
            node = node_class(sim, net, 0, directory.view_of(0), config,
                              random.Random(1), 1e6)
            self._assert_slotted(node)
