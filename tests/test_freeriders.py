"""Tests for freeriding nodes, the audit protocol, and analysis."""

import random

import pytest

from repro import ScenarioConfig, run_scenario
from repro.adversary import AttackMix
from repro.adversary.attacks import NonServingNode, UnderclaimingNode
from repro.core.config import GossipConfig
from repro.core.messages import Request
from repro.freeriders.analysis import (
    contribution_index,
    convictions,
    detection_accuracy,
    honest_vs_freerider_contribution,
)
from repro.freeriders.detection import AuditReport, FreeriderDetector, PeerScore
from repro.membership.directory import MembershipDirectory
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.streaming.packets import StreamPacket


class TestPeerScore:
    def test_ratio_defaults_to_innocent(self):
        assert PeerScore().ratio() == 1.0

    def test_reporter_update_replaces(self):
        score = PeerScore()
        score.update(1, 10, 5)
        score.update(1, 20, 10)  # newer cumulative totals replace
        assert score.asked == 20
        assert score.answered == 10
        assert score.ratio() == 0.5

    def test_multiple_reporters_accumulate(self):
        score = PeerScore()
        score.update(1, 10, 10)
        score.update(2, 10, 0)
        assert score.ratio() == 0.5
        assert score.reporters == {1, 2}

    def test_reporter_cap(self):
        score = PeerScore(max_reporters=2)
        score.update(1, 1, 1)
        score.update(2, 1, 1)
        score.update(3, 100, 0)  # over cap: dropped
        assert 3 not in score.reporters
        assert score.ratio() == 1.0


class TestDetectorUnit:
    def make_detector(self):
        sim = Simulator()
        net = Network(sim)
        return FreeriderDetector(sim, net, 0, None, random.Random(1))

    def test_record_and_clamp(self):
        detector = self.make_detector()
        detector.record_request(5, 10)
        detector.record_serve(5, 12)  # duplicate serves: clamped to asked
        assert detector._local[5] == [10, 10]

    def test_merge_ignores_self(self):
        detector = self.make_detector()
        detector._merge(1, [(0, 100, 0)])  # about us: ignored
        assert detector.snapshot().score_of(0) is None

    def test_suspects_need_samples_and_reporters(self):
        detector = self.make_detector()
        for reporter in (1, 2, 3):
            detector._merge(reporter, [(9, 20, 2)])
        suspects = detector.snapshot().suspects(
            ratio_threshold=0.5, min_samples=30, min_reporters=3)
        assert suspects == {9}
        # Not enough reporters -> no conviction.
        detector2 = self.make_detector()
        detector2._merge(1, [(9, 100, 0)])
        assert detector2.snapshot().suspects(min_reporters=3) == set()

    def test_honest_peer_not_suspected(self):
        detector = self.make_detector()
        for reporter in (1, 2, 3, 4):
            detector._merge(reporter, [(7, 50, 48)])
        assert detector.snapshot().suspects() == set()

    def test_validation(self):
        sim = Simulator()
        net = Network(sim)
        with pytest.raises(ValueError):
            FreeriderDetector(sim, net, 0, None, random.Random(1), fanout=0)

    def test_audit_report_wire_size(self):
        report = AuditReport(1, [(2, 3, 4)] * 5)
        assert report.wire_size() == 8 + 16 * 5


class TestFreeriderNodes:
    def build(self, node_class, **kwargs):
        sim = Simulator()
        net = Network(sim)
        directory = MembershipDirectory(sim, random.Random(1),
                                        mean_detection_delay=0.0)
        directory.register_all(range(5))
        node = node_class(sim, net, 1, directory.view_of(1),
                          GossipConfig(randomize_phase=False), random.Random(2),
                          1_000_000.0, **kwargs)
        net.attach(1, node, 1_000_000.0)
        return sim, net, node

    def test_underclaimer_advertises_fraction(self):
        sim, net, node = self.build(UnderclaimingNode, claim_factor=0.25)
        assert node.capability_bps == 250_000.0
        assert node.true_capability_bps == 1_000_000.0
        # The fanout policy consumes the lie.
        assert node.aggregator.average_estimate() == 250_000.0

    def test_underclaimer_validates_factor(self):
        with pytest.raises(ValueError):
            self.build(UnderclaimingNode, claim_factor=0.0)

    def test_nonserver_drops_requests(self):
        sim, net, node = self.build(NonServingNode, serve_probability=0.0)
        packet = StreamPacket(packet_id=0, window_id=0, publish_time=0.0)
        node._deliver(packet)
        node._on_request(2, Request([0]))
        assert net.stats.count_by_kind["serve"] == 0
        assert node.requests_dropped == 1

    def test_nonserver_probability_one_is_honest(self):
        sim, net, node = self.build(NonServingNode, serve_probability=1.0)
        packet = StreamPacket(packet_id=0, window_id=0, publish_time=0.0)
        node._deliver(packet)
        node._on_request(2, Request([0]))
        assert net.stats.count_by_kind["serve"] == 1

    def test_nonserver_validates_probability(self):
        with pytest.raises(ValueError):
            self.build(NonServingNode, serve_probability=1.5)


FAST = dict(n_nodes=45, duration=10.0, drain=20.0, seed=5)


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def nonserve_result(self):
        return run_scenario(ScenarioConfig(
            protocol="heap", adversary=AttackMix.single("nonserve", 0.2, 0.2),
            audit=True, **FAST))

    def test_freeriders_planted(self, nonserve_result):
        assert len(nonserve_result.freerider_ids) == round(0.2 * 44)
        assert 0 not in nonserve_result.freerider_ids

    def test_nonservers_convicted_with_high_precision(self, nonserve_result):
        convicted = convictions(nonserve_result)
        accuracy = detection_accuracy(nonserve_result, convicted)
        assert accuracy.precision >= 0.9
        assert accuracy.recall >= 0.6

    def test_contribution_gap(self, nonserve_result):
        # Retransmissions give a request-dropper repeated chances to serve,
        # so its contribution volume degrades far less than its 20% serve
        # probability suggests — the crisp signal is the ratio audit above.
        # Volume-wise we only assert the direction.
        gap = honest_vs_freerider_contribution(nonserve_result)
        assert gap["freeriders"] < gap["honest"]

    def test_underclaimers_evade_ratio_audit(self):
        result = run_scenario(ScenarioConfig(
            protocol="heap", adversary=AttackMix.single("underclaim", 0.2, 0.1),
            audit=True, **FAST))
        convicted = convictions(result)
        accuracy = detection_accuracy(result, convicted)
        # Consistent liars: the answered/asked audit cannot see them...
        assert accuracy.recall <= 0.2
        # ...but their contribution volume betrays the behaviour.
        gap = honest_vs_freerider_contribution(result)
        assert gap["freeriders"] < 0.5 * gap["honest"]

    def test_no_freeriders_no_convictions(self):
        result = run_scenario(ScenarioConfig(
            protocol="heap", audit=True, **FAST))
        assert convictions(result) == set()

    def test_freeriders_rejected_for_standard_protocol(self):
        with pytest.raises(ValueError):
            ScenarioConfig(
                protocol="standard",
                adversary=AttackMix.single("underclaim", 0.1))

    def test_contribution_index_zero_for_empty_node(self):
        result = run_scenario(ScenarioConfig(protocol="heap", **FAST))
        # Fabricate: a node that consumed nothing has index 0.
        node = result.nodes[1]
        saved = node.log
        from repro.streaming.receiver import ReceiverLog
        node.log = ReceiverLog(1)
        try:
            assert contribution_index(result, 1) == 0.0
        finally:
            node.log = saved
