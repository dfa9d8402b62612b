"""Unit tests for GossipConfig validation and defaults."""

import dataclasses

import pytest

from repro.core.config import GossipConfig


def test_defaults_match_paper():
    config = GossipConfig()
    config.validate()
    assert config.fanout == 7.0
    assert config.gossip_period == 0.2
    assert config.aggregation_period == 0.2
    assert config.aggregation_fresh_count == 10
    assert config.retransmission


def test_config_is_frozen():
    config = GossipConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.fanout = 3.0


@pytest.mark.parametrize("overrides", [
    {"fanout": 0.5},
    {"gossip_period": 0.0},
    {"retransmission_period": -1.0},
    {"retransmission_retries": -1},
    {"min_fanout": -1.0},
    {"max_fanout": -2.0},
    {"min_fanout": 5.0, "max_fanout": 2.0},
    {"fanout_rounding": "banker"},
    {"aggregation_period": 0.0},
    {"aggregation_fresh_count": 0},
    {"aggregation_sample_ttl": 0.0},
    {"aggregation_fanout": 0},
])
def test_invalid_configs_rejected(overrides):
    config = dataclasses.replace(GossipConfig(), **overrides)
    with pytest.raises(ValueError):
        config.validate()


def test_max_fanout_zero_means_uncapped():
    config = dataclasses.replace(GossipConfig(), min_fanout=2.0, max_fanout=0.0)
    config.validate()  # must not raise
