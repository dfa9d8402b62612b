"""Post-run freerider analysis: convictions, accuracy, impact.

Conviction is by quorum: a peer is convicted when at least
``quorum_fraction`` of the surviving honest detectors flag it.  The
accuracy helpers compare convictions against the planted ground truth
(:attr:`ExperimentResult.freerider_ids`); the impact helpers quantify
what freeriding costs the honest population — the degradation the
paper's §5 worries about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

from repro.analysis.stats import mean
from repro.experiments.runner import ExperimentResult


def convictions(result: ExperimentResult, ratio_threshold: float = 0.5,
                min_samples: int = 30, min_reporters: int = 3,
                quorum_fraction: float = 0.5) -> Set[int]:
    """Peers convicted by a quorum of honest detectors."""
    if not result.detectors:
        return set()
    freeriders = set(result.freerider_ids)
    honest_detectors = [detector for node_id, detector in result.detectors.items()
                        if node_id not in freeriders
                        and node_id not in result.crash_times]
    if not honest_detectors:
        return set()
    votes: Dict[int, int] = {}
    for detector in honest_detectors:
        for suspect in detector.suspects(ratio_threshold, min_samples,
                                         min_reporters):
            votes[suspect] = votes.get(suspect, 0) + 1
    needed = max(1, int(quorum_fraction * len(honest_detectors)))
    return {peer for peer, count in votes.items() if count >= needed}


@dataclass
class DetectionAccuracy:
    """Precision/recall of a conviction set against ground truth."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        convicted = self.true_positives + self.false_positives
        if convicted == 0:
            return 1.0
        return self.true_positives / convicted

    @property
    def recall(self) -> float:
        actual = self.true_positives + self.false_negatives
        if actual == 0:
            return 1.0
        return self.true_positives / actual


def detection_accuracy(result: ExperimentResult,
                       convicted: Set[int]) -> DetectionAccuracy:
    actual = set(result.freerider_ids)
    return DetectionAccuracy(
        true_positives=len(convicted & actual),
        false_positives=len(convicted - actual),
        false_negatives=len(actual - convicted),
    )


def contribution_index(result: ExperimentResult, node_id: int) -> float:
    """Packets served over packets consumed for one node.

    ~1.0 means the node gave as much as it took; under-claimers sit far
    below their capability class's typical value.  Note an honest poor
    node also sits below 1.0 — the ambiguity that makes freerider
    tracking hard (see :mod:`repro.freeriders.detection`).
    """
    node = result.nodes[node_id]
    consumed = len(node.log)
    if consumed == 0:
        return 0.0
    return node.packets_served / consumed


def honest_vs_freerider_contribution(result: ExperimentResult) -> Dict[str, float]:
    """Mean contribution index of honest receivers vs freeriders."""
    freeriders = set(result.freerider_ids)
    honest = [contribution_index(result, node_id)
              for node_id in result.receiver_ids() if node_id not in freeriders]
    riders = [contribution_index(result, node_id)
              for node_id in result.receiver_ids() if node_id in freeriders]
    return {
        "honest": mean(honest) if honest else float("nan"),
        "freeriders": mean(riders) if riders else float("nan"),
    }
