"""Membership substrate.

The paper assumes each node can select gossip targets uniformly at random
among all (believed-alive) nodes, and that after a crash "surviving nodes
learn about the failure an average of 10 s after it happened".  This
package provides:

* :class:`~repro.membership.view.LocalView` — one node's current belief
  about who is alive, with uniform sampling;
* :class:`~repro.membership.directory.Membership` — global truth: the
  roster, the alive set and crash victims;
* :class:`~repro.membership.directory.MembershipDirectory` — that truth
  plus full-membership views with per-survivor delayed failure
  notification;
* :class:`~repro.membership.selector.UniformSelector` and
  :class:`~repro.membership.selector.CapabilityBiasedSelector` — the
  paper's uniform selection and the source-bias extension of its §5;
* :class:`~repro.membership.peer_sampling.PeerSamplingService` — an
  optional Cyclon-style shuffling partial-view service, for experiments
  that do not want the full-membership assumption.
"""

from repro.membership.directory import Membership, MembershipDirectory
from repro.membership.peer_sampling import PeerSamplingService
from repro.membership.selector import CapabilityBiasedSelector, UniformSelector
from repro.membership.view import LocalView

__all__ = [
    "CapabilityBiasedSelector",
    "LocalView",
    "Membership",
    "MembershipDirectory",
    "PeerSamplingService",
    "UniformSelector",
]
