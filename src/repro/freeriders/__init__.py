"""Freeriding and freerider tracking.

The paper's §5 identifies HEAP's incentive weakness: "the very fact that
nodes advertise their capabilities may trigger freeriding vocations,
where nodes would pretend to be poor in order not to contribute", and
announces "a freerider-tracking protocol for gossip in order to detect
and punish freeriding behaviors" (their follow-up work, published as
*On Tracking Freeriders in Gossip Protocols*).  The freeriding node
variants themselves — capability *under-claimers* and *non-servers* —
live in the pluggable attack catalog (:mod:`repro.adversary`) as the
``underclaim``/``nonserve`` attacks; this package is the tracking side:

* :mod:`repro.freeriders.detection` — a gossip-based statistical audit:
  nodes score the peers they pull from by answered/asked ratio, gossip
  their local audit reports, and accumulate global suspicion scores that
  separate freeriders from honest-but-poor nodes;
* :mod:`repro.freeriders.analysis` — convictions, detection accuracy and
  contribution indices over a finished run.
"""

from repro.freeriders.detection import AuditReport, FreeriderDetector, PeerScore

__all__ = [
    "AuditReport",
    "FreeriderDetector",
    "PeerScore",
]
