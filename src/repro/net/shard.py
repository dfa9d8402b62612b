"""Sharded single-scenario execution: one large run across worker shards.

The parallel grid engine (PR 1) scales *across* runs; this module scales
*within* one.  The node population is partitioned round-robin over
``config.shards`` shards.  Every shard builds the **entire** scenario —
setup is cheap and must consume the shared setup streams in serial order
so each shard assigns the same capacities, views and phases — but starts
only the nodes it owns.  Delivery is where the partition becomes real: a
:class:`ShardRouter` (the pluggable delivery router of
:mod:`repro.net.router`) keeps owned-destination datagrams on the exact
in-process path and serializes remote-destination datagrams into
kind-id-tagged header rows collected in per-target-shard outboxes.

**Time synchronization** is conservative, with the latency model's lower
bound as lookahead: a datagram sent at time *t* cannot arrive before
``t + lookahead``, so shards run in lockstep windows of that width and
exchange outboxes at every boundary — any message a shard receives at a
barrier is scheduled strictly inside a *future* window, never a past
one.  No rollback, no speculation.

**Determinism.** A sharded run produces byte-identical metric summaries
to the serial run of the same scenario, because nothing observable
depends on the global event order that sharding gives up:

* all protocol randomness is drawn from per-node forked streams;
* network randomness must be order-independent, which is why sharded
  scenarios require ``latency_rng="per-pair"`` (per-link streams) and,
  when lossy, ``loss_rng="per-pair"`` (per-link Bernoulli trials —
  ``ScenarioConfig.validate`` enforces both);
* receiver-side stats are commutative counters, merged per shard.

**Membership churn** is *replicated*: every shard builds the whole
scenario, so every shard holds an identical copy of the churn and
detection streams and draws the same victims, the same detection delays,
at the same simulated times — crash state (``Network._crash_time``, the
directory's alive set, survivors' views) stays serial-exact on every
shard without any crash needing to cross the partition for correctness.
What *does* cross is verification: the victim's owner shard announces
each crash as a **control row** riding the packed window buffer
(``EVENT_CRASH`` in the ``kind_id`` field, which is negative precisely
because payload kind ids are not), and every peer shard checks the
announcement against its replica at the barrier, raising loudly if the
replicas ever diverged instead of silently computing garbage.

**The freerider audit** shards by ownership: a node's detector runs
wholly on its owner shard (audit randomness comes from per-node forked
streams, and the reports it merges are ordinary datagrams that already
cross the partition), and each shard's harvest carries picklable
detector snapshots so merged results compute convictions from the full
population's evidence, not per-shard fragments.

**Wire format.**  A whole window's outbox to one peer shard is *batched*
into a single packed buffer::

    (WIRE_BATCH_TAG, n_rows,
     header_table,    # n_rows struct-packed rows of
                      #   (kind_id, src, dst, size_bytes, payload_ref,
                      #    send_time, exit_time, arrival_time)
     payload_pool)    # ONE pickle of the list of distinct payloads

so serialization is paid once per (window, peer shard) instead of once
per datagram, and *multicast payloads are interned*: a ``send_many``
fan-out whose destinations cross a shard boundary ships its payload
object once per peer shard — each header row references it by pool index
— not once per destination.  The pool pickle also shares class/global
references across same-kind payloads, which individual per-envelope
pickles re-encode every time.  Interning keys on object identity, which
is safe because payloads are immutable once sent (see
:class:`repro.net.message.Payload`) and the pool holds them alive until
the barrier packs the buffer.

The interned integer kind id (PR 3's dispatch currency) is the routing
tag; workers handshake their kind-id registries at startup so an id
means the same payload class in every process, and the decoder
validates the tag against the unpickled payload.

What crosses the wire is accounted in the
:class:`~repro.net.stats.NetworkStats` ``wire_*`` counters (buffers,
envelopes, serialized bytes, payload bytes before/after interning), so
the barrier's cost is a measurable number instead of a wall-clock
mystery.
"""

from __future__ import annotations

import os
import pickle
import struct
import sys
import traceback
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.faults import clock
from repro.faults.failures import ShardFailure
from repro.faults.inject import SHARD_EXIT_CODE
from repro.faults.policy import ShardSupervision, default_shard_supervision
from repro.faults.supervise import Supervisor, default_start_method
from repro.net.message import Envelope, kind_name, registered_kinds
from repro.net.router import InprocRouter
from repro.net.stats import NetworkStats
from repro.workloads.scenario import ScenarioConfig

#: First element of a packed window buffer — the only thing
#: :meth:`ShardRouter.inject` accepts.
WIRE_BATCH_TAG = -1

#: Ownership-level membership events.  They ride the packed buffer's
#: header table in the ``kind_id`` field — payload kind ids are
#: non-negative, so a negative id marks the row as control, not
#: datagram: (event, node_id, origin_shard, 0, _NO_PAYLOAD, event_time,
#: 0.0, 0.0).
EVENT_CRASH = -2
#: Reserved for a join protocol (nodes entering mid-run).
EVENT_JOIN = -3

_EVENT_NAMES = {EVENT_CRASH: "crash", EVENT_JOIN: "join"}

#: ``payload_ref`` of a control row: references no pool entry.
_NO_PAYLOAD = -1

#: One header-table row of a packed buffer:
#: (kind_id, src, dst, size_bytes, payload_ref, send_time, exit_time,
#: arrival_time).
_ROW = struct.Struct("<iiiiiddd")

#: A packed window buffer: (WIRE_BATCH_TAG, n_rows, header_table, pool_blob).
WireBatch = Tuple[int, int, bytes, bytes]

_PICKLE = pickle.HIGHEST_PROTOCOL


def shard_of(node_id: int, shards: int) -> int:
    """The shard owning ``node_id`` (round-robin keeps capability classes
    balanced across shards, since assignment order is index-driven)."""
    return node_id % shards


def partition(n_nodes: int, shards: int, shard_index: int) -> Set[int]:
    """The node ids owned by one shard."""
    return set(range(shard_index, n_nodes, shards))


def _check_kind(payload, kind_id: int) -> None:
    """Validate an unpickled payload against its wire kind tag."""
    if payload.kind_id != kind_id:
        raise ValueError(
            f"cross-shard kind mismatch: wire tag {kind_id} "
            f"({kind_name(kind_id)!r}) vs payload {payload.kind_id} "
            f"({payload.kind!r}) — worker kind registries diverged")


def _decode_batch(batch: WireBatch, on_control=None) -> Iterator[Envelope]:
    """Decode a packed window buffer into envelopes, in row order.

    One ``pickle.loads`` rebuilds the payload pool; every header row then
    costs a struct unpack plus one envelope construction — no per-row
    pickling.  Scheduling is the caller's (:meth:`ShardRouter.inject`
    routes each envelope as it is yielded).

    Control rows (negative ``kind_id``) are not envelopes: they are
    handed to ``on_control(event, node_id, origin_shard, event_time)``
    in row order and never yielded.  A buffer containing control rows
    decoded without a handler is a protocol error.
    """
    _tag, n_rows, header, blob = batch
    if len(header) != n_rows * _ROW.size:
        raise ValueError(
            f"corrupt cross-shard buffer: {n_rows} rows declared but "
            f"{len(header)} header bytes ({_ROW.size} per row)")
    payloads = pickle.loads(blob)
    arrived = Envelope.arrived
    for (kind_id, src, dst, size, ref, send_time, exit_time,
         arrival) in _ROW.iter_unpack(header):
        if kind_id < 0:
            if on_control is None:
                raise ValueError(
                    f"control row ({_EVENT_NAMES.get(kind_id, kind_id)!r} "
                    f"of node {src}) in a buffer decoded without a "
                    f"control handler")
            on_control(kind_id, src, dst, send_time)
            continue
        payload = payloads[ref]
        _check_kind(payload, kind_id)
        yield arrived(src, dst, payload, size, send_time, exit_time, arrival)


class ShardRouter(InprocRouter):
    """Delivery router for one shard of a partitioned population.

    Owned destinations take the inherited in-process path (one event
    and one ``deliver`` per datagram — identical semantics to a serial
    run).  Remote destinations accumulate in per-target-shard outboxes
    exchanged at the next window barrier; the sending side's stats were
    already accounted by ``Network.send``, so a forwarded envelope costs
    the receiver shard exactly what a local delivery would.

    A window's outbox to one peer shard is packed into a single buffer —
    struct rows at route time, one payload-pool pickle at the barrier,
    multicast payloads interned by object identity (see the module
    docstring).
    """

    __slots__ = ("owned", "shards", "shard_index", "_rows", "_pools",
                 "_interned", "_refcounts", "_membership_seen",
                 "_row_controls")

    def __init__(self, owned: Set[int], shards: int):
        super().__init__()
        self.owned = owned
        self.shards = shards
        #: This shard's index, recovered from the round-robin partition.
        self.shard_index = shard_of(min(owned), shards) if owned else 0
        #: Membership events this shard's *replica* produced:
        #: (event, node_id) -> event time.  Owner announcements arriving
        #: at a barrier are verified against this record.
        self._membership_seen: Dict[Tuple[int, int], float] = {}
        #: All per target shard: packed header rows, the distinct
        #: payloads in first-reference order, the identity intern map
        #: id(payload) -> pool index (the pool's strong reference pins
        #: the id until the barrier clears both), and the
        #: per-pool-entry reference counts feeding the before-interning
        #: byte counter.
        self._rows: List[List[bytes]] = [[] for _ in range(shards)]
        self._pools: List[list] = [[] for _ in range(shards)]
        self._interned: List[Dict[int, int]] = [{} for _ in range(shards)]
        self._refcounts: List[List[int]] = [[] for _ in range(shards)]
        #: Control rows among ``_rows`` this window, per target shard
        #: (they ride the header table but are not envelopes, so the
        #: wire_envelopes counter must not include them).
        self._row_controls: List[int] = [0] * shards

    def route(self, envelope: Envelope) -> None:
        dst = envelope.dst
        if dst in self.owned:
            InprocRouter.route(self, envelope)
            return
        shard = dst % self.shards
        payload = envelope.payload
        interned = self._interned[shard]
        key = id(payload)
        ref = interned.get(key)
        if ref is None:
            pool = self._pools[shard]
            ref = len(pool)
            interned[key] = ref
            pool.append(payload)
            self._refcounts[shard].append(1)
        else:
            self._refcounts[shard][ref] += 1
        self._rows[shard].append(_ROW.pack(
            payload.kind_id, envelope.src, dst, envelope.size_bytes, ref,
            envelope.send_time, envelope._exit_time,
            envelope.arrival_time))

    def on_membership_event(self, event: int, node_id: int,
                            event_time: float) -> None:
        """Record a replicated membership change; announce it if owned.

        Called by the scenario's churn machinery on *every* shard (churn
        is replicated, see the module docstring).  Each shard records the
        event as what its replica computed; the shard owning ``node_id``
        additionally emits a control row to every peer shard, which peers
        verify against their own record at the barrier.
        """
        self._membership_seen[(event, node_id)] = event_time
        if node_id not in self.owned:
            return
        stats = self._net.stats
        for shard in range(self.shards):
            if shard == self.shard_index:
                continue
            self._rows[shard].append(_ROW.pack(
                event, node_id, self.shard_index, 0, _NO_PAYLOAD,
                event_time, 0.0, 0.0))
            self._row_controls[shard] += 1
            stats.wire_control_rows += 1

    def _check_membership(self, event: int, node_id: int, origin_shard: int,
                          event_time: float) -> None:
        """Verify an owner shard's announcement against our replica."""
        recorded = self._membership_seen.get((event, node_id))
        if recorded == event_time:
            return
        name = _EVENT_NAMES.get(event, repr(event))
        local = ("never produced it" if recorded is None
                 else f"produced it at t={recorded}")
        raise RuntimeError(
            f"membership divergence: shard {origin_shard} announced "
            f"{name} of node {node_id} at t={event_time}, but shard "
            f"{self.shard_index}'s replica {local} — replicated churn "
            f"streams are out of sync")

    def take_outboxes(self) -> List[List[WireBatch]]:
        """Drain and return the per-target-shard outboxes.

        Called at a window barrier.  Freezes the window's accumulated
        rows/pools into at most one packed buffer per target shard (this
        is where the pool pickle and the wire counters are paid).
        """
        dumps = pickle.dumps
        out: List[List[WireBatch]] = []
        for shard in range(self.shards):
            rows = self._rows[shard]
            if not rows:
                out.append([])
                continue
            stats = self._net.stats
            pool = self._pools[shard]
            header = b"".join(rows)
            blob = dumps(pool, protocol=_PICKLE)
            stats.wire_buffers += 1
            stats.wire_envelopes += len(rows) - self._row_controls[shard]
            stats.wire_bytes += len(header) + len(blob)
            stats.wire_payload_bytes += len(blob)
            # What a per-envelope wire format would ship: every
            # reference pickled individually.  Identical payloads pickle
            # to identical blobs, so refcount * individual size is exact.
            # Costs one extra dumps per *distinct* payload per window —
            # a small fraction of a window's simulation work, and the
            # price of the counter being a measurement, not an estimate.
            stats.wire_payload_bytes_before += sum(
                count * len(dumps(payload, protocol=_PICKLE))
                for payload, count in zip(pool, self._refcounts[shard]))
            out.append([(WIRE_BATCH_TAG, len(rows), header, blob)])
            self._rows[shard] = []
            self._pools[shard] = []
            self._interned[shard] = {}
            self._refcounts[shard] = []
            self._row_controls[shard] = 0
        return out

    def inject(self, wires: Iterable) -> None:
        """Schedule envelopes received from other shards.

        Called at a window barrier; the conservative lookahead
        guarantees every arrival time lies strictly beyond the shard's
        current clock.  Only packed window buffers are a wire format:
        anything else raises ``ValueError`` (which a shard worker
        reports, so the coordinator sees a ``ShardFailure``, not a
        hang).  Membership control rows are verified against this
        shard's replica, never re-applied (the replica already applied
        the change — see the module docstring).
        """
        for wire in wires:
            if wire[0] != WIRE_BATCH_TAG:
                raise ValueError(
                    f"corrupt cross-shard buffer: unknown wire tag "
                    f"{wire[0]!r} (expected {WIRE_BATCH_TAG})")
            for envelope in _decode_batch(wire, self._check_membership):
                # Decoded rows are owned here by construction.
                InprocRouter.route(self, envelope)


# ----------------------------------------------------------------------
# per-shard execution (used by both the serial and the process driver)
# ----------------------------------------------------------------------
class _ShardRun:
    """One shard's build plus its windowed-execution state."""

    __slots__ = ("shard_index", "owned", "router", "build")

    def __init__(self, config: ScenarioConfig, shard_index: int):
        from repro.experiments.runner import build_scenario

        self.shard_index = shard_index
        self.owned = partition(config.n_nodes, config.shards, shard_index)
        self.router = ShardRouter(self.owned, config.shards)
        self.build = build_scenario(config, owned=self.owned,
                                    router=self.router)

    def run_window(self, until: float) -> List[list]:
        self.build.sim.run(until=until)
        return self.router.take_outboxes()

    def harvest(self) -> dict:
        """Everything the coordinator needs from this shard, picklable."""
        from repro.experiments.runner import _collect_attacker_stats

        build = self.build
        return {
            "shard": self.shard_index,
            "logs": {i: build.nodes[i].log for i in sorted(self.owned)},
            "uplinks": {i: build.net.uplink(i) for i in sorted(self.owned)},
            "served": {i: getattr(build.nodes[i], "packets_served", 0)
                       for i in sorted(self.owned)},
            "detectors": {i: build.detectors[i].snapshot()
                          for i in sorted(self.owned)
                          if i in build.detectors},
            # Only the owner's counters: the unstarted replicas of an
            # attacker on other shards never ran, so their zeros must not
            # reach the merge.
            "attacker_stats": _collect_attacker_stats(
                build.nodes, build.samplers, build.attackers,
                owned=self.owned),
            "attackers": build.attackers,
            # Replicated state: identical on every shard by construction;
            # the merge verifies that instead of assuming it.
            "crash_times": dict(build.crash_times),
            "stats": build.net.stats,
            "publish_times": build.publish_times,
            "labels": build.labels,
            "capacities": build.capacities,
            "freerider_ids": build.freerider_ids,
            "events_executed": build.sim.events_executed,
            "now": build.sim.now,
        }


def _windows(end: float, lookahead: float) -> Iterable[float]:
    """The window boundaries 0 < t_1 < t_2 <= ... ending exactly at ``end``."""
    t = 0.0
    while t < end:
        t = min(t + lookahead, end)
        yield t


def _lookahead(config: ScenarioConfig) -> float:
    lookahead = config.latency_floor
    if lookahead <= 0:
        raise ValueError("sharded execution needs a positive latency_floor")
    return lookahead


def window_count(config: ScenarioConfig, until: Optional[float] = None) -> int:
    """Number of window barriers a sharded run of ``config`` crosses.

    The benchmark divides the wire counters by this to report
    bytes-per-window; counting the actual boundary sequence sidesteps
    the float-accumulation drift a ``ceil(end / lookahead)`` estimate
    is exposed to.
    """
    end = until if until is not None else config.end_time
    return sum(1 for _ in _windows(end, _lookahead(config)))


# ----------------------------------------------------------------------
# serial driver: the whole windowed protocol in one process
# ----------------------------------------------------------------------
def _run_serial_shards(config: ScenarioConfig, end: float) -> List[dict]:
    """Drive every shard in-process, round-robin per window.

    Functionally identical to the process driver (same windows, same
    exchange order), without IPC: used on 1-CPU hosts and by tests that
    pin down the windowed algorithm itself.
    """
    runs = [_ShardRun(config, i) for i in range(config.shards)]
    lookahead = _lookahead(config)
    for t in _windows(end, lookahead):
        outboxes = [run.run_window(t) for run in runs]
        for target, run in enumerate(runs):
            for source in range(config.shards):
                run.router.inject(outboxes[source][target])
    return [run.harvest() for run in runs]


# ----------------------------------------------------------------------
# process driver: one worker process per shard, coordinator as message hub
# ----------------------------------------------------------------------
def _apply_shard_fault(faults, shard_index: int, window_index: int,
                       outboxes: List[list], shards: int) -> None:
    """Apply any injected shard fault due at this (shard, window).

    Runs inside the worker, just before the window message is sent —
    the exact point where a real failure is most damaging, because the
    peers are already committed to waiting at the barrier.
    """
    if faults.shard_exit is not None \
            and faults.shard_exit == (shard_index, window_index):
        os._exit(SHARD_EXIT_CODE)
    if faults.shard_stall is not None \
            and faults.shard_stall[:2] == (shard_index, window_index):
        clock.sleep(faults.shard_stall[2])
    if faults.drop_wire is not None \
            and faults.drop_wire == (shard_index, window_index):
        # Corrupt the outbox to one peer: a packed buffer whose header
        # is torn off.  The receiving shard's codec detects it (row
        # count vs header bytes) and errors — transport faults surface
        # as structured failures, never as silently lost messages.
        peer = (shard_index + 1) % shards
        outboxes[peer] = [(WIRE_BATCH_TAG, 1, b"",
                           pickle.dumps([], protocol=_PICKLE))]


def _shard_worker(conn, config: ScenarioConfig, shard_index: int,
                  end: float) -> None:
    """Worker entry point (module-level: importable under spawn)."""
    faults = config.faults
    try:
        run = _ShardRun(config, shard_index)
        conn.send(("hello", registered_kinds()))
        lookahead = _lookahead(config)
        for window_index, t in enumerate(_windows(end, lookahead)):
            outboxes = run.run_window(t)
            if faults is not None:
                _apply_shard_fault(faults, shard_index, window_index,
                                   outboxes, config.shards)
            conn.send(("window", t, outboxes))
            tag, inbound = conn.recv()
            if tag != "deliver":  # pragma: no cover - protocol error
                raise RuntimeError(f"unexpected coordinator message {tag!r}")
            run.router.inject(inbound)
        conn.send(("done", run.harvest()))
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, ValueError):  # pragma: no cover - pipe gone
            pass
    finally:
        conn.close()


def _check_kind_registries(hellos: Sequence[Tuple[str, ...]]) -> None:
    """All workers must agree on the kind-id registry, and each worker's
    registry must be a prefix of the coordinator's (the coordinator may
    have interned extra ad-hoc kinds after import time, e.g. in tests;
    workers spawned fresh only hold the import-time kinds)."""
    first = hellos[0]
    for i, kinds in enumerate(hellos[1:], start=1):
        if kinds != first:
            raise RuntimeError(
                f"shard 0 and shard {i} registered different payload "
                f"kinds; cross-shard kind ids would be ambiguous")
    mine = registered_kinds()
    if mine[:len(first)] != first:
        raise RuntimeError(
            "worker kind-id registry is not a prefix of the "
            "coordinator's; merged per-kind stats would be mislabelled")


def _run_process_shards(config: ScenarioConfig, end: float,
                        start_method: Optional[str],
                        supervision: Optional[ShardSupervision] = None,
                        ) -> List[dict]:
    """Spawn one worker per shard and relay their window exchanges.

    The gather at each barrier is *supervised*
    (:class:`~repro.faults.supervise.Supervisor`): a worker that dies
    mid-window surfaces at once as a structured
    :class:`~repro.faults.failures.ShardFailure` (which shard, which
    window, last barrier reached) instead of deadlocking the barrier
    forever, and with ``supervision.barrier_timeout`` set, a shard that
    is alive but wedged trips the deadline armed at each barrier.
    """
    import multiprocessing

    if supervision is None:
        supervision = default_shard_supervision()
    ctx = multiprocessing.get_context(start_method or default_start_method())
    shards = config.shards
    supervisor = Supervisor(ctx, target=_shard_worker, name="repro-shard")
    last_barrier = -1

    def _gather(window_index: int) -> List[tuple]:
        """Wait until every shard has sent its frame for this barrier."""
        frames = {}  # worker -> its frame
        for worker in workers:
            worker.arm(supervision.barrier_timeout)
        while len(frames) < shards:
            silent = [worker for worker in workers if worker not in frames]
            for worker, event, value in supervisor.wait(silent):
                if event == "message" and value[0] != "error":
                    frames[worker] = value
                    continue
                if event == "message":
                    reason, detail = "failed", value[1]
                elif event == "exited":
                    reason, detail = "exited", f"worker exit code {value}"
                else:
                    reason = "missed the barrier deadline"
                    detail = (f"no message within "
                              f"{supervision.barrier_timeout:g}s")
                raise ShardFailure(workers.index(worker), window_index,
                                   last_barrier, reason, detail)
        return [frames[worker] for worker in workers]

    try:
        workers = [supervisor.spawn(config, i, end) for i in range(shards)]
        hellos = _gather(-1)
        if {msg[0] for msg in hellos} != {"hello"}:  # pragma: no cover
            raise RuntimeError(
                f"shards desynchronized before the first window: "
                f"{[msg[0] for msg in hellos]}")
        _check_kind_registries([msg[1] for msg in hellos])
        window_index = 0
        while True:
            msgs = _gather(window_index)
            tags = {msg[0] for msg in msgs}
            if tags == {"done"}:
                return [msg[1] for msg in msgs]
            if tags != {"window"}:  # pragma: no cover - lockstep violation
                raise RuntimeError(
                    f"shards desynchronized: saw message tags {tags}")
            last_barrier = window_index
            # Deterministic relay: every target receives the union of
            # outboxes in shard order, each preserving its sender's
            # event order — the same order the serial driver injects in.
            inbound: List[list] = [[] for _ in range(shards)]
            for _, _, outboxes in msgs:
                for target in range(shards):
                    inbound[target].extend(outboxes[target])
            for target, worker in enumerate(workers):
                try:
                    worker.conn.send(("deliver", inbound[target]))
                except (OSError, ValueError):
                    code = supervisor.discard(worker)
                    raise ShardFailure(
                        target, window_index, last_barrier, "exited",
                        f"pipe closed during delivery (worker exit "
                        f"code {code})") from None
            window_index += 1
    finally:
        # Reap before returning or raising: a stalled survivor would
        # otherwise outlive the failure, and an injected-crash run
        # would leak live processes.
        supervisor.close()


# ----------------------------------------------------------------------
# merge: per-shard harvests -> one ExperimentResult
# ----------------------------------------------------------------------
class _MergedSim:
    """Result-facade over the per-shard simulators' final counters."""

    __slots__ = ("events_executed", "now")

    def __init__(self, events_executed: int, now: float):
        self.events_executed = events_executed
        self.now = now


class _MergedNet:
    """Result-facade exposing merged stats and the owned-shard uplinks."""

    __slots__ = ("stats", "_uplinks")

    def __init__(self, stats: NetworkStats, uplinks: Dict[int, object]):
        self.stats = stats
        self._uplinks = uplinks

    def uplink(self, node_id: int):
        return self._uplinks[node_id]

    @property
    def node_ids(self):
        return self._uplinks.keys()


class _LogHolder:
    """Stands in for a protocol node in a merged result: metrics reach
    for ``node.log``; the freerider analysis additionally for
    ``packets_served`` and ``delivered_count()``."""

    __slots__ = ("log", "packets_served")

    def __init__(self, log, packets_served: int = 0):
        self.log = log
        self.packets_served = packets_served

    def delivered_count(self) -> int:
        return len(self.log)


def merge_harvests(config: ScenarioConfig, harvests: List[dict]):
    """Assemble one :class:`~repro.experiments.runner.ExperimentResult`
    from per-shard harvests.

    Logs, uplinks, served counts and detector snapshots are disjoint by
    ownership; traffic stats are commutative sums; crash times are
    replicated state, verified equal across shards here (a mismatch
    means the replicated churn streams diverged — fail loudly rather
    than pick one).  ``events_executed`` is the sum over shards.  Every
    non-replicated event (a delivery, an owned node's timer) runs on
    exactly one shard, so for a churn-free scenario the sum equals the
    serial run's count; *replicated churn* (crashes and their detection
    notifications, applied on every shard) adds its events once per
    extra replica.
    """
    from repro.experiments.runner import ExperimentResult

    logs: Dict[int, object] = {}
    uplinks: Dict[int, object] = {}
    served: Dict[int, int] = {}
    detectors: Dict[int, object] = {}
    attacker_stats: Dict[int, Dict[str, int]] = {}
    stats = NetworkStats()
    events = 0
    now = 0.0
    crash_times = harvests[0]["crash_times"]
    attackers = harvests[0].get("attackers", {})
    for harvest in harvests:
        logs.update(harvest["logs"])
        uplinks.update(harvest["uplinks"])
        served.update(harvest.get("served", {}))
        detectors.update(harvest.get("detectors", {}))
        attacker_stats.update(harvest.get("attacker_stats", {}))
        stats.merge_from(harvest["stats"])
        events += harvest["events_executed"]
        now = max(now, harvest["now"])
        if harvest["crash_times"] != crash_times:
            raise RuntimeError(
                f"membership divergence: shard {harvest['shard']} "
                f"recorded crash times {harvest['crash_times']} but "
                f"shard {harvests[0]['shard']} recorded {crash_times}")
        if harvest.get("attackers", {}) != attackers:
            raise RuntimeError(
                f"adversary divergence: shard {harvest['shard']} placed "
                f"attackers {harvest.get('attackers', {})} but shard "
                f"{harvests[0]['shard']} placed {attackers}")
    nodes = [_LogHolder(logs[node_id], served.get(node_id, 0))
             for node_id in range(config.n_nodes)]
    source_shard = harvests[shard_of(0, config.shards)]
    return ExperimentResult(
        config,
        _MergedSim(events, now),
        _MergedNet(stats, uplinks),
        directory=None,
        nodes=nodes,
        publish_times=source_shard["publish_times"],
        capacities=harvests[0]["capacities"],
        labels=harvests[0]["labels"],
        crash_times=dict(crash_times),
        freerider_ids=harvests[0]["freerider_ids"],
        detectors=detectors,
        attackers=attackers,
        attacker_stats=attacker_stats,
    )


def run_sharded(config: ScenarioConfig, until: Optional[float] = None,
                start_method: Optional[str] = None,
                processes: Optional[bool] = None,
                supervision: Optional[ShardSupervision] = None):
    """Run one scenario partitioned across ``config.shards`` shards.

    Returns a merged ``ExperimentResult`` whose metric summaries are
    byte-identical to the serial run of the same scenario.

    ``processes=None`` picks worker processes — also inside a grid
    worker or a service executor, so ``--jobs N --shards M`` runs up to
    N x M shard processes — except on single-CPU hosts, where extra
    processes can only add overhead and the in-process serial driver
    runs instead.  ``start_method`` pins the multiprocessing start
    method (tests use ``"spawn"`` to prove the workers' builds are
    import-clean).

    ``supervision`` (default: the process-wide
    :func:`~repro.faults.policy.default_shard_supervision`) bounds how
    failure is handled: a dead or wedged shard raises a structured
    :class:`~repro.faults.failures.ShardFailure` instead of hanging the
    barrier, and the scenario is restarted from scratch up to
    ``supervision.restarts`` times — restarts strip injected faults
    (``config.faults``), and because scenarios are deterministic the
    restarted result is byte-identical to a never-faulted run.
    """
    config.validate()
    if config.shards <= 1:
        raise ValueError("run_sharded needs config.shards > 1")
    if supervision is None:
        supervision = default_shard_supervision()
    faults = config.faults
    shard_faults = faults is not None and faults.has_shard_faults
    end = until if until is not None else config.end_time
    if processes is None:
        from repro.experiments.parallel import _available_cpus

        processes = (_available_cpus() > 1 or start_method is not None
                     or shard_faults)
    if not processes:
        if shard_faults:
            raise ValueError(
                "shard fault injection needs the worker-process driver; "
                "the in-process serial driver has no workers to kill")
        harvests = _run_serial_shards(config, end)
        return merge_harvests(config, harvests)
    attempt = 0
    run_config = config
    while True:
        try:
            harvests = _run_process_shards(run_config, end, start_method,
                                           supervision=supervision)
            break
        except ShardFailure as failure:
            if attempt >= supervision.restarts:
                raise
            attempt += 1
            # The restart strips injected faults (their failure already
            # happened); determinism makes the re-run byte-identical.
            run_config = run_config.with_(faults=None)
            print(f"shard supervision: {failure}; restarting scenario "
                  f"(attempt {attempt}/{supervision.restarts})",
                  file=sys.stderr)
    return merge_harvests(run_config, harvests)
