"""Sharded execution: one scenario's population across worker shards.

Sharding is an execution strategy with a byte-parity guarantee, not a
speed path: a sharded run's metric summaries are byte-identical to the
serial run's, for any shard count and start method.  The node population
is partitioned round-robin over ``config.shards`` shards.  Every shard
builds the **entire** scenario — setup is cheap and must consume the
shared setup streams in serial order so each shard assigns the same
capacities, views and phases — but starts only the nodes it owns.
Delivery is where the partition becomes real: a :class:`ShardRouter`
(the pluggable delivery router of :mod:`repro.net.router`) keeps
owned-destination datagrams on the exact in-process path and appends
remote-destination datagrams as row tuples to per-target-shard outboxes.

**Time synchronization** is conservative, with the latency model's lower
bound as lookahead: a datagram sent at time *t* cannot arrive before
``t + lookahead``, so shards run in lockstep windows of that width and
exchange outboxes at every boundary — any message a shard receives at a
barrier is scheduled strictly inside a *future* window, never a past
one.  No rollback, no speculation.

**Determinism.** Nothing observable depends on the global event order
that sharding gives up:

* all protocol randomness is drawn from per-node forked streams;
* network randomness must be order-independent, which is why sharded
  scenarios require ``latency_rng="per-pair"`` (per-link streams) and,
  when lossy, ``loss_rng="per-pair"`` (per-link Bernoulli trials —
  ``ScenarioConfig.validate`` enforces both);
* receiver-side stats are commutative counters, merged per shard.

**Membership churn** is *replicated*: every shard builds the whole
scenario, so every shard holds an identical copy of the churn stream
(and, where gossip reads directory views, the detection stream) and
draws the same victims, the same detection delays, at the same simulated
times — crash state (``Network._crash_time``, the alive set, survivors'
views) stays serial-exact on every
shard without any crash needing to cross the partition for correctness.
What *does* cross is verification: the victim's owner shard announces
each crash as a **control row** in its window outboxes — a tuple whose
first field is ``EVENT_CRASH``, negative precisely because payload kind
ids are not — and every peer shard checks the announcement against its
replica at the barrier, raising loudly if the replicas ever diverged
instead of silently computing garbage.

**The freerider audit** shards by ownership: a node's detector runs
wholly on its owner shard (audit randomness comes from per-node forked
streams, and the reports it merges are ordinary datagrams that already
cross the partition), and each shard's harvest carries picklable
detector snapshots so merged results compute convictions from the full
population's evidence, not per-shard fragments.

**Wire format.**  A window's outbox to one peer shard is one
``pickle.dumps`` of its rows::

    [(kind_id, src, dst, size_bytes, payload, send_time, exit_time,
      arrival_time), ...]

so serialization is paid once per (window, peer shard), and pickle's
memo does the multicast sharing: a ``send_many`` fan-out whose
destinations cross a shard boundary references one payload object from
several rows, which the dump writes once and references afterwards —
the receiving shard's rows share one decoded object again.  This is
safe because payloads are immutable once sent (see
:class:`repro.net.message.Payload`).

The interned integer kind id (the dispatch currency) is the routing
tag; workers handshake their kind-id registries at startup so an id
means the same payload class in every process, and :meth:`inject`
validates the tag against every decoded payload.

What crosses the wire is accounted in the
:class:`~repro.net.stats.NetworkStats` ``wire_*`` counters (buffers,
envelopes, serialized bytes, control rows), so the barrier's cost is a
measurable number instead of a wall-clock mystery.
"""

from __future__ import annotations

import pickle
import traceback
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.experiments.runner import (ExperimentResult, build_scenario,
                                      merge_harvests)
from repro.faults.failures import ShardFailure
from repro.faults.supervise import Supervisor, default_start_method
from repro.net.message import Envelope, kind_name, registered_kinds
from repro.net.router import InprocRouter
from repro.workloads.scenario import ScenarioConfig

#: First field of a control row announcing a crash:
#: (EVENT_CRASH, node_id, origin_shard, event_time).  Payload kind ids
#: are non-negative, so a negative first field marks the row as control,
#: not datagram.
EVENT_CRASH = -1


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


class ShardRouter(InprocRouter):
    """Delivery router for one shard of a partitioned population.

    Owned destinations take the inherited in-process path (one event
    and one ``deliver`` per datagram — identical semantics to a serial
    run).  Remote destinations accumulate as row tuples in
    per-target-shard outboxes, pickled once per peer at the next window
    barrier; the sending side's stats were already accounted by
    ``Network.send``, so a forwarded envelope costs the receiver shard
    exactly what a local delivery would.
    """

    __slots__ = ("owned", "shards", "shard_index", "_rows", "_crashes_seen")

    def __init__(self, owned: Set[int], shards: int):
        super().__init__()
        self.owned = owned
        self.shards = shards
        #: This shard's index, recovered from the round-robin partition.
        self.shard_index = shard_of(min(owned), shards) if owned else 0
        #: Crashes this shard's *replica* produced: node_id -> crash
        #: time.  Owner announcements arriving at a barrier are verified
        #: against this record.
        self._crashes_seen: Dict[int, float] = {}
        #: The window's rows per target shard: datagram rows and control
        #: rows, in the order they happened.
        self._rows: List[list] = [[] for _ in range(shards)]

    def route(self, envelope: Envelope) -> None:
        dst = envelope.dst
        if dst in self.owned:
            InprocRouter.route(self, envelope)
            return
        payload = envelope.payload
        self._rows[dst % self.shards].append((
            payload.kind_id, envelope.src, dst, envelope.size_bytes, payload,
            envelope.send_time, envelope._exit_time, envelope.arrival_time))
        self._net.stats.wire_envelopes += 1

    def on_crash(self, node_id: int, event_time: float) -> None:
        """Record a replicated crash; announce it if ``node_id`` is owned.

        Called by the scenario's churn machinery on *every* shard (churn
        is replicated, see the module docstring).  Each shard records the
        crash as what its replica computed; the shard owning ``node_id``
        additionally emits a control row to every peer shard, which peers
        verify against their own record at the barrier.
        """
        self._crashes_seen[node_id] = event_time
        if node_id not in self.owned:
            return
        row = (EVENT_CRASH, node_id, self.shard_index, event_time)
        stats = self._net.stats
        for shard in range(self.shards):
            if shard != self.shard_index:
                self._rows[shard].append(row)
                stats.wire_control_rows += 1

    def _check_crash(self, node_id: int, origin_shard: int,
                     event_time: float) -> None:
        """Verify an owner shard's announcement against our replica."""
        recorded = self._crashes_seen.get(node_id)
        if recorded == event_time:
            return
        local = ("never produced it" if recorded is None
                 else f"produced it at t={recorded}")
        raise RuntimeError(
            f"membership divergence: shard {origin_shard} announced "
            f"crash of node {node_id} at t={event_time}, but shard "
            f"{self.shard_index}'s replica {local} — replicated churn "
            f"streams are out of sync")

    def take_outboxes(self) -> List[List[bytes]]:
        """Drain and return the per-target-shard outboxes.

        Called at a window barrier: each target shard's rows become one
        pickled buffer (``[blob]``), or nothing (``[]``) when the window
        queued no row for it.
        """
        out: List[List[bytes]] = []
        for shard in range(self.shards):
            rows = self._rows[shard]
            if not rows:
                out.append([])
                continue
            blob = pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)
            stats = self._net.stats
            stats.wire_buffers += 1
            stats.wire_bytes += len(blob)
            out.append([blob])
            self._rows[shard] = []
        return out

    def inject(self, wires: Iterable[bytes]) -> None:
        """Schedule the rows received from other shards, in row order.

        Called at a window barrier; the conservative lookahead
        guarantees every arrival time lies strictly beyond the shard's
        current clock.  A wire that does not unpickle raises (which a
        shard worker reports, so the coordinator sees a ``ShardFailure``,
        not a hang).  Crash control rows are verified against this
        shard's replica, never re-applied (the replica already applied
        the crash — see the module docstring).
        """
        arrived = Envelope.arrived
        for wire in wires:
            for row in pickle.loads(wire):
                if row[0] < 0:
                    self._check_crash(*row[1:])
                    continue
                (kind_id, src, dst, size, payload, send_time, exit_time,
                 arrival) = row
                _check_kind(payload, kind_id)
                # Decoded rows are owned here by construction.
                InprocRouter.route(self, arrived(
                    src, dst, payload, size, send_time, exit_time, arrival))


# ----------------------------------------------------------------------
# per-shard execution (used by both the serial and the process driver)
# ----------------------------------------------------------------------
class _ShardRun:
    """One shard's build plus its windowed-execution state."""

    __slots__ = ("owned", "router", "build")

    def __init__(self, config: ScenarioConfig, shard_index: int):
        self.owned = partition(config.n_nodes, config.shards, shard_index)
        self.router = ShardRouter(self.owned, config.shards)
        self.build = build_scenario(config, owned=self.owned,
                                    router=self.router)

    def run_window(self, until: float) -> List[list]:
        self.build.sim.run(until=until)
        return self.router.take_outboxes()


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
    return [run.build.harvest(run.owned) for run in runs]


# ----------------------------------------------------------------------
# process driver: one worker process per shard, coordinator as message hub
# ----------------------------------------------------------------------
def _shard_worker(conn, config: ScenarioConfig, shard_index: int,
                  end: float) -> None:
    """Worker entry point (module-level: importable under spawn)."""
    try:
        run = _ShardRun(config, shard_index)
        conn.send(("hello", registered_kinds()))
        lookahead = _lookahead(config)
        for t in _windows(end, lookahead):
            conn.send(("window", t, run.run_window(t)))
            tag, inbound = conn.recv()
            if tag != "deliver":  # pragma: no cover - protocol error
                raise RuntimeError(f"unexpected coordinator message {tag!r}")
            run.router.inject(inbound)
        conn.send(("done", run.build.harvest(run.owned)))
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
                        start_method: Optional[str]) -> List[dict]:
    """Spawn one worker per shard and relay their window exchanges.

    The gather at each barrier waits through the
    :class:`~repro.faults.supervise.Supervisor`: a worker that exits, or
    reports an error (such as a wire buffer that does not unpickle),
    surfaces at once as a structured
    :class:`~repro.faults.failures.ShardFailure` (which shard, which
    window, last barrier reached) instead of deadlocking the barrier.
    """
    import multiprocessing

    ctx = multiprocessing.get_context(start_method or default_start_method())
    shards = config.shards
    supervisor = Supervisor(ctx, target=_shard_worker, name="repro-shard")
    last_barrier = -1

    def _gather(window_index: int) -> List[tuple]:
        """Wait until every shard has sent its frame for this barrier."""
        frames = {}  # worker -> its frame
        while len(frames) < shards:
            silent = [worker for worker in workers if worker not in frames]
            for worker, event, value in supervisor.wait(silent):
                if event == "message" and value[0] != "error":
                    frames[worker] = value
                    continue
                if event == "message":
                    reason, detail = "failed", value[1]
                else:
                    reason, detail = "exited", f"worker exit code {value}"
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
        # Reap before returning or raising: the surviving shards would
        # otherwise outlive the failure.
        supervisor.close()


def run_sharded(config: ScenarioConfig, until: Optional[float] = None,
                start_method: Optional[str] = None,
                processes: Optional[bool] = None) -> ExperimentResult:
    """Run one scenario partitioned across ``config.shards`` shards.

    Returns a merged ``ExperimentResult`` whose metric summaries are
    byte-identical to the serial run of the same scenario.  That parity
    is the guarantee; speed is not: every shard builds the whole
    scenario and meets its peers at every window barrier, so 2 shards
    at 1k nodes run about as fast as serial and hold more memory.

    ``processes=None`` picks worker processes — also inside a grid
    worker, so ``run_grid(jobs=N)`` over ``shards=M`` cells runs up to
    N x M shard processes — except on single-CPU hosts, where extra
    processes can only add overhead and the in-process serial driver
    runs instead.  ``start_method`` pins the multiprocessing start
    method (tests use ``"spawn"`` to prove the workers' builds are
    import-clean).

    A shard worker that exits or fails raises a structured
    :class:`~repro.faults.failures.ShardFailure` once, instead of
    hanging the barrier; the run is not retried, since a deterministic
    scenario would fail the same way again.
    """
    config.validate()
    if config.shards <= 1:
        raise ValueError("run_sharded needs config.shards > 1")
    end = until if until is not None else config.end_time
    if processes is None:
        from repro.experiments.parallel import _available_cpus

        processes = _available_cpus() > 1 or start_method is not None
    if processes:
        harvests = _run_process_shards(config, end, start_method)
    else:
        harvests = _run_serial_shards(config, end)
    return merge_harvests(config, harvests)
