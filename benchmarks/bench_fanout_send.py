"""Microbenchmark: unicast ``send`` loop vs multicast ``send_many``.

Gossip fan-out is the network fabric's dominant send pattern (every
proposal round, aggregation exchange and audit round multicasts one
payload to k peers).  This bench drives a fan-out-heavy workload — one
sender multicasting to ``FANOUT`` receivers, round after round — through
both APIs so the per-destination overhead the multicast path removes
(wire sizing, per-kind/per-node stats dict updates) is measured in
isolation from protocol logic.

Run with pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_fanout_send.py

The smoke benchmark (``smoke_throughput.py``) runs the same comparison
without the harness and records the speedup in ``BENCH_throughput.json``.
"""

from repro.net.latency import ConstantLatency
from repro.net.message import intern_kind
from repro.net.network import Network
from repro.sim.engine import Simulator

FANOUT = 16
ROUNDS = 2000


class BenchPayload:
    kind = "fanout-bench"
    kind_id = intern_kind("fanout-bench", register=True)
    __slots__ = ()

    def wire_size(self):
        return 200


class Sink:
    __slots__ = ()

    def on_message(self, envelope):
        pass


def _build(fanout):
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.01))
    for node_id in range(fanout + 1):
        net.attach(node_id, Sink(), 1e9)
    return sim, net, list(range(1, fanout + 1))


def run_send_loop(rounds=ROUNDS, fanout=FANOUT):
    sim, net, dsts = _build(fanout)
    payload = BenchPayload()
    send = net.send
    for _ in range(rounds):
        for dst in dsts:
            send(0, dst, payload)
        sim.run()
    return sim.events_executed


def run_send_many(rounds=ROUNDS, fanout=FANOUT):
    sim, net, dsts = _build(fanout)
    payload = BenchPayload()
    send_many = net.send_many
    for _ in range(rounds):
        send_many(0, dsts, payload)
        sim.run()
    return sim.events_executed


def bench_fanout_send_loop(benchmark):
    """Per-destination send(): the pre-multicast baseline."""
    executed = benchmark(run_send_loop)
    assert executed == ROUNDS * FANOUT


def bench_fanout_send_many(benchmark):
    """send_many(): one wire-size computation + batched sender stats."""
    executed = benchmark(run_send_many)
    assert executed == ROUNDS * FANOUT


def bench_fanout_equivalence():
    """The two paths produce identical traffic accounting."""
    sim_a, net_a, dsts = _build(FANOUT)
    payload = BenchPayload()
    for dst in dsts:
        net_a.send(0, dst, payload)
    sim_a.run()
    sim_b, net_b, dsts = _build(FANOUT)
    net_b.send_many(0, dsts, payload)
    sim_b.run()
    assert net_a.stats.sent == net_b.stats.sent
    assert net_a.stats.bytes_sent == net_b.stats.bytes_sent
    assert dict(net_a.stats.bytes_by_kind) == dict(net_b.stats.bytes_by_kind)
