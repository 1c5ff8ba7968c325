"""Data-plane benchmark: counting vs linear-scan dispatch.

The control-plane benchmarks (scale, merging) gate how much work a
*routing change* costs; this suite gates how much work a *notification*
costs.  Two implementations coexist behind ``BrokerConfig``:

* **scan** (``indexed_dispatch=False``, the oracle) — the routing
  table's candidate engine evaluates every candidate filter with
  ``Filter.matches``, twice per notification (once for the forwarding
  set, once for the local rows);
* **counting** (the default) — the broker's ``DispatchPlan`` decomposes
  all table filters into shared predicates and answers both questions in
  one counting pass with a per-filter counter increment per satisfied
  predicate (none for arity-1 filters), and batched link flushes reuse
  match results across identical-attribute runs.

Both modes must produce **byte-identical behaviour**: the same deliveries
(identities per client), the same admin traffic and the same routing
tables.  Hard, deterministic criteria during the publish phase:

* the scan/counting raw constraint-evaluation ratio is ≥ 5×;
* the arity-1 fast path skips at least one counter bump per publish;
* ``count_increments`` is a regression-gated counter in
  ``BENCH_dispatch.json``.

Wall-clock numbers (including the Figure 9 publish phase) are recorded
but never gated.  The suite is backend-parameterised
(``--backend {sim,aio-memory,aio-tcp}``); committed baselines are
sim-only.
"""

import gc
import time

from repro.broker.base import BrokerConfig
from repro.broker.network import PubSubNetwork
from repro.experiments import fig9_message_counts
from repro.metrics.counters import (
    MessageCounter,
    data_plane_breakdown,
    reset_data_plane_stats,
)
from repro.runtime.factory import make_runtime
from repro.sim.rng import DeterministicRandom
from repro.topology.builders import balanced_tree_topology

LOCATIONS = ["loc-{:02d}".format(index) for index in range(24)]

SUBSCRIBERS_PER_LEAF = 70  # 3 populated leaves -> 210 overlapping subscriptions
PUBLISHES = 200

MODE_CONFIGS = {
    "counting": {"indexed_dispatch": True},
    "scan": {"indexed_dispatch": False},
}

# Batching amortisation workload: bursts of identical-attribute
# notifications published at one instant share a link flush run, so the
# receiving broker matches the signature once and replays the result.
BURSTS = 40
BURST_SIZE = 5


def _make_network(mode: str, backend: str, latency: float) -> PubSubNetwork:
    """A covering-strategy network in *mode* on *backend*."""
    topology = balanced_tree_topology(depth=3, fanout=2)
    config = BrokerConfig(**MODE_CONFIGS[mode])
    if backend == "sim":
        return PubSubNetwork(topology, strategy="covering", latency=latency, config=config)
    runtime = make_runtime(backend, latency=latency)
    return PubSubNetwork(topology, strategy="covering", runtime=runtime, config=config)


def _run_publish_workload(mode: str = "counting", backend: str = "sim"):
    """Settle an overlapping subscriber population, then publish heavily."""
    network = _make_network(mode, backend, latency=0.005)
    leaves = network.graph.leaves()
    producer = network.add_client("producer", leaves[0])
    producer.advertise({"service": "parking"})
    network.settle()

    rng = DeterministicRandom(17)
    clients = []
    for leaf_index, leaf in enumerate(leaves[1:4]):
        for client_index in range(SUBSCRIBERS_PER_LEAF):
            client = network.add_client("c-{}-{}".format(leaf_index, client_index), leaf)
            span = rng.randint(1, 5)
            start = rng.randint(0, len(LOCATIONS) - span)
            if client_index == 0:
                # One wide "monitor everything parking" subscriber per
                # leaf: its filter has arity 1, which exercises the
                # counting matcher's arity-1 fast path on every publish.
                template = {"service": "parking"}
            else:
                template = {
                    "service": "parking",
                    "location": ("in", LOCATIONS[start : start + span]),
                }
                roll = rng.random()
                if roll < 0.2:
                    template["cost"] = ("<", rng.randint(2, 8))
                elif roll < 0.3:
                    low = rng.randint(0, 4)
                    template["cost"] = ("between", low, low + rng.randint(1, 4))
            client.subscribe(template)
            clients.append(client)
    network.settle()

    # Publish phase: the measured part.
    reset_data_plane_stats(network.brokers.values())
    started = time.perf_counter()
    for index in range(PUBLISHES):
        producer.publish(
            {
                "service": "parking",
                "location": LOCATIONS[index % len(LOCATIONS)],
                "cost": index % 10,
                "index": index,
            }
        )
    network.settle()
    publish_seconds = time.perf_counter() - started
    stats = data_plane_breakdown(network.brokers.values())

    counter = MessageCounter(network.trace)
    result = {
        "publish_seconds": publish_seconds,
        "constraint_evals": stats["constraint_evals"],
        "filter_matches": stats["filter_matches"],
        "dispatch_matches": stats["dispatch_matches"],
        "count_increments": stats["dispatch_count_increments"],
        "count_increments_per_delivery": stats["dispatch_count_increments_per_delivery"],
        "arity1_fast_matches": stats["dispatch_arity1_fast_matches"],
        "admin_messages": counter.breakdown().admin,
        "advert_gate_hits": stats["advert_gate_hits"],
        "advert_gate_misses": stats["advert_gate_misses"],
        "delivered": sum(len(client.received) for client in clients),
        "received": {c.client_id: c.received_identities() for c in clients},
        "table_sizes": network.routing_table_sizes(),
    }
    network.close()
    return result


def test_dispatch_count_increment_reduction(benchmark, bench_backend):
    """Counting dispatch: ≥5× fewer constraint evals, fewer counter bumps."""
    counting = benchmark.pedantic(
        _run_publish_workload, args=("counting", bench_backend), iterations=1, rounds=1
    )
    scan = _run_publish_workload("scan", bench_backend)

    # Byte-identical data-plane behaviour in both modes.
    assert counting["received"] == scan["received"]
    assert counting["delivered"] == scan["delivered"]
    assert counting["admin_messages"] == scan["admin_messages"]
    assert counting["table_sizes"] == scan["table_sizes"]

    delivered = counting["delivered"]
    assert delivered > 0
    eval_ratio = scan["constraint_evals"] / max(counting["constraint_evals"], 1)

    # Arity-1 fast path (ROADMAP "counting inner loop"): a satisfied
    # predicate whose filter has arity 1 is a match immediately, with no
    # counter bump; each avoided bump is recorded in arity1_fast_matches.
    # The wide one-constraint subscribers match on every publish, so the
    # skip count must reach at least one per publish.
    assert counting["arity1_fast_matches"] >= PUBLISHES

    benchmark.extra_info.update(
        {
            "subscriptions": 3 * SUBSCRIBERS_PER_LEAF,
            "publishes": PUBLISHES,
            "delivered": delivered,
            "constraint_evals_counting": counting["constraint_evals"],
            "constraint_evals_scan": scan["constraint_evals"],
            "constraint_eval_ratio": round(eval_ratio, 1),
            "count_increments": counting["count_increments"],
            "count_increments_per_delivery": counting["count_increments_per_delivery"],
            "arity1_fast_matches": counting["arity1_fast_matches"],
            "evals_per_delivery_counting": round(counting["constraint_evals"] / delivered, 3),
            "evals_per_delivery_scan": round(scan["constraint_evals"] / delivered, 3),
            "filter_matches_scan": scan["filter_matches"],
            "dispatch_matches": counting["dispatch_matches"],
            "advert_gate_hits": counting["advert_gate_hits"],
            "advert_gate_misses": counting["advert_gate_misses"],
            "publish_seconds_counting": round(counting["publish_seconds"], 4),
            "publish_seconds_scan": round(scan["publish_seconds"], 4),
        }
    )
    # The counting-index acceptance criterion: at least 5× fewer raw
    # constraint evaluations than the scan path.  The observed ratio is
    # far higher (see BENCH_dispatch.json) because the workload's
    # equality/set/range constraints are all answered by bucket lookups
    # and bisections.
    assert eval_ratio >= 5.0


def _run_batched_workload(mode: str = "counting", backend: str = "sim"):
    """Publish identical-attribute bursts so link flushes carry runs."""
    network = _make_network(mode, backend, latency=0.005)
    leaves = network.graph.leaves()
    producer = network.add_client("producer", leaves[0])
    producer.advertise({"service": "telemetry"})
    subscribers = []
    for index in range(20):
        client = network.add_client("s-{}".format(index), leaves[-1])
        client.subscribe({"service": "telemetry", "shard": ("<", 1 + index % 8)})
        subscribers.append(client)
    network.settle()

    reset_data_plane_stats(network.brokers.values())
    started = time.perf_counter()
    for burst in range(BURSTS):
        # Same attributes within a burst, published at one instant: the
        # notifications share delivery times on every broker-broker
        # link, so each flush hands the whole run to receive_batch.
        for _ in range(BURST_SIZE):
            producer.publish({"service": "telemetry", "shard": burst % 8})
        network.settle()
    seconds = time.perf_counter() - started
    stats = data_plane_breakdown(network.brokers.values())
    result = {
        "seconds": seconds,
        "batched_groups": stats["dispatch_batched_groups"],
        "dispatch_matches": stats["dispatch_matches"],
        "handled": sum(
            broker.counters["notifications_received"] for broker in network.brokers.values()
        ),
        "delivered": sum(len(client.received) for client in subscribers),
        "received": {c.client_id: c.received_identities() for c in subscribers},
    }
    network.close()
    return result


def test_dispatch_batching_amortisation(benchmark, bench_backend):
    """Identical-attribute bursts: match once per run, identical deliveries."""
    counting = benchmark.pedantic(
        _run_batched_workload, args=("counting", bench_backend), iterations=1, rounds=1
    )
    scan = _run_batched_workload("scan", bench_backend)

    assert counting["received"] == scan["received"]
    assert counting["delivered"] == scan["delivered"]
    assert counting["delivered"] > 0

    if bench_backend == "sim":
        # Batched link flushes are a sim-runtime feature (the asyncio
        # channels deliver per message); on sim, every burst's repeated
        # signature must be amortised at least once somewhere.
        assert counting["batched_groups"] >= BURSTS
        # ...and the cache hits shrink the dispatch passes themselves:
        # fewer index probes than one per notification per broker.
        assert counting["dispatch_matches"] < counting["handled"]

    benchmark.extra_info.update(
        {
            "bursts": BURSTS,
            "burst_size": BURST_SIZE,
            "delivered": counting["delivered"],
            "batched_groups": counting["batched_groups"],
            "dispatch_matches": counting["dispatch_matches"],
            "notifications_handled": counting["handled"],
            "burst_seconds_counting": round(counting["seconds"], 4),
            "burst_seconds_scan": round(scan["seconds"], 4),
        }
    )


def test_fig9_publish_phase_wall_time(benchmark):
    """Figure 9 workload, counting vs scan: same messages, recorded wall time."""

    def run(mode):
        config = fig9_message_counts.Fig9Config(
            horizon=20.0,
            sample_interval=10.0,
            broker_config=BrokerConfig(**MODE_CONFIGS[mode]),
        )
        started = time.perf_counter()
        result = fig9_message_counts.run(config)
        seconds = time.perf_counter() - started
        # Summed over the breakdowns each series took before closing its
        # network, so the value cannot depend on when dropped brokers
        # are collected.
        constraint_evals = sum(series.data_plane["constraint_evals"] for series in result.series)
        gc.collect()
        assert sum(series.data_plane["constraint_evals"] for series in result.series) == (
            constraint_evals
        )
        return {
            "seconds": seconds,
            "constraint_evals": constraint_evals,
            "totals": {series.label: series.total_messages for series in result.series},
            "delivered": {series.label: series.delivered for series in result.series},
        }

    counting = benchmark.pedantic(run, args=("counting",), iterations=1, rounds=1)
    scan = run("scan")
    # The dispatch mode must not change a single Figure 9 message count.
    assert counting["totals"] == scan["totals"]
    assert counting["delivered"] == scan["delivered"]
    benchmark.extra_info.update(
        {
            "fig9_total_messages": sum(counting["totals"].values()),
            "fig9_seconds_counting": round(counting["seconds"], 4),
            "fig9_seconds_scan": round(scan["seconds"], 4),
            "fig9_constraint_evals_counting": counting["constraint_evals"],
            "fig9_constraint_evals_scan": scan["constraint_evals"],
        }
    )
