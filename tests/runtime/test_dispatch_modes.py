"""Dispatch-mode trace identity on every runtime backend.

The counting data plane (predicate index, counting matcher,
cross-notification batching) must be invisible in every observable:
on each backend — sim, virtual-time asyncio over memory pipes, and over
loopback TCP — the counting and scan modes must produce
**byte-identical traces**, timestamps included: the same deliveries in
the same order, the same link traversals (admin messages included), the
same drops and publishes.  The workload mixes identical-attribute
bursts (exercising the batched-run reuse on the sim backend) with
varied publishes and subscription churn (exercising the index's delta
maintenance) so every stage of the counting path is on trial.
"""

import pytest

from repro.broker.base import BrokerConfig
from repro.broker.network import PubSubNetwork
from repro.runtime.factory import BACKENDS, make_runtime
from repro.sim.rng import DeterministicRandom
from repro.topology.builders import balanced_tree_topology

from tests.runtime.test_backend_parity import _trace_fingerprint

MODE_CONFIGS = {
    "counting": {"indexed_dispatch": True},
    "scan": {"indexed_dispatch": False},
}


def _run_workload(backend, mode):
    network = PubSubNetwork(
        balanced_tree_topology(depth=2, fanout=2),
        strategy="covering",
        runtime=make_runtime(backend, latency=0.01),
        config=BrokerConfig(**MODE_CONFIGS[mode]),
    )
    leaves = network.graph.leaves()
    rng = DeterministicRandom(29)
    producer = network.add_client("producer", leaves[0])
    producer.advertise({"service": "parking"})
    clients = []
    subscriptions = []
    # Many sharers of the ``service == parking`` predicate, with
    # overlapping secondary constraints.
    for index in range(12):
        client = network.add_client("c{}".format(index), leaves[index % len(leaves)])
        subscriptions.append(
            (client, client.subscribe({"service": "parking", "floor": ("<", 1 + index % 5)}))
        )
        clients.append(client)
    network.settle()

    for round_ in range(6):
        # An identical-attribute burst at one instant: on the sim backend
        # these share one link flush and go through receive_batch.
        for _ in range(3):
            producer.publish({"service": "parking", "floor": round_ % 5})
        # Plus varied publishes that defeat the signature cache.
        producer.publish(
            {"service": "parking", "floor": rng.randint(0, 6), "seq": rng.randint(0, 999)}
        )
        network.settle()
        # Churn between bursts: the predicate index is maintained from
        # row deltas, with no observable difference from the scan mode.
        client, subscription_id = subscriptions[round_ % len(subscriptions)]
        client.unsubscribe(subscription_id)
        subscriptions[round_ % len(subscriptions)] = (
            client,
            client.subscribe({"service": "parking", "floor": ("<", 2 + round_ % 4)}),
        )
        network.settle()

    fingerprint = _trace_fingerprint(network.trace)
    received = {c.client_id: c.received_identities() for c in clients}
    tables = network.routing_table_sizes()
    network.close()
    return fingerprint, received, tables


@pytest.mark.parametrize("backend", BACKENDS)
def test_three_mode_trace_identity(backend):
    """Counting and scan leave byte-identical traces.

    (The name predates the removal of a third, bitset-matcher mode; it
    is kept so the test's history stays continuous.)
    """
    try:
        counting = _run_workload(backend, "counting")
    except OSError as error:  # pragma: no cover - sandboxed environments
        pytest.skip("loopback sockets unavailable: {}".format(error))
    scan = _run_workload(backend, "scan")
    assert scan[0]["deliveries"] == counting[0]["deliveries"], backend
    assert scan[0]["links"] == counting[0]["links"], backend
    assert scan[0]["drops"] == counting[0]["drops"], backend
    assert scan[0]["publishes"] == counting[0]["publishes"], backend
    assert scan[1] == counting[1], backend
    assert scan[2] == counting[2], backend
