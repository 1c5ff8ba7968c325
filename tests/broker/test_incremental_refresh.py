"""Equivalence of the delta-driven refresh with the from-scratch path.

The incremental machinery (per-neighbour dirty tracking, the covering
cache, the advertisement-overlap memo, and the delta-driven desired sets
— routing-table row deltas applied directly to the cached per-neighbour
desired dict, including cover reassignment) is pure optimisation: under
any sequence of subscribes, unsubscribes and physical relocations both
modes must emit the same administrative messages, build the same routing
tables, forward the same (filter, subject) pairs and deliver the same
notifications.
"""

import pytest

from repro.broker.base import BrokerConfig
from repro.broker.network import PubSubNetwork
from repro.metrics.counters import MessageCounter
from repro.sim.rng import DeterministicRandom
from repro.topology.builders import balanced_tree_topology, line_topology

LOCATIONS = ["loc-{}".format(index) for index in range(8)]


def _snapshot(network, clients):
    counter = MessageCounter(network.trace)
    breakdown = counter.breakdown()
    forwarded = {
        name: {
            neighbour: sorted(map(repr, keys))
            for neighbour, keys in broker._forwarded_subscriptions.items()
        }
        for name, broker in network.brokers.items()
    }
    return {
        "admin": breakdown.admin,
        "notifications": breakdown.notifications,
        "tables": network.routing_table_sizes(),
        "forwarded": forwarded,
        "received": {c.client_id: c.received_identities() for c in clients},
    }


#: Forwarding-mode fixtures: BrokerConfig kwargs per mode name.
MODES = {
    "scratch": {"incremental_forwarding": False},
    "delta": {"incremental_forwarding": True},
}


def _random_churn(mode: str, seed: int, strategy: str):
    topology = balanced_tree_topology(depth=2, fanout=2)
    config = BrokerConfig(**MODES[mode])
    network = PubSubNetwork(topology, strategy=strategy, latency=0.01, config=config)
    leaves = topology.leaves()
    producer = network.add_client("producer", leaves[0])
    producer.advertise({"service": "parking"})
    network.settle()

    rng = DeterministicRandom(seed)
    clients = []
    for index in range(8):
        client = network.add_client("c{}".format(index), rng.choice(leaves[1:]))
        clients.append(client)
    subscriptions = {client.client_id: [] for client in clients}

    for _ in range(40):
        action = rng.choice(["subscribe", "subscribe", "unsubscribe", "move", "publish"])
        client = rng.choice(clients)
        if action == "subscribe":
            span = rng.randint(1, 3)
            start = rng.randint(0, len(LOCATIONS) - span)
            subscription_id = client.subscribe(
                {"service": "parking", "location": ("in", LOCATIONS[start : start + span])}
            )
            subscriptions[client.client_id].append(subscription_id)
        elif action == "unsubscribe" and subscriptions[client.client_id]:
            subscription_id = subscriptions[client.client_id].pop(
                rng.randint(0, len(subscriptions[client.client_id]) - 1)
            )
            client.unsubscribe(subscription_id)
        elif action == "move":
            client.move_to(network.broker(rng.choice(leaves)))
        elif action == "publish":
            producer.publish(
                {
                    "service": "parking",
                    "location": rng.choice(LOCATIONS),
                    "seq": rng.randint(0, 10_000),
                }
            )
        network.settle()
    return _snapshot(network, clients)


@pytest.mark.parametrize("strategy", ["covering", "merging", "simple"])
@pytest.mark.parametrize("seed", [3, 17, 99])
def test_randomized_churn_equivalence(strategy, seed):
    """Delta-driven and from-scratch refresh are behaviourally identical."""
    scratch = _random_churn("scratch", seed, strategy)
    assert _random_churn("delta", seed, strategy) == scratch


def test_clean_neighbours_are_skipped():
    """A refresh with no relevant change must not recompute the desired set."""
    network = PubSubNetwork(line_topology(3), strategy="covering", latency=0.01)
    producer = network.add_client("P", "B1")
    producer.advertise({"topic": "news"})
    consumer = network.add_client("C", "B3")
    consumer.subscribe({"topic": "news"})
    network.settle()
    middle = network.broker("B2")
    # Drain any neighbour left dirty by refresh exclusions, then verify a
    # further refresh recomputes nothing at all.
    middle._refresh_all_forwarding()
    assert all(not dirty for dirty in middle._forwarding_dirty.values())
    calls = []
    middle._desired_forwarding = lambda neighbour: calls.append(neighbour) or {}
    middle._refresh_all_forwarding()
    assert calls == []


def test_table_change_marks_other_neighbours_dirty():
    network = PubSubNetwork(line_topology(3), strategy="covering", latency=0.01)
    producer = network.add_client("P", "B1")
    producer.advertise({"topic": "news"})
    consumer = network.add_client("C", "B3")
    consumer.subscribe({"topic": "news"})
    network.settle()
    middle = network.broker("B2")
    middle._refresh_all_forwarding()  # drain dirty flags left by exclusions
    # A change to rows of destination B3 affects the desired set of every
    # neighbour except B3 itself.
    middle.subscription_table.add(
        consumer._subscriptions[next(iter(consumer._subscriptions))], "B3", "C/extra"
    )
    assert middle._forwarding_dirty["B1"] is True
    assert middle._forwarding_dirty["B3"] is False


def test_routing_table_epoch_and_listener():
    from repro.filters.filter import Filter
    from repro.routing.table import RoutingTable

    table = RoutingTable()
    events = []
    table.add_listener(events.append)
    filter_ = Filter({"a": 1})
    table.add(filter_, "west", "s1")
    assert events == ["west"]
    first_epoch = table.epoch
    assert table.destination_epoch("west") == first_epoch
    # Subject-only growth on an existing row is an observable change.
    table.add(filter_, "west", "s2")
    assert len(events) == 2
    # Re-adding an existing subject is not.
    table.add(filter_, "west", "s2")
    assert len(events) == 2
    # Subject removal that keeps the row alive still notifies.
    table.remove(filter_, "west", "s1")
    assert len(events) == 3
    # Removing an absent subject does not.
    table.remove(filter_, "west", "missing")
    assert len(events) == 3
    table.remove(filter_, "west", "s2")
    assert len(events) == 4
    assert table.epoch > first_epoch
    assert "west" not in table.destinations()
    # clear() publishes a whole-table change as destination None.
    table.add(filter_, "east", "s1")
    table.clear()
    assert events[-1] is None
    assert table.destination_epoch("east") == table.epoch
