"""The counting matcher must agree with brute force across churn and batching.

``tests/dispatch/test_predicate_index.py`` pins ``CountingMatcher`` on a
freshly built index (operator classes, edge cases, opaque filters, the
arity-1 fast path).  These tests keep **one matcher alive** while the
index churns underneath it, so every probe reuses the generation-stamped
scratch arrays of earlier passes, and check the cross-notification
batching entry point on a live broker network against the per-message
scan oracle.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.broker.base import BrokerConfig
from repro.broker.network import PubSubNetwork
from repro.dispatch.counting import CountingMatcher
from repro.dispatch.predicate_index import PredicateIndex
from repro.filters.filter import MatchAll, MatchNone
from repro.metrics.counters import data_plane_breakdown, reset_data_plane_stats
from repro.topology.builders import line_topology

from tests.dispatch.test_predicate_index import (
    F,
    any_filters,
    notifications,
)


def keys_of(matched):
    return {filter_.key() for filter_ in matched}


def expected_keys(live, notification):
    return {
        f.key() for f in live if not isinstance(f, MatchNone) and f.matches(notification)
    }


@settings(max_examples=150, deadline=None)
@given(
    filters=st.lists(any_filters(), min_size=2, max_size=8),
    removals=st.lists(st.integers(min_value=0, max_value=7), max_size=6),
    notifications_=st.lists(notifications(), min_size=1, max_size=3),
)
def test_counting_match_survives_churn(filters, removals, notifications_):
    """A matcher probed before the removals stays exact after them."""
    index = PredicateIndex()
    matcher = CountingMatcher(index)
    for filter_ in filters:
        index.add(filter_)
    matcher.match(notifications_[0])
    live = list(filters)
    for position in removals:
        if not live:
            break
        index.remove(live.pop(position % len(live)))
    for notification in notifications_:
        assert keys_of(matcher.match(notification)) == expected_keys(live, notification)


def test_randomized_churn_matches_brute_force():
    """Long interleaved add/remove/match run over shared predicates."""
    rng = random.Random(23)
    index = PredicateIndex()
    matcher = CountingMatcher(index)
    pool = [
        F(service="parking"),
        F(service="fuel"),
        F(cost=("<", 4)),
        F(cost=("between", 1, 5), service="parking"),
        F(location=("in", ["a", "b", "c"])),
        F(location=("in", ["a", "b"]), cost=(">=", 2)),
        F(note=("!=", "x")),
        MatchAll(),
    ] + [F(service="parking", floor=floor) for floor in range(12)]
    live = []
    for _ in range(400):
        if live and rng.random() < 0.45:
            filter_ = live.pop(rng.randrange(len(live)))
            index.remove(filter_)
        else:
            filter_ = rng.choice(pool)
            index.add(filter_)
            live.append(filter_)
        notification = {
            "service": rng.choice(["parking", "fuel", "bus"]),
            "cost": rng.randint(0, 6),
            "location": rng.choice(["a", "b", "c", "d"]),
            "floor": rng.randint(0, 13),
        }
        # The index refcounts structurally identical filters, so the
        # brute-force expectation is deduplicated by filter key.
        assert keys_of(matcher.match(notification)) == expected_keys(live, notification)


class TestCrossNotificationBatching:
    def _run(self, indexed):
        network = PubSubNetwork(
            line_topology(2),
            strategy="covering",
            latency=0.01,
            config=BrokerConfig(indexed_dispatch=indexed),
        )
        brokers = sorted(network.brokers)
        producer = network.add_client("p", brokers[0])
        producer.advertise({"service": "s"})
        subscribers = []
        for position in range(3):
            client = network.add_client("c{}".format(position), brokers[1])
            client.subscribe({"service": "s", "level": ("<", position + 1)})
            subscribers.append(client)
        network.settle()

        reset_data_plane_stats(network.brokers.values())
        for burst in range(5):
            # Identical attributes published at one instant share delivery
            # times on the broker-broker link, so one flush hands the
            # whole run to Broker.receive_batch.
            for _ in range(4):
                producer.publish({"service": "s", "level": burst % 3})
            network.settle()
        stats = data_plane_breakdown(network.brokers.values())
        handled = sum(
            broker.counters["notifications_received"] for broker in network.brokers.values()
        )
        received = {c.client_id: c.received_identities() for c in subscribers}
        network.close()
        return received, stats, handled

    def test_batched_runs_amortise_matching_without_changing_deliveries(self):
        counting_received, counting_stats, handled = self._run(indexed=True)
        scan_received, scan_stats, _ = self._run(indexed=False)
        assert counting_received == scan_received
        assert sum(len(ids) for ids in counting_received.values()) > 0
        # Every burst's repeated signature was amortised at least once,
        # and the reuse shows up as fewer index probes than one per
        # handled notification.
        assert counting_stats["dispatch_batched_groups"] >= 5
        assert counting_stats["dispatch_matches"] < handled
        # The scan oracle stays a strict per-message path.
        assert scan_stats["dispatch_batched_groups"] == 0
