"""Per-broker metric registries, the stats pointer, and network scoping."""

from repro.broker.base import BrokerConfig, _attributed
from repro.broker.network import PubSubNetwork
from repro.filters import stats as data_plane_stats
from repro.metrics.counters import data_plane_breakdown, reset_data_plane_stats
from repro.telemetry import RingBufferSink, TelemetryConfig
from repro.telemetry.registry import Histogram, MetricRegistry
from repro.topology.builders import line_topology


def _run_workload(network, publishes=5, tag="news"):
    producer = network.add_client("P", "B3")
    producer.advertise({"topic": tag})
    consumer = network.add_client("C", "B1")
    # Two attributes so matching exercises real constraint evaluations
    # (a single-constraint filter takes the arity-1 fast path).
    consumer.subscribe({"topic": tag, "grade": "a"})
    network.settle()
    for index in range(publishes):
        producer.publish({"topic": tag, "grade": "a", "seq": index})
    network.settle()
    return consumer


class TestHistogram:
    def test_buckets_and_summary_fields(self):
        histogram = Histogram(bounds=(1, 5, 10))
        for value in (0, 1, 2, 7, 50):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["bucket_counts"] == [2, 1, 1, 1]
        assert snapshot["count"] == 5
        assert snapshot["sum"] == 60
        assert snapshot["max"] == 50
        histogram.reset()
        assert histogram.count == 0
        assert histogram.bucket_counts == [0, 0, 0, 0]


class TestMetricRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricRegistry("B")
        registry.inc("things")
        registry.inc("things", 2)
        registry.set_gauge("depth", 3)
        registry.set_gauge("depth", 1)
        registry.observe("fanout", 4)
        assert registry.counters["things"] == 3
        assert registry.gauge_snapshot() == {"depth": {"last": 1, "high": 3}}
        assert registry.histogram_snapshot()["fanout"]["count"] == 1

    def test_attributed_pointer_nesting(self):
        """Entry points swap the one ``current`` pointer and restore it on
        exit, also when one entry point reaches another or raises."""

        class Owner:
            def __init__(self, name):
                self.metrics = MetricRegistry(name)

            @_attributed
            def work(self, amount, nested=None):
                data_plane_stats.current.constraint_evals += amount
                if nested is not None:
                    nested.work(10)
                data_plane_stats.current.constraint_evals += amount

            @_attributed
            def fail(self):
                data_plane_stats.current.constraint_evals += 100
                raise RuntimeError("boom")

        outer = Owner("outer")
        inner = Owner("inner")
        unattributed_before = data_plane_stats.unattributed.constraint_evals
        outer.work(1, nested=inner)
        assert outer.metrics.stats.constraint_evals == 2
        assert inner.metrics.stats.constraint_evals == 20
        assert data_plane_stats.current is data_plane_stats.unattributed
        try:
            inner.fail()
        except RuntimeError:
            pass
        assert inner.metrics.stats.constraint_evals == 120
        assert data_plane_stats.current is data_plane_stats.unattributed
        assert data_plane_stats.unattributed.constraint_evals == unattributed_before

    def test_queue_depth_probe_feeds_gauge_and_histogram(self):
        registry = MetricRegistry("B")
        probe = registry.queue_depth_probe("B->C")
        probe(2)
        probe(5)
        probe(1)
        assert registry.gauge_snapshot()["queue_depth:B->C"] == {
            "last": 1,
            "high": 5,
        }
        assert registry.histogram_snapshot()["link_queue_depth"]["count"] == 3


class TestPerNetworkScoping:
    def test_two_concurrent_networks_do_not_bleed(self):
        """Regression: two live PubSubNetworks used to share one process-
        global stats object, so the second network's matching work
        polluted the first's breakdown.  The per-broker registries make
        ``network.data_plane_breakdown()`` attributable per network."""
        network_a = PubSubNetwork(line_topology(3), strategy="covering", latency=0.01)
        network_b = PubSubNetwork(line_topology(3), strategy="covering", latency=0.01)

        _run_workload(network_a, publishes=4)
        breakdown_a = network_a.data_plane_breakdown()
        assert breakdown_a["dispatch_matches"] > 0

        # Work on network B must leave A's scoped numbers untouched.
        _run_workload(network_b, publishes=9)
        assert network_a.data_plane_breakdown() == breakdown_a
        breakdown_b = network_b.data_plane_breakdown()
        assert breakdown_b["dispatch_matches"] > breakdown_a["dispatch_matches"]

        # Totals are summed over the brokers the caller names.
        both = data_plane_breakdown(
            list(network_a.brokers.values()) + list(network_b.brokers.values())
        )
        for key in ("constraint_evals", "filter_matches", "dispatch_matches"):
            assert both[key] == breakdown_a[key] + breakdown_b[key]

    def test_broker_counter_snapshot_reconciles_with_breakdown(self):
        network = PubSubNetwork(line_topology(3), strategy="covering", latency=0.01)
        consumer = _run_workload(network, publishes=6)
        assert len(consumer.received) == 6

        scoped = network.data_plane_breakdown()
        assert scoped["dispatch_matches"] > 0
        snapshots = [broker.metrics.counter_snapshot() for broker in network.brokers.values()]
        for key in ("constraint_evals", "filter_matches", "dispatch_matches"):
            assert scoped[key] == sum(snapshot[key] for snapshot in snapshots)
        delivered = sum(snapshot["notifications_delivered"] for snapshot in snapshots)
        assert delivered == 6


class TestCountIncrementHistogram:
    def test_per_notification_counting_cost_is_observed(self):
        """With telemetry on, every handled notification records its
        counter-bump cost in the ``dispatch_count_increments`` histogram
        (``dispatch_fanout``-style): positive sums under the counting
        matcher, all-zero observations under the scan oracle (which
        bumps no counters) — with the same observation count, since the
        modes handle the same notifications."""

        def run(indexed):
            network = PubSubNetwork(
                line_topology(3),
                strategy="covering",
                latency=0.01,
                config=BrokerConfig(indexed_dispatch=indexed),
                telemetry=TelemetryConfig(sink_factory=RingBufferSink),
            )
            _run_workload(network, publishes=5)
            histograms = {}
            for broker in network.brokers.values():
                snapshot = broker.metrics.histogram_snapshot()
                if "dispatch_count_increments" in snapshot:
                    histograms[broker.name] = snapshot["dispatch_count_increments"]
            network.close()
            return histograms

        counting = run(indexed=True)
        scan = run(indexed=False)
        assert counting and scan
        assert sum(h["sum"] for h in counting.values()) > 0
        assert sum(h["sum"] for h in scan.values()) == 0
        assert sum(h["count"] for h in counting.values()) == sum(h["count"] for h in scan.values())


class TestResetUnification:
    def test_reset_data_plane_stats_resets_merge_calls_too(self):
        """Pin for the historical bug: ``reset_data_plane_stats`` skipped
        the merging family, leaking ``try_merge_calls`` across benchmark
        prologues.  The reset zeroes every field of the named brokers'
        sinks, and only theirs."""
        network = PubSubNetwork(line_topology(3), strategy="covering", latency=0.01)
        _run_workload(network, publishes=2)
        reset, untouched = network.brokers["B1"], network.brokers["B2"]
        for broker in (reset, untouched):
            broker.metrics.stats.merge_try_merge_calls += 3
            broker.metrics.stats.constraint_evals += 1
            broker.metrics.stats.dispatch_matches += 1
        untouched_before = untouched.metrics.stats.snapshot()
        counters_before = dict(reset.counters)
        reset_data_plane_stats([reset])
        assert set(reset.metrics.stats.snapshot().values()) == {0}
        assert untouched.metrics.stats.snapshot() == untouched_before
        # ``broker.counters`` is not a data-plane sink: left alone.
        assert reset.counters == counters_before
