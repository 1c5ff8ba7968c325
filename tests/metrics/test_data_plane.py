"""The data-plane breakdown must surface matching, dispatch and gate work."""

from repro.broker.base import Broker, BrokerConfig
from repro.filters import stats as data_plane_stats
from repro.filters.filter import Filter
from repro.metrics.counters import data_plane_breakdown
from repro.routing.strategies import make_strategy
from repro.runtime.latency import FixedLatency
from repro.sim.engine import Simulator
from repro.sim.network import Link


def _make_broker():
    simulator = Simulator()
    broker = Broker("B", simulator, make_strategy("covering"), config=BrokerConfig())
    broker.add_link(
        Link(simulator, "B", "N1", lambda message, link: None, FixedLatency(0.0))
    )
    return broker


def test_breakdown_counts_scan_and_indexed_work():
    # Scan work: a direct Filter.matches evaluation outside any broker
    # lands on the unattributed sink.
    unattributed = data_plane_stats.unattributed
    unattributed.reset()
    assert Filter({"service": "parking"}).matches({"service": "parking"})
    assert unattributed.constraint_evals == 1
    assert unattributed.filter_matches == 1
    # Indexed work: one counting pass through a broker's dispatch plan.
    broker = _make_broker()
    broker.subscription_table.add(Filter({"service": "parking"}), "N1", "s1")
    before = data_plane_breakdown([broker])
    assert before["constraint_evals"] == 0
    assert before["dispatch_matches"] == 0
    from repro.messages.notification import Notification

    # ``_dispatch`` is a broker entry point: the pass is attributed to
    # the broker's own sink, not to the unattributed one.
    broker._dispatch(Notification({"service": "parking"}, "p", 1), from_destination="c1")
    after = data_plane_breakdown([broker])
    assert unattributed.dispatch_matches == 0
    assert after["dispatch_matches"] == 1
    assert after["dispatch_satisfied_predicates"] == 1
    assert after["dispatch_filters_matched"] == 1


def test_breakdown_exposes_advert_gate_cache():
    broker = _make_broker()
    broker.advertisement_table.add(Filter({"service": "parking"}), "N1", "a1")
    query = Filter({"service": "parking", "location": "a"})
    assert broker._advertised_via("N1", query) is True
    assert broker._advertised_via("N1", query) is True
    stats = data_plane_breakdown([broker])
    assert stats["advert_gate_misses"] == 1
    assert stats["advert_gate_hits"] == 1
    assert stats["advert_gate_cached_verdicts"] == 1
