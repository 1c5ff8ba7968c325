"""Delivery oracle: per-op failure accounting plus the repo's QoS checkers.

The oracle reads what the program recorded (the trace's delivery
records) and compares it with what the benchmark's own ledger says
should have happened.  It never uses the program's matching.

Per op, for every notification published in the op, the receivers must
equal the live subscriptions whose spec matches it (plain subscribers)
or whose current location equals its location (``myloc`` subscribers,
the flooding reference of Figure 4).  Every delivery in the op is also
checked for being a duplicate (same identity to the same subscription
twice) and for per-publisher FIFO order.  An op that raises, or shows
any missing, duplicate, out-of-order or stray delivery, fails.

At the end of each round, :func:`cross_check` re-derives the verdict
for a sample of subscriptions with the repo's own checkers
(``check_completeness``, ``check_no_duplicates``, ``check_fifo``,
``check_epoch_semantics``); a disagreement means the benchmark's
accounting is wrong and makes the run incorrect.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Sequence, Set, Tuple

from repro.filters.filter import Filter
from repro.metrics.qos import (
    LocationTimeline,
    check_completeness,
    check_epoch_semantics,
    check_fifo,
    check_no_duplicates,
)

from workloads import LATENCY, PRODUCER, Op, Session, SubSpec

Key = Tuple[str, str]  # (client, subscription)
# Every notification comes from the one producer, so its publish
# sequence number identifies it.  Plain ints keep the oracle's own
# long-lived state out of the collector's tracked heap, which the ops'
# garbage collections would otherwise have to scan.
Seq = int


class DeliveryOracle:
    """Ledger-based expected receivers and per-subscription delivery state."""

    def __init__(self, session: Session, sample: Sequence[Key]) -> None:
        self.session = session
        trace = session.network.trace
        self._deliveries = trace.delivery_records
        self._links = trace.link_records
        self._delivery_mark = len(self._deliveries)
        self._link_mark = len(self._links)
        self._seen: Dict[Key, Set[Seq]] = defaultdict(set)
        self._last_seq: Dict[Key, Seq] = {}
        # Expected identities per subscription, kept for the sample only.
        self._sample = set(sample)
        self.expected: Dict[Key, Set[Seq]] = {key: set() for key in sample}
        self.counts: Dict[Key, Counter] = {key: Counter() for key in sample}
        # Receivers per (location, cost), from a per-location index of the
        # ledger; both are dropped whenever the ledger's plain set changes.
        self._plain_memo: Dict[Tuple[str, int], List[Key]] = {}
        self._by_location: Dict[str, List[Tuple[Key, SubSpec]]] = {}
        self._published = 0
        self.deliveries = 0
        self.duplicates = 0
        self.messages = 0
        self.replays = 0
        self.fetches = 0

    def _plain_receivers(self, location: str, cost: int) -> List[Key]:
        memo_key = (location, cost)
        receivers = self._plain_memo.get(memo_key)
        if receivers is None:
            if not self._by_location:
                for key, spec in self.session.live.items():
                    for place in spec.location_set:
                        self._by_location.setdefault(place, []).append((key, spec))
            receivers = [
                key
                for key, spec in self._by_location.get(location, ())
                if spec.matches(location, cost)
            ]
            self._plain_memo[memo_key] = receivers
        return receivers

    def expected_receivers(self, attributes) -> Set[Key]:
        location = attributes["location"]
        receivers = set(self._plain_receivers(location, attributes["cost"]))
        for key, current in self.session.logical.items():
            if current == location:
                receivers.add(key)
        return receivers

    def check_op(self, op: Op) -> Counter:
        """Account *op*, which just settled; returns its failure reasons.

        The ledger (``session.live``/``session.logical``) already holds
        the state *op* moved to, so the op's publishes are checked
        against it.
        """
        if op.kind in ("subscribe", "unsubscribe"):
            self._plain_memo = {}
            self._by_location = {}
        reasons: Counter = Counter()
        records = self._deliveries[self._delivery_mark :]
        self._delivery_mark = len(self._deliveries)
        links = self._links[self._link_mark :]
        self._link_mark = len(self._links)
        self.messages += len(links)
        for link in links:
            if link.message_type == "Replay":
                self.replays += 1
            elif link.message_type == "FetchRequest":
                self.fetches += 1
        self.deliveries += len(records)

        # The producer numbers its publishes 1, 2, ... in call order.
        expected: Dict[Seq, Set[Key]] = {}
        for attributes in op.publishes:
            receivers = self.expected_receivers(attributes)
            first = self._published + 1
            self._published += op.count
            for key in receivers & self._sample:
                self.expected[key].update(range(first, self._published + 1))
            for seq in range(first, self._published + 1):
                expected[seq] = receivers

        arrived: Dict[Seq, Set[Key]] = defaultdict(set)
        for record in records:
            key = (record.client_id, record.subscription_id)
            seq = record.publisher_seq
            seen = self._seen[key]
            sampled = key in self._sample
            if seq in seen:
                reasons["duplicate"] += 1
                self.duplicates += 1
                if sampled:
                    self.counts[key]["duplicate"] += 1
            else:
                seen.add(seq)
                # A first delivery of a notification published in an
                # earlier op, or to a subscription it does not match.
                receivers = expected.get(seq)
                if receivers is None or key not in receivers:
                    reasons["stray"] += 1
            arrived[seq].add(key)
            if seq < self._last_seq.get(key, 0):
                reasons["fifo"] += 1
                if sampled:
                    self.counts[key]["fifo"] += 1
            else:
                self._last_seq[key] = seq

        for seq, receivers in expected.items():
            missing = len(receivers - arrived.get(seq, set()))
            if missing:
                reasons["missing"] += missing
        return reasons

    def seen(self, key: Key) -> Set[Tuple[str, Seq]]:
        """Identities delivered at least once to *key*."""
        return {(PRODUCER, seq) for seq in self._seen.get(key, ())}


class _GroupedTrace:
    """The slice of a trace the QoS checkers read, grouped by client once.

    ``TraceRecorder.deliveries_for`` scans every record per call; with
    thousands of clients that is quadratic, so the cross-check hands the
    checkers this view instead.  Records are the program's own.
    """

    def __init__(self, trace) -> None:
        self.publish_records = trace.publish_records
        self._by_client: Dict[str, list] = defaultdict(list)
        for record in trace.delivery_records:
            self._by_client[record.client_id].append(record)

    def deliveries_for(self, client_id: str) -> list:
        return self._by_client.get(client_id, [])


def cross_check(oracle: DeliveryOracle, session: Session) -> List[str]:
    """Re-derive the sampled verdicts with the repo's checkers.

    Returns a list of disagreements (empty when both agree).
    """
    view = _GroupedTrace(session.network.trace)
    disagreements: List[str] = []
    for key in sorted(oracle.expected):
        client_id, subscription_id = key
        delivered = oracle.seen(key)
        if key in session.logical:
            report = check_epoch_semantics(
                view,
                client_id,
                base_filter=Filter({"service": "parking"}),
                location_attribute="location",
                timeline=LocationTimeline(session.timelines[client_id]),
                myloc=lambda location: {location},
                # Any delay below the dwell time gives the same epochs:
                # ops are DWELL apart and settle well within it.
                delivery_delay=LATENCY,
                subscription_id=subscription_id,
            )
        elif key in session.live:
            spec = session.live[key]
            report = check_completeness(
                view, client_id, Filter(spec.template()), subscription_id=subscription_id
            )
        else:
            # Unsubscribed during the round: the checkers have no notion
            # of a subscription's lifetime, so the ledger's check stands.
            continue
        ledger_expected = {(PRODUCER, seq) for seq in oracle.expected[key]}
        if report.expected != ledger_expected:
            disagreements.append(
                "{}/{}: expected {} by checker, {} by ledger".format(
                    client_id, subscription_id, len(report.expected), len(ledger_expected)
                )
            )
        if report.delivered != delivered:
            disagreements.append("{}/{}: delivered sets differ".format(client_id, subscription_id))
        duplicates = check_no_duplicates(view, client_id, subscription_id).duplicate_count
        if duplicates != oracle.counts[key]["duplicate"]:
            disagreements.append(
                "{}/{}: {} duplicates by checker, {} by oracle".format(
                    client_id, subscription_id, duplicates, oracle.counts[key]["duplicate"]
                )
            )
        violations = len(check_fifo(view, client_id, subscription_id).violations)
        if violations != oracle.counts[key]["fifo"]:
            disagreements.append(
                "{}/{}: {} FIFO violations by checker, {} by oracle".format(
                    client_id, subscription_id, violations, oracle.counts[key]["fifo"]
                )
            )
    return disagreements
