"""Seeded inputs and the three closed-loop workloads of the repo benchmark.

Every workload runs on the depth-3, fanout-2 broker tree (15 brokers, 8
leaves) with one producer on the first leaf and 2,100 standing
``service=parking`` subscriptions (300 per leaf) on the other seven.
A filter is a location range of 1-5 over 24 locations; 20% add
``cost <`` and 10% add ``cost between``.

All inputs come from the seed.  The program sees only the generated
operations: client API calls on a :class:`~repro.PubSubNetwork`.  Each
operation (op) is applied by :meth:`Workload.apply` and then settled;
the runner times the two together.

* ``publish-fanout`` (``sim``) loads the data plane: single publishes
  and bursts of five identical-attribute publishes, with one wide
  subscriber per leaf so every publish fans out widely.
* ``subscription-churn`` (``sim``) loads the control plane: fresh
  subscribes and unsubscribes of random live subscriptions, with a
  publish every 10th op.  No wide cover, so covering selections change.
* ``roaming`` (``aio-memory``) runs both mobility protocols over the
  wire codec: physical relocation (``move_to``) of 40 roamers and
  ``myloc`` location changes (``set_location``) of 20 logical
  subscribers, each op followed by two publishes that race the change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import MYLOC, Client, MovementGraph, PubSubNetwork, UncertaintyPlan
from repro.filters.covering_cache import get_covering_cache
from repro.runtime.factory import make_runtime
from repro.topology.builders import balanced_tree_topology

LOCATIONS: Tuple[str, ...] = tuple("loc-{:02d}".format(index) for index in range(24))
SUBSCRIBERS_PER_LEAF = 300
LATENCY = 0.005  # per link, in virtual seconds
PRODUCER = "producer"
BURST_SIZE = 5
BURST_SHARE = 0.2
SAMPLE_STANDING = 30  # standing subscriptions the repo's checkers re-verify
PUBLISH_EVERY = 10  # subscription-churn: one publish per this many ops
ROAMERS = 40
LOGICAL_SUBSCRIBERS = 20
# Virtual idle time between roaming ops.  It keeps every location change
# well clear of the previous op's flooding arrivals, so the epoch check
# of Figure 4 has no ambiguous border cases; it is also the dwell time
# the adaptive uncertainty plan is computed from.
DWELL = 0.05


# ---------------------------------------------------------------------------
# Subscription specs: the generated input, with the oracle's own semantics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubSpec:
    """A ``service=parking`` filter: a location range plus an optional cost bound.

    ``locations`` empty means no location constraint (a wide subscriber).
    ``cost`` is ``None``, ``("<", limit)`` or ``("between", low, high)``.
    :meth:`matches` and :meth:`covers` are the benchmark's own reading of
    the filter and never call into the program.
    """

    locations: Tuple[str, ...] = ()
    cost: Optional[Tuple] = None

    def template(self) -> Dict[str, object]:
        template: Dict[str, object] = {"service": "parking"}
        if self.locations:
            template["location"] = ("in", list(self.locations))
        if self.cost is not None:
            template["cost"] = self.cost
        return template

    @cached_property
    def location_set(self) -> frozenset:
        return frozenset(self.locations or LOCATIONS)

    def _cost_range(self) -> Tuple[float, float, bool]:
        """(low, high, high_inclusive) of accepted costs."""
        if self.cost is None:
            return (float("-inf"), float("inf"), True)
        if self.cost[0] == "<":
            return (float("-inf"), self.cost[1], False)
        return (self.cost[1], self.cost[2], True)

    def matches(self, location: str, cost: int) -> bool:
        if self.locations and location not in self.locations:
            return False
        low, high, inclusive = self._cost_range()
        return low <= cost and (cost <= high if inclusive else cost < high)

    def covers(self, other: "SubSpec") -> bool:
        """Whether every notification *other* accepts is accepted by this spec."""
        if not other.location_set <= self.location_set:
            return False
        low, high, inclusive = self._cost_range()
        other_low, other_high, other_inclusive = other._cost_range()
        if other_low < low:
            return False
        if other_high < high:
            return True
        return other_high == high and (inclusive or not other_inclusive)


WIDE = SubSpec()


def random_spec(rng: random.Random) -> SubSpec:
    span = rng.randint(1, 5)
    start = rng.randint(0, len(LOCATIONS) - span)
    draw = rng.random()
    cost: Optional[Tuple] = None
    if draw < 0.2:
        cost = ("<", rng.randint(2, 12))
    elif draw < 0.3:
        low = rng.randint(0, 10)
        cost = ("between", low, low + rng.randint(1, 4))
    return SubSpec(LOCATIONS[start : start + span], cost)


def random_attributes(rng: random.Random) -> Dict[str, object]:
    return {
        "service": "parking",
        "location": LOCATIONS[rng.randrange(len(LOCATIONS))],
        "cost": rng.randint(0, 14),
    }


@dataclass(frozen=True)
class Subscriber:
    """One plain subscription of one client at its first border broker."""

    client_id: str
    leaf: str
    subscription_id: str
    spec: SubSpec


@dataclass(frozen=True)
class LogicalSubscriber:
    client_id: str
    leaf: str
    subscription_id: str
    location: str


@dataclass(frozen=True)
class Op:
    """One generated client API call (plus the publishes that follow it).

    ``kind`` is ``publish``, ``subscribe``, ``unsubscribe``, ``move`` or
    ``locate``.  ``publishes`` lists attribute dicts published by the
    producer after the call (``count`` times each for a burst).
    """

    kind: str
    client_id: str = PRODUCER
    subscription_id: str = ""
    target: str = ""  # move: leaf broker; locate: location
    spec: Optional[SubSpec] = None
    publishes: Tuple[Dict[str, object], ...] = ()
    count: int = 1
    settle_first: bool = False  # settle the call before publishing
    revisit: bool = False  # move: the target lay on an earlier relocation path

    def describe(self) -> str:
        if self.kind == "publish":
            return "publish x{} {}".format(self.count, _attrs(self.publishes[0]))
        if self.kind in ("subscribe", "unsubscribe"):
            return "{} {}/{}".format(self.kind, self.client_id, self.subscription_id)
        return "{} {} -> {}".format(self.kind, self.client_id, self.target)


def _attrs(attributes: Dict[str, object]) -> str:
    return "{}/cost={}".format(attributes["location"], attributes["cost"])


# ---------------------------------------------------------------------------
# Sessions: one built network plus the oracle's ledger
# ---------------------------------------------------------------------------


@dataclass
class Session:
    network: PubSubNetwork
    clients: Dict[str, Client]
    #: Live plain subscriptions: (client, subscription) -> spec.
    live: Dict[Tuple[str, str], SubSpec]
    #: Logical subscriptions: (client, subscription) -> current location.
    logical: Dict[Tuple[str, str], str] = field(default_factory=dict)
    #: Location change points per logical client, for the epoch check.
    timelines: Dict[str, List[Tuple[float, str]]] = field(default_factory=dict)

    @property
    def producer(self) -> Client:
        return self.clients[PRODUCER]


class Workload:
    """Seeded standing population plus a per-round op generator."""

    name = ""
    backend = "sim"
    wide_cover = False
    #: Ops per measured round.  Rounds are long enough that ops hitting a
    #: full (generation-2) collection stay under 1% of the samples,
    #: so the p99 does not sit on the cliff between the two populations.
    ops_per_round = 0
    traced_ops_per_round = 0
    warmup_ops = 0
    #: Nominal wall time of one round (set-up, ops and checks) on the
    #: 2-core 2.1 GHz x86 machine the benchmark was tuned on.  A run of
    #: ``--seconds S`` does ``S // round_seconds`` rounds, so every run
    #: of a workload does the same work whatever the machine's speed.
    round_seconds = 1.0
    traced_round_seconds = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.topology = balanced_tree_topology(depth=3, fanout=2)
        leaves = self.topology.leaves()
        self.producer_leaf = leaves[0]
        self.subscriber_leaves = leaves[1:]
        rng = self._rng("standing")
        self.standing: List[Subscriber] = []
        for leaf_index, leaf in enumerate(self.subscriber_leaves):
            if self.wide_cover:
                self.standing.append(Subscriber("w-{}".format(leaf_index), leaf, "s", WIDE))
            for index in range(SUBSCRIBERS_PER_LEAF):
                client_id = "c-{}-{}".format(leaf_index, index)
                self.standing.append(Subscriber(client_id, leaf, "s", random_spec(rng)))

    def _rng(self, purpose: str) -> random.Random:
        return random.Random("{}:{}:{}".format(self.name, self.seed, purpose))

    # -- set-up ---------------------------------------------------------------
    def build(self) -> Session:
        """Build the network and settle the standing population (``setup_s``)."""
        get_covering_cache().clear()
        if self.backend == "sim":
            network = PubSubNetwork(self.topology, strategy="covering", latency=LATENCY)
        else:
            runtime = make_runtime(self.backend, latency=LATENCY)
            network = PubSubNetwork(self.topology, strategy="covering", runtime=runtime)
        producer = network.add_client(PRODUCER, self.producer_leaf)
        producer.advertise({"service": "parking"})
        session = Session(network=network, clients={PRODUCER: producer}, live={})
        for subscriber in self.standing:
            self._add_subscriber(session, subscriber)
        self._build_extra(session)
        network.settle()
        return session

    def _add_subscriber(self, session: Session, subscriber: Subscriber) -> None:
        client = session.network.add_client(subscriber.client_id, subscriber.leaf)
        session.clients[subscriber.client_id] = client
        client.subscribe(subscriber.spec.template(), subscription_id=subscriber.subscription_id)
        session.live[(subscriber.client_id, subscriber.subscription_id)] = subscriber.spec

    def _build_extra(self, session: Session) -> None:
        """Hook for workloads with more than the standing set."""

    # -- ops ------------------------------------------------------------------
    def ops(self, round_name: str, count: int) -> List[Op]:
        raise NotImplementedError

    def note(self, session: Session, op: Op) -> None:
        """Move the oracle's ledger to the state *op* establishes (untimed)."""
        key = (op.client_id, op.subscription_id)
        if op.kind == "subscribe":
            session.live[key] = op.spec
        elif op.kind == "unsubscribe":
            del session.live[key]
        elif op.kind == "locate":
            session.logical[key] = op.target
            session.timelines[op.client_id].append((session.network.now, op.target))

    def apply(self, session: Session, op: Op) -> None:
        """Issue *op*'s client calls and settle (the timed part of an op)."""
        network = session.network
        if op.kind == "subscribe":
            client = network.add_client(op.client_id, op.target)
            session.clients[op.client_id] = client
            client.subscribe(op.spec.template(), subscription_id=op.subscription_id)
        elif op.kind == "unsubscribe":
            session.clients[op.client_id].unsubscribe(op.subscription_id)
        elif op.kind == "move":
            session.clients[op.client_id].move_to(network.broker(op.target))
        elif op.kind == "locate":
            session.clients[op.client_id].set_location(op.target)
        if op.settle_first:
            network.settle()
        producer = session.producer
        for attributes in op.publishes:
            for _ in range(op.count):
                producer.publish(attributes)
        network.settle()

    def between_ops(self, session: Session) -> None:
        """Untimed work between two ops (none by default)."""

    def sample_keys(self) -> List[Tuple[str, str]]:
        """Subscriptions the repo's own checkers re-verify each round."""
        rng = self._rng("sample")
        wide = [s for s in self.standing if s.spec == WIDE]
        picked = rng.sample([s for s in self.standing if s.spec != WIDE], SAMPLE_STANDING)
        return [(s.client_id, s.subscription_id) for s in wide + picked]

    # -- recorded input properties --------------------------------------------
    def input_properties(self, ops: Sequence[Op]) -> Dict[str, float]:
        """Properties of the generated input an optimisation may depend on."""
        bursts = sum(1 for op in ops if op.kind == "publish" and op.count > 1)
        moves = [op for op in ops if op.kind == "move"]
        return {
            "burst_share": bursts / len(ops) if ops else 0.0,
            "covered_share": self.covered_share,
            "revisit_share": (
                sum(1 for op in moves if op.revisit) / len(moves) if moves else 0.0
            ),
        }

    @cached_property
    def covered_share(self) -> float:
        """Share of standing subscriptions covered by another at their border broker."""
        covered = 0
        by_leaf: Dict[str, List[SubSpec]] = {}
        for subscriber in self.standing:
            by_leaf.setdefault(subscriber.leaf, []).append(subscriber.spec)
        for specs in by_leaf.values():
            for index, spec in enumerate(specs):
                if any(
                    other_index != index and other.covers(spec)
                    for other_index, other in enumerate(specs)
                ):
                    covered += 1
        return covered / len(self.standing)


class PublishFanout(Workload):
    name = "publish-fanout"
    backend = "sim"
    wide_cover = True
    ops_per_round = 1600
    traced_ops_per_round = 400
    warmup_ops = 60
    round_seconds = 12.0
    traced_round_seconds = 5.0

    def ops(self, round_name: str, count: int) -> List[Op]:
        rng = self._rng("ops:" + round_name)
        out = []
        for _ in range(count):
            burst = rng.random() < BURST_SHARE
            out.append(
                Op(
                    "publish",
                    publishes=(random_attributes(rng),),
                    count=BURST_SIZE if burst else 1,
                )
            )
        return out


class SubscriptionChurn(Workload):
    name = "subscription-churn"
    backend = "sim"
    wide_cover = False
    ops_per_round = 2000
    traced_ops_per_round = 1000
    warmup_ops = 150
    round_seconds = 6.0
    traced_round_seconds = 5.0

    def ops(self, round_name: str, count: int) -> List[Op]:
        rng = self._rng("ops:" + round_name)
        live = [(s.client_id, s.subscription_id) for s in self.standing]
        out = []
        for index in range(count):
            publishes = (random_attributes(rng),) if (index + 1) % PUBLISH_EVERY == 0 else ()
            if rng.random() < 0.5 or not live:
                client_id = "f-{}-{}".format(round_name, index)
                leaf = self.subscriber_leaves[rng.randrange(len(self.subscriber_leaves))]
                op = Op(
                    "subscribe",
                    client_id=client_id,
                    subscription_id="s",
                    target=leaf,
                    spec=random_spec(rng),
                    publishes=publishes,
                    settle_first=True,
                )
                live.append((client_id, "s"))
            else:
                position = rng.randrange(len(live))
                live[position], live[-1] = live[-1], live[position]
                client_id, subscription_id = live.pop()
                op = Op(
                    "unsubscribe",
                    client_id=client_id,
                    subscription_id=subscription_id,
                    publishes=publishes,
                    settle_first=True,
                )
            out.append(op)
        return out


class Roaming(Workload):
    name = "roaming"
    backend = "aio-memory"
    wide_cover = True
    ops_per_round = 1600
    traced_ops_per_round = 300
    warmup_ops = 60
    round_seconds = 30.0
    traced_round_seconds = 12.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = self._rng("mobile")
        leaves = [self.producer_leaf] + list(self.subscriber_leaves)
        self.roamers = [
            Subscriber("r-{}".format(index), rng.choice(leaves), "s", random_spec(rng))
            for index in range(ROAMERS)
        ]
        self.logical_subscribers = [
            LogicalSubscriber(
                "l-{}".format(index),
                rng.choice(leaves),
                "s",
                LOCATIONS[rng.randrange(len(LOCATIONS))],
            )
            for index in range(LOGICAL_SUBSCRIBERS)
        ]
        self.movement_graph = MovementGraph.line(LOCATIONS)
        hops = self.topology.diameter()
        self.plan = UncertaintyPlan.adaptive(dwell_time=DWELL, hop_delays=[LATENCY] * hops)

    def _build_extra(self, session: Session) -> None:
        network = session.network
        for roamer in self.roamers:
            self._add_subscriber(session, roamer)
        for logical in self.logical_subscribers:
            client = network.add_client(logical.client_id, logical.leaf)
            session.clients[logical.client_id] = client
            client.subscribe_location_dependent(
                {"service": "parking", "location": MYLOC},
                movement_graph=self.movement_graph,
                plan=self.plan,
                initial_location=logical.location,
                subscription_id=logical.subscription_id,
            )
            key = (logical.client_id, logical.subscription_id)
            session.logical[key] = logical.location
            session.timelines[logical.client_id] = [(network.now, logical.location)]

    def ops(self, round_name: str, count: int) -> List[Op]:
        rng = self._rng("ops:" + round_name)
        leaves = [self.producer_leaf] + list(self.subscriber_leaves)
        where = {roamer.client_id: roamer.leaf for roamer in self.roamers}
        visited: Dict[str, Set[str]] = {roamer.client_id: set() for roamer in self.roamers}
        location = {logical.client_id: logical.location for logical in self.logical_subscribers}
        out = []
        for index in range(count):
            publishes = (random_attributes(rng), random_attributes(rng))
            if index % 2 == 0:
                roamer = self.roamers[rng.randrange(len(self.roamers))].client_id
                target = rng.choice([leaf for leaf in leaves if leaf != where[roamer]])
                path = self.topology.path(where[roamer], target)
                out.append(
                    Op(
                        "move",
                        client_id=roamer,
                        subscription_id="s",
                        target=target,
                        publishes=publishes,
                        revisit=target in visited[roamer],
                    )
                )
                visited[roamer].update(path)
                where[roamer] = target
            else:
                logical = self.logical_subscribers[rng.randrange(len(self.logical_subscribers))]
                neighbours = self.movement_graph.neighbours(location[logical.client_id])
                target = neighbours[rng.randrange(len(neighbours))]
                out.append(
                    Op(
                        "locate",
                        client_id=logical.client_id,
                        subscription_id=logical.subscription_id,
                        target=target,
                        publishes=publishes,
                    )
                )
                location[logical.client_id] = target
        return out

    def sample_keys(self) -> List[Tuple[str, str]]:
        mobile = [(r.client_id, r.subscription_id) for r in self.roamers] + [
            (l.client_id, l.subscription_id) for l in self.logical_subscribers
        ]
        return super().sample_keys() + mobile

    def between_ops(self, session: Session) -> None:
        session.network.run_for(DWELL)


WORKLOADS = {cls.name: cls for cls in (PublishFanout, SubscriptionChurn, Roaming)}
