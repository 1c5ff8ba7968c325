"""Counting-based dispatch: the compiled notification data plane.

The broker's notification hot path used to evaluate routing-table filters
one by one (``filters/matching.py``'s candidate engine) and gate
subscription forwarding with a linear overlap scan over advertisement
entries.  This package replaces both with indexed, incrementally
maintained structures:

* :class:`~repro.dispatch.predicate_index.PredicateIndex` — routing-table
  filters decomposed into shared atomic constraints, indexed by
  ``(attribute, operator class)``;
* :class:`~repro.dispatch.counting.CountingMatcher` — the counting pass
  mapping satisfied predicates back to matching filters;
* :class:`~repro.dispatch.plan.DispatchPlan` — the per-broker plan wiring
  both to the routing tables' row-level deltas, plus the per-neighbour
  :class:`~repro.dispatch.plan.AdvertisementOverlapIndex` behind the
  ``_advertised_via`` gate.

Gated by :attr:`repro.broker.base.BrokerConfig.indexed_dispatch`
(default on); the scan path remains the byte-identical oracle.
"""

from repro.dispatch.counting import CountingMatcher
from repro.dispatch.plan import AdvertisementOverlapIndex, DispatchPlan
from repro.dispatch.predicate_index import PredicateIndex

__all__ = [
    "AdvertisementOverlapIndex",
    "CountingMatcher",
    "DispatchPlan",
    "PredicateIndex",
]
