"""The counting pass mapping satisfied predicates back to filters.

Classic counting-based matching (Yan/Garcia-Molina; Fabret et al.,
SIGMOD 2001; Siena's counting algorithm, Carzaniga & Wolf, SIGCOMM
2003): after the :class:`~repro.dispatch.predicate_index.PredicateIndex`
has produced the set of predicates a notification satisfies, bump a
per-filter counter for every filter referencing each satisfied predicate.
A filter matches exactly when its counter reaches its arity (its number
of presence-requiring predicates), because each predicate fires at most
once per notification.

:class:`CountingMatcher` keeps flat per-fid scratch arrays with a
generation stamp, so a counting pass allocates nothing and never needs
to reset the arrays.  Its equivalence with brute-force
``Filter.matches`` is pinned in ``tests/dispatch/test_predicate_index.py``
and ``tests/dispatch/test_counting.py``.
"""

from __future__ import annotations

from typing import Any, List, Mapping

from repro.dispatch.predicate_index import PredicateIndex
from repro.filters import stats as data_plane_stats
from repro.filters.filter import Filter


class CountingMatcher:
    """Evaluate notifications against a :class:`PredicateIndex` by counting."""

    __slots__ = ("index", "_counts", "_stamps", "_generation")

    def __init__(self, index: PredicateIndex) -> None:
        self.index = index
        self._counts: List[int] = []
        self._stamps: List[int] = []
        self._generation = 0

    def match(self, attributes: Mapping[str, Any]) -> List[Filter]:
        """All registered filters matching *attributes* (arbitrary order)."""
        index = self.index
        fid_filter = index.fid_filter
        matched_fids = self.match_fids(attributes)
        return [fid_filter[fid] for fid in matched_fids]

    def match_fids(self, attributes: Mapping[str, Any]) -> List[int]:
        """Fids of the matching filters (the allocation-light core)."""
        index = self.index
        satisfied = index.satisfied_pids(attributes)
        counts = self._counts
        stamps = self._stamps
        capacity = len(index.fid_filter)
        if len(counts) < capacity:
            grow = capacity - len(counts)
            counts.extend([0] * grow)
            stamps.extend([0] * grow)
        self._generation += 1
        generation = self._generation
        pid_fids = index.pid_fids
        fid_arity = index.fid_arity
        matched: List[int] = list(index.always_fids)
        increments = 0
        arity1_skips = 0
        for pid in satisfied:
            for fid in pid_fids[pid]:
                arity = fid_arity[fid]
                if arity == 1:
                    # Arity-1 fast path: this satisfied predicate is the
                    # filter's only predicate, so the filter matches right
                    # here — no counter bump, no stamp.  (Each predicate
                    # fires at most once per notification, so the fid
                    # cannot be appended twice.)
                    arity1_skips += 1
                    matched.append(fid)
                    continue
                increments += 1
                if stamps[fid] != generation:
                    stamps[fid] = generation
                    count = 1
                else:
                    count = counts[fid] + 1
                counts[fid] = count
                if count == arity:
                    matched.append(fid)
        stats = data_plane_stats.current
        if index.opaque_fids:
            fid_filter = index.fid_filter
            for fid in index.opaque_fids:
                # A whole-filter evaluation the index could not answer
                # from its buckets: counted like the residual evals.
                stats.dispatch_constraint_evals += 1
                if fid_filter[fid].matches(attributes):
                    matched.append(fid)
        stats.dispatch_matches += 1
        stats.dispatch_satisfied_predicates += len(satisfied)
        stats.dispatch_count_increments += increments
        stats.dispatch_arity1_fast_matches += arity1_skips
        stats.dispatch_filters_matched += len(matched)
        return matched
