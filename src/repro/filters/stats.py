"""Data-plane work counters: one sink per broker, one hot-path pointer.

The data-plane benchmarks compare how much *raw* matching and merging work
the different dispatch implementations perform for the same workload.  One
:class:`DataPlaneStats` sink holds every such counter; its field names are
the keys of :func:`repro.metrics.counters.data_plane_breakdown`:

* ``constraint_evals`` / ``filter_matches`` — raw evaluations by
  :meth:`repro.filters.filter.Filter.matches` (the scan path's unit of
  work) plus the residual evaluations of the counting index, so
  ``constraint_evals`` is the mode-independent total;
* ``dispatch_*`` — the counting engine's own accounting;
* ``merge_try_merge_calls`` — genuine (uncached)
  :func:`repro.filters.merging.try_merge_pair` runs.

Every broker owns one sink inside its
:class:`~repro.telemetry.registry.MetricRegistry`.  Hot paths write to
the module-level :data:`current` sink; broker entry points point it at
their own registry's sink for the duration of the call (execution is
single-threaded on both runtime backends, so save/restore nests safely).
Outside any broker (direct ``Filter.matches`` calls in tests, the QoS and
blackout checkers) :data:`current` is the :data:`unattributed` sink.

There is no process-wide total: totals are summed over the brokers a
caller names (:func:`repro.metrics.counters.data_plane_breakdown`).

This module is a dependency leaf: it must not import anything from
:mod:`repro.filters` so that :mod:`repro.filters.filter` can use it.
"""

from __future__ import annotations

from typing import Dict


class DataPlaneStats:
    """One sink of data-plane work counters (see module docstring)."""

    __slots__ = (
        # Raw ``Constraint.matches`` evaluations, scan and counting alike.
        "constraint_evals",
        # Whole-filter ``Filter.matches`` evaluations.
        "filter_matches",
        # Counting passes performed (one per notification per broker).
        "dispatch_matches",
        # Predicates satisfied across all passes (bucket/bisect hits).
        "dispatch_satisfied_predicates",
        # Per-filter count bumps (the inner loop of the counting pass).
        "dispatch_count_increments",
        # Matches decided by the arity-1 fast path: a satisfied predicate
        # whose filter has exactly one predicate is a match immediately,
        # with no counter bump.
        "dispatch_arity1_fast_matches",
        # Raw evaluations the counting index could not answer from its
        # buckets (also counted in ``constraint_evals``).
        "dispatch_constraint_evals",
        # Filters reported as matching across all passes.
        "dispatch_filters_matched",
        # Notification groups (same attribute signature inside one link
        # flush) whose match result was computed once and reused.
        "dispatch_batched_groups",
        # Genuine ``try_merge_pair`` runs (merge-cache hits excluded).
        "merge_try_merge_calls",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for field in DataPlaneStats.__slots__:
            setattr(self, field, 0)

    def snapshot(self) -> Dict[str, int]:
        """Counter values keyed by breakdown name, in slot order."""
        return {field: getattr(self, field) for field in DataPlaneStats.__slots__}


#: The sink for work done outside any broker entry point.
unattributed = DataPlaneStats()

#: The sink hot paths write to; broker entry points swap it to their own
#: registry's sink and restore it on exit.
current = unattributed
