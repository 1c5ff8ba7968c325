"""A matcher built before its index is populated must stay exact.

A broker creates its ``CountingMatcher`` when it starts, long before any
subscription arrives, so the matcher's generation-stamped scratch arrays
grow under it as the index fills.  ``tests/dispatch/test_predicate_index.py``
builds the matcher over an already-populated index; these tests build it
over an empty one and populate afterwards, and check it against a freshly
built matcher and brute-force ``Filter.matches`` — including ``MatchAll``,
``MatchNone``, attribute absence, arity-1 and opaque-filter edge cases.

The test names date from when this module also covered a bitset matcher,
since removed; the long-lived counting matcher takes its place here.
"""

from hypothesis import given, settings, strategies as st

from repro.dispatch.counting import CountingMatcher
from repro.dispatch.predicate_index import PredicateIndex
from repro.filters.filter import Filter, MatchAll, MatchNone

from tests.dispatch.test_predicate_index import (
    F,
    any_filters,
    notifications,
)


def make_live_matcher(*filters):
    """An index observed by a ``CountingMatcher`` from birth, then populated."""
    index = PredicateIndex()
    matcher = CountingMatcher(index)
    for filter_ in filters:
        index.add(filter_)
    return index, matcher


def keys_of(matched):
    return {filter_.key() for filter_ in matched}


def expected_keys(live, notification):
    return {
        f.key() for f in live if not isinstance(f, MatchNone) and f.matches(notification)
    }


@settings(max_examples=300, deadline=None)
@given(filters=st.lists(any_filters(), max_size=8), notification=notifications())
def test_bitset_match_equals_counting_and_brute_force(filters, notification):
    index, live = make_live_matcher(*filters)
    fresh = CountingMatcher(index)
    expected = expected_keys(filters, notification)
    assert keys_of(live.match(notification)) == expected
    assert keys_of(fresh.match(notification)) == expected


class TestEdgeCases:
    def test_match_all_and_arity1_filters(self):
        _, matcher = make_live_matcher(MatchAll(), F(service="parking"))
        assert len(matcher.match({})) == 1
        assert len(matcher.match({"service": "parking"})) == 2

    def test_match_none_is_rejected_by_the_index(self):
        index = PredicateIndex()
        matcher = CountingMatcher(index)
        assert index.add(MatchNone()) is False
        assert matcher.match({"a": 1}) == []

    def test_absent_attribute_fails_presence_constraints(self):
        _, matcher = make_live_matcher(F(service="parking", cost=("<", 3)))
        assert not matcher.match({"service": "parking"})
        assert matcher.match({"service": "parking", "cost": 2})

    def test_opaque_subclass_is_evaluated_whole(self):
        class Oddball(Filter):
            __slots__ = ()

            def matches(self, attributes):
                return attributes.get("cost", 0) % 2 == 1

        odd = Oddball({"service": "parking"})
        index, matcher = make_live_matcher(odd)
        assert index.opaque_fids
        assert keys_of(matcher.match({"cost": 3})) == {odd.key()}
        assert matcher.match({"cost": 2}) == []
