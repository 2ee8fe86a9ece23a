"""Unit tests for the standalone I-WNP algorithm."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.metablocking import iwnp, iwnp_counts, iwnp_select


class TestIwnpCounts:
    def test_counts_multiplicities(self):
        assert iwnp_counts([1, 2, 2, 3]) == {1: 1, 2: 2, 3: 1}

    def test_empty(self):
        assert iwnp_counts([]) == {}


class TestIwnpSelect:
    def test_average_threshold(self):
        assert iwnp_select({1: 1, 2: 2}) == [2]  # avg 1.5

    def test_uniform_counts_all_kept(self):
        assert sorted(iwnp_select({1: 3, 2: 3})) == [1, 2]

    def test_empty(self):
        assert iwnp_select({}) == []


class TestIwnp:
    def test_paper_example(self):
        """C_4 = {(e4,e1), (e4,e2), (e4,e2)} → C'_4 = {(e4,e2)}."""
        assert iwnp([1, 2, 2]) == [2]

    @given(st.lists(st.integers(min_value=0, max_value=10)))
    def test_output_is_deduplicated_subset(self, candidates):
        kept = iwnp(candidates)
        assert len(kept) == len(set(kept))
        assert set(kept) <= set(candidates)

    @given(st.lists(st.integers(min_value=0, max_value=10), min_size=1))
    def test_max_count_candidate_always_survives(self, candidates):
        counts = iwnp_counts(candidates)
        best = max(counts, key=lambda c: counts[c])
        assert best in iwnp(candidates)

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1))
    def test_survivors_meet_threshold(self, candidates):
        counts = iwnp_counts(candidates)
        avg = sum(counts.values()) / len(counts)
        for survivor in iwnp(candidates):
            assert counts[survivor] >= avg


def _dict_loop_counts(candidates):
    """The hand-written grouping loop ``Counter`` replaced."""
    counts = {}
    for candidate in candidates:
        counts[candidate] = counts.get(candidate, 0) + 1
    return counts


class TestCounterEqualsDictLoop:
    """``Counter`` counts in C; it must not change a count or an order."""

    @given(st.lists(st.integers(min_value=0, max_value=12)))
    def test_same_counts_in_first_occurrence_order(self, candidates):
        assert list(iwnp_counts(candidates).items()) == list(
            _dict_loop_counts(candidates).items()
        )

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 8))))
    def test_same_survivors_in_same_order(self, candidates):
        expected = iwnp_select(_dict_loop_counts(candidates))
        assert iwnp(candidates) == expected
        assert iwnp_select(iwnp_counts(candidates)) == expected
