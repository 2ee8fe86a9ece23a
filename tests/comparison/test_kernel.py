"""Unit and property tests for the interned comparison kernel.

The kernel's contract is *bit-identical* scores and match decisions versus
the string-set similarity functions — not approximate equality — so every
parity assertion here uses ``==`` on floats deliberately.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.comparison import (
    SET_SIMILARITIES,
    InternedComparator,
    jaccard_verify,
    similarity_bound,
    similarity_from_intersection,
)
from repro.errors import ConfigurationError
from repro.reading import TokenDictionary
from repro.types import Comparison, Profile

id_sets = st.sets(st.integers(min_value=0, max_value=200), max_size=30)
token_sets = st.sets(st.sampled_from([f"tok{i}" for i in range(40)]), max_size=12)
measures = st.sampled_from(sorted(SET_SIMILARITIES))


def interned_profile(eid, tokens, dictionary):
    tokens = frozenset(tokens)
    return Profile(
        eid=eid,
        attributes=(("t", " ".join(sorted(tokens))),),
        tokens=tokens,
        token_ids=dictionary.intern_set(tokens),
    )


def string_profile(eid, tokens):
    tokens = frozenset(tokens)
    return Profile(
        eid=eid, attributes=(("t", " ".join(sorted(tokens))),), tokens=tokens
    )


def jaccard_of(a, b) -> float:
    return similarity_from_intersection("jaccard", len(a & b), len(a), len(b))


@st.composite
def verify_cases(draw):
    """A left set, right sets, and a threshold on (or one ulp beside) a score."""
    a = frozenset(draw(id_sets))
    others = [frozenset(b) for b in draw(st.lists(id_sets, max_size=8))]
    thresholds = [0.3, 0.5, 1.0]
    for b in others:
        score = jaccard_of(a, b)
        thresholds += [score, math.nextafter(score, 0.0), math.nextafter(score, 2.0)]
    thr = draw(st.sampled_from([t for t in thresholds if 0.0 < t <= 1.0]))
    return a, others, thr


class TestJaccardVerify:
    @given(verify_cases(), st.booleans())
    def test_equals_similarity_from_intersection(self, case, prefilter):
        a, others, thr = case
        hits, skipped = jaccard_verify(a, others, thr, prefilter)
        expected = [
            (k, jaccard_of(a, b)) for k, b in enumerate(others)
            if jaccard_of(a, b) >= thr
        ]
        assert hits == expected
        if not prefilter:
            assert skipped == 0

    @given(verify_cases())
    def test_prefilter_skips_exactly_the_bounded_pairs(self, case):
        a, others, thr = case
        _, skipped = jaccard_verify(a, others, thr, prefilter=True)
        assert skipped == sum(
            1 for b in others
            if (a or b) and similarity_bound("jaccard", len(a), len(b)) < thr
        )

    def test_empty_sides(self):
        empty = frozenset()
        one = frozenset({1})
        # Two empty sets score 1.0 at any threshold; a one-sided empty set
        # is prefiltered (bound 0) or, without the prefilter, scores 0.0.
        assert jaccard_verify(empty, [empty, one], 1.0) == ([(0, 1.0)], 1)
        assert jaccard_verify(one, [empty], 0.5) == ([], 1)
        assert jaccard_verify(empty, [empty, one], 1.0, prefilter=False) == (
            [(0, 1.0)],
            0,
        )


class TestBounds:
    def test_known_values(self):
        assert similarity_bound("jaccard", 2, 4) == 0.5
        assert similarity_bound("dice", 2, 4) == pytest.approx(2 / 3)
        assert similarity_bound("cosine", 1, 4) == 0.5
        assert similarity_bound("overlap", 1, 1000) == 1.0

    @given(measures, token_sets, token_sets)
    def test_bound_dominates_actual_similarity(self, measure, a, b):
        if not a or not b:
            return
        bound = similarity_bound(measure, len(a), len(b))
        assert SET_SIMILARITIES[measure](a, b) <= bound + 1e-12


class TestSimilarityFromIntersection:
    @given(measures, token_sets, token_sets)
    def test_bitwise_parity_with_set_functions(self, measure, a, b):
        value = similarity_from_intersection(measure, len(a & b), len(a), len(b))
        assert value == SET_SIMILARITIES[measure](a, b)

    def test_two_empty_sets_score_one(self):
        for measure in SET_SIMILARITIES:
            assert similarity_from_intersection(measure, 0, 0, 0) == 1.0

    def test_unknown_measure_raises(self):
        with pytest.raises(ConfigurationError):
            similarity_from_intersection("hamming", 1, 2, 3)


class TestInternedComparatorValidation:
    def test_rejects_unknown_measure(self):
        with pytest.raises(ConfigurationError):
            InternedComparator(measure="hamming")

    def test_rejects_out_of_range_threshold(self):
        with pytest.raises(ConfigurationError):
            InternedComparator(threshold=1.5)
        with pytest.raises(ConfigurationError):
            InternedComparator(threshold=-0.1)

    def test_accepts_none_threshold(self):
        assert InternedComparator(threshold=None).threshold is None


class TestInternedComparatorScore:
    @given(measures, token_sets, token_sets)
    def test_score_on_ids_equals_string_similarity(self, measure, a, b):
        d = TokenDictionary()
        left = interned_profile(1, a, d)
        right = interned_profile(2, b, d)
        comparator = InternedComparator(measure=measure)
        assert comparator.score(left, right) == SET_SIMILARITIES[measure](a, b)

    def test_mixed_pair_falls_back_to_strings(self):
        d = TokenDictionary()
        left = interned_profile(1, {"x", "y"}, d)
        right = string_profile(2, {"y", "z"})
        assert InternedComparator().score(left, right) == pytest.approx(1 / 3)

    def test_compare_preserves_comparison_identity(self):
        d = TokenDictionary()
        comparison = Comparison(
            interned_profile(1, {"x"}, d), interned_profile(2, {"x"}, d)
        )
        scored = InternedComparator().compare(comparison)
        assert scored.comparison is comparison
        assert scored.similarity == 1.0


def batch_for(pairs, dictionary=None):
    comparisons = []
    for eid, (a, b) in enumerate(pairs):
        if dictionary is not None:
            left = interned_profile((eid, "l"), a, dictionary)
            right = interned_profile((eid, "r"), b, dictionary)
        else:
            left = string_profile((eid, "l"), a)
            right = string_profile((eid, "r"), b)
        comparisons.append(Comparison(left, right))
    return comparisons


class TestCompareBatch:
    @given(
        measures,
        st.lists(st.tuples(token_sets, token_sets), max_size=12),
        st.booleans(),
    )
    def test_no_threshold_emits_every_pair_exactly(self, measure, pairs, interned):
        d = TokenDictionary() if interned else None
        comparisons = batch_for(pairs, d)
        comparator = InternedComparator(measure=measure, threshold=None)
        scored = comparator.compare_batch(comparisons)
        assert [s.comparison for s in scored] == comparisons
        assert [s.similarity for s in scored] == [
            SET_SIMILARITIES[measure](a, b) for a, b in pairs
        ]

    @given(
        measures,
        st.lists(st.tuples(token_sets, token_sets), max_size=12),
        st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]),
        st.booleans(),
        st.booleans(),
    )
    def test_threshold_emits_exactly_the_matchable_pairs(
        self, measure, pairs, threshold, prefilter, interned
    ):
        d = TokenDictionary() if interned else None
        comparisons = batch_for(pairs, d)
        comparator = InternedComparator(
            measure=measure, threshold=threshold, prefilter=prefilter
        )
        scored = comparator.compare_batch(comparisons)
        expected = [
            (c, SET_SIMILARITIES[measure](a, b))
            for c, (a, b) in zip(comparisons, pairs)
            if SET_SIMILARITIES[measure](a, b) >= threshold
        ]
        assert [(s.comparison, s.similarity) for s in scored] == expected

    def test_prefilter_on_and_off_agree(self):
        d = TokenDictionary()
        pairs = [
            ({"a"}, {"a", "b", "c", "d"}),  # prefiltered at 0.5
            ({"a", "b"}, {"a", "b"}),
            (set(), set()),
            ({"a"}, set()),
            ({"q", "r", "s"}, {"q", "r", "t"}),
        ]
        comparisons = batch_for(pairs, d)
        on = InternedComparator(threshold=0.5, prefilter=True)
        off = InternedComparator(threshold=0.5, prefilter=False)
        assert [
            (s.comparison, s.similarity) for s in on.compare_batch(comparisons)
        ] == [(s.comparison, s.similarity) for s in off.compare_batch(comparisons)]

    def test_two_empty_sets_emit_at_any_threshold(self):
        d = TokenDictionary()
        comparisons = batch_for([(set(), set())], d)
        scored = InternedComparator(threshold=1.0).compare_batch(comparisons)
        assert [s.similarity for s in scored] == [1.0]

    def test_alternating_lefts_defeat_run_caching_safely(self):
        # The jaccard hot loop caches the left profile across a run of
        # pairs; alternating distinct lefts must still score each pair on
        # its own sets.
        d = TokenDictionary()
        p1 = interned_profile(1, {"a", "b"}, d)
        p2 = interned_profile(2, {"c", "d"}, d)
        p3 = interned_profile(3, {"a", "b"}, d)
        comparisons = [
            Comparison(p1, p3),
            Comparison(p2, p3),
            Comparison(p1, p3),
        ]
        scored = InternedComparator(threshold=None).compare_batch(comparisons)
        assert [s.similarity for s in scored] == [1.0, 0.0, 1.0]

    def test_mixed_interned_and_plain_profiles_in_one_batch(self):
        d = TokenDictionary()
        interned_left = interned_profile(1, {"x", "y"}, d)
        plain = string_profile(2, {"x", "y"})
        interned_other = interned_profile(3, {"x", "z"}, d)
        comparisons = [
            Comparison(interned_left, plain),  # falls back to strings
            Comparison(interned_left, interned_other),  # back on ids
            Comparison(plain, interned_other),  # strings again
        ]
        scored = InternedComparator(threshold=None).compare_batch(comparisons)
        assert [s.similarity for s in scored] == [
            1.0,
            pytest.approx(1 / 3),
            pytest.approx(1 / 3),
        ]
