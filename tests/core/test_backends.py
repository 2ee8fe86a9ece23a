"""State backends: the in-memory default and the stores behind it.

The differential suite proves end-to-end equivalence; these tests pin the
store-level contracts — the protocol every backend satisfies and the O(1)
size accounting of :class:`BlockCollection`.
"""

from __future__ import annotations

import pytest

from repro.core.backends import (
    DurabilityConfig,
    DurableBackend,
    InMemoryBackend,
    SharedMemoryBackend,
    StateBackend,
)
from repro.core.stages import CandidateComparisons, ComparisonCleaningStage
from repro.core.state import BlockCollection
from repro.metablocking.iwnp import iwnp_counts
from repro.types import Profile


def _candidates(*partners):
    profile = Profile(eid=9, attributes=(), tokens=frozenset())
    return CandidateComparisons(profile=profile, candidates=list(partners))


class TestCooccurrenceCounter:
    """``f_cc`` tallies block co-occurrences per partner with
    ``iwnp_counts``: with multiplicity, in first-occurrence order."""

    @pytest.mark.parametrize("counter", [ComparisonCleaningStage()])
    def test_counts_with_multiplicity(self, counter):
        assert iwnp_counts(["b", "a", "b", "c", "b"]) == {"b": 3, "a": 1, "c": 1}
        retained = counter.retained
        # avg = 5/3 → only the thrice-shared b survives.
        assert counter(_candidates("b", "a", "b", "c", "b")).candidates == ["b"]
        assert counter.retained - retained == 1

    @pytest.mark.parametrize("counter", [ComparisonCleaningStage()])
    def test_first_occurrence_order(self, counter):
        assert list(iwnp_counts(["z", "a", "z", "m"])) == ["z", "a", "m"]
        # counts: z→2, a→2, m→1; avg = 5/3 → z and a, in arrival order.
        generated = _candidates("z", "a", "z", "m", "a")
        assert counter(generated).candidates == ["z", "a"]
        disabled = ComparisonCleaningStage(enabled=False)
        assert disabled(generated).candidates == ["z", "a", "m"]


class TestBlockCollectionCounters:
    """sizes()/total_assignments()/total_comparisons() are O(1) counters;
    they must track add/remove_block/discard exactly."""

    def test_add_and_sizes(self):
        blocks = BlockCollection()
        assert blocks.add("k", 1) == 1
        assert blocks.add("k", 2) == 2
        assert blocks.add("other", 3) == 1
        assert dict(blocks.sizes()) == {"k": 2, "other": 1}
        assert blocks.total_assignments() == 3
        assert blocks.total_comparisons() == 1

    def test_remove_block_updates_counters(self):
        blocks = BlockCollection()
        for eid in (1, 2, 3):
            blocks.add("k", eid)
        blocks.add("other", 4)
        blocks.remove_block("k")
        assert "k" not in blocks
        assert dict(blocks.sizes()) == {"other": 1}
        assert blocks.total_assignments() == 1
        assert blocks.total_comparisons() == 0

    def test_discard_updates_counters_and_drops_empty_blocks(self):
        blocks = BlockCollection()
        blocks.add("k", 1)
        blocks.add("k", 2)
        assert blocks.discard("k", 1) is True
        assert dict(blocks.sizes()) == {"k": 1}
        assert blocks.total_assignments() == 1
        assert blocks.total_comparisons() == 0
        assert blocks.discard("k", 99) is False
        assert blocks.discard("k", 2) is True
        assert "k" not in blocks
        assert dict(blocks.sizes()) == {}

    def test_counters_match_recount_after_mixed_operations(self):
        blocks = BlockCollection()
        for i in range(20):
            blocks.add(f"k{i % 4}", i)
        blocks.remove_block("k0")
        blocks.discard("k1", 1)
        recount_assignments = sum(len(b) for _, b in blocks.items())
        recount_comparisons = sum(
            len(b) * (len(b) - 1) // 2 for _, b in blocks.items()
        )
        assert blocks.total_assignments() == recount_assignments
        assert blocks.total_comparisons() == recount_comparisons
        assert dict(blocks.sizes()) == {k: len(b) for k, b in blocks.items()}


class TestBackends:
    def test_both_satisfy_the_protocol(self, tmp_path):
        assert isinstance(InMemoryBackend(), StateBackend)
        with SharedMemoryBackend() as shared:
            assert isinstance(shared, StateBackend)
        durable = DurableBackend(
            InMemoryBackend(), DurabilityConfig(wal_dir=str(tmp_path / "wal"))
        )
        try:
            assert isinstance(durable, StateBackend)
        finally:
            durable.close()

    def test_in_memory_accepts_injected_components(self):
        blocks = BlockCollection()
        blocks.add("k", 1)
        backend = InMemoryBackend(blocks=blocks)
        assert backend.blocks is blocks
        assert backend.state().blocks is blocks
