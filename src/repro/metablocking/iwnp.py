"""I-WNP — the paper's incremental variant of CBS weighting + WNP pruning.

Unlike classical meta-blocking, I-WNP never materializes a blocking graph:
it operates on the comparison list ``C_i`` of the *currently processed*
entity only (Algorithm 3).  Candidates are grouped by partner id, the group
count is the CBS weight, and the local threshold is the average count; only
groups at or above the average survive.

This module exposes the algorithm standalone so that both the core pipeline
stage and the PI-Block baseline can reuse it.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Iterable, TypeVar

T = TypeVar("T", bound=Hashable)


def iwnp_counts(candidates: Iterable[T]) -> dict[T, int]:
    """Group candidates and count multiplicities (the CBS weights).

    ``Counter`` counts in C and keeps first-occurrence order.
    """
    return Counter(candidates)


def iwnp_select(counts: dict[T, int]) -> list[T]:
    """Keep candidates whose count is at least the average count."""
    if not counts:
        return []
    avg = sum(counts.values()) / len(counts)
    return [candidate for candidate, count in counts.items() if count >= avg]


def iwnp(candidates: Iterable[T]) -> list[T]:
    """Full I-WNP pass: dedupe by grouping, prune by average-count threshold."""
    return iwnp_select(iwnp_counts(candidates))
