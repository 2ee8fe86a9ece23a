"""Building standardized profiles from raw entity descriptions.

This is the heart of the data-reading step ``f_dr``: given ``e_i`` it
produces the standardized profile ``p_i`` and the blocking-key set ``K_i``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.reading.interning import TokenDictionary
from repro.reading.standardize import Standardizer
from repro.reading.tokenize import Tokenizer
from repro.types import EntityDescription, Profile


@dataclass(frozen=True)
class ProfileBuilder:
    """Combines a :class:`Standardizer` and a :class:`Tokenizer`.

    ``build`` implements the data-reading function of the functional model:
    it standardizes attribute values and derives the blocking keys ``K_i``
    from the standardized values (token blocking keys).

    When a :class:`~repro.reading.interning.TokenDictionary` is attached,
    every token is additionally interned at tokenize time and the produced
    profiles carry ``token_ids`` — the dense integer view the comparison
    kernel and the multiprocess dispatch run on.  Interning rides the same
    memoization as standardization, so its cost is paid once per distinct
    attribute value, not once per entity.

    Attribute values repeat heavily in real data (and across duplicates),
    so standardization + tokenization results are memoized per distinct
    value; the cache is bounded to keep streaming memory flat.
    """

    standardizer: Standardizer = field(default_factory=Standardizer)
    tokenizer: Tokenizer = field(default_factory=Tokenizer)
    dictionary: TokenDictionary | None = None
    cache_size: int = 100_000
    _cache: dict[str, tuple[str, frozenset[str], frozenset[int] | None]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def with_dictionary(self, dictionary: TokenDictionary | None) -> "ProfileBuilder":
        """A copy of this builder interning into ``dictionary`` (fresh cache).

        ``None`` copies a builder that does not intern.
        """
        return dataclasses.replace(self, dictionary=dictionary, _cache={})

    def _value(self, value: str) -> tuple[str, frozenset[str], frozenset[int] | None]:
        cached = self._cache.get(value)
        if cached is not None:
            return cached
        standardized = self.standardizer.standardize_value(value)
        tokens = self.tokenizer.token_set((standardized,))
        ids = self.dictionary.intern_set(tokens) if self.dictionary is not None else None
        result = (standardized, tokens, ids)
        if len(self._cache) >= self.cache_size:
            self._cache.clear()
        self._cache[value] = result
        return result

    def build(self, entity: EntityDescription) -> Profile:
        """Produce the profile ``p_i`` (with keys ``K_i``) for ``e_i``."""
        attributes = []
        tokens: set[str] = set()
        interning = self.dictionary is not None
        ids: set[int] = set()
        for name, value in entity.attributes:
            standardized, value_tokens, value_ids = self._value(value)
            attributes.append((name, standardized))
            tokens.update(value_tokens)
            if interning:
                ids.update(value_ids)  # type: ignore[arg-type]
        return Profile(
            eid=entity.eid,
            attributes=tuple(attributes),
            tokens=frozenset(tokens),
            source=entity.source,
            token_ids=frozenset(ids) if interning else None,
        )
