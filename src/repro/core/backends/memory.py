"""The default backend: plain in-process dict-based stores.

This is exactly the state layout the pipeline had before the backend seam
existed — zero indirection cost, no locks — packaged so stages receive it
the same way they would receive any other backend.
"""

from __future__ import annotations

from repro.core.state import (
    Blacklist,
    BlockCollection,
    ERState,
    MatchStore,
    ProfileStore,
)
from repro.reading.interning import TokenDictionary


class InMemoryBackend:
    """One in-memory instance of every state component.

    Individual components can be injected (e.g. a pre-loaded profile store
    when resuming from a persisted state); anything not given is created
    fresh.
    """

    def __init__(
        self,
        blocks: BlockCollection | None = None,
        blacklist: Blacklist | None = None,
        profiles: ProfileStore | None = None,
        matches: MatchStore | None = None,
        dictionary: TokenDictionary | None = None,
    ) -> None:
        self.blocks = blocks if blocks is not None else BlockCollection()
        self.blacklist = blacklist if blacklist is not None else Blacklist()
        self.profiles = profiles if profiles is not None else ProfileStore()
        self.matches = matches if matches is not None else MatchStore()
        self.dictionary = dictionary if dictionary is not None else TokenDictionary()

    def state(self) -> ERState:
        return ERState(
            blocks=self.blocks,
            blacklist=self.blacklist,
            profiles=self.profiles,
            matches=self.matches,
        )
