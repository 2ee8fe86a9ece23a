"""Pluggable state backends: where the ER state σ physically lives."""

from repro.core.backends.base import (
    StateBackend,
    backend_capabilities,
)
from repro.core.backends.durable import (
    CommittingStage,
    DurabilityConfig,
    DurableBackend,
    config_fingerprint,
)
from repro.core.backends.memory import InMemoryBackend
from repro.core.backends.shm import (
    SharedColumnReader,
    SharedColumnStore,
    SharedMemoryBackend,
    SharedTokenArrayStore,
    SharedTokenDictionary,
    active_shm_segments,
)

__all__ = [
    "StateBackend",
    "backend_capabilities",
    "InMemoryBackend",
    "DurableBackend",
    "DurabilityConfig",
    "CommittingStage",
    "config_fingerprint",
    "SharedColumnReader",
    "SharedColumnStore",
    "SharedMemoryBackend",
    "SharedTokenArrayStore",
    "SharedTokenDictionary",
    "active_shm_segments",
]
