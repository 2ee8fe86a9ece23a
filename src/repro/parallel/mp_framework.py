"""Multiprocess execution: true CPU parallelism for the comparison stage.

CPython threads share the GIL, so the thread framework in
:mod:`repro.parallel.framework` demonstrates the architecture but cannot
speed up pure-Python compute.  This module provides the complementary
executor: the state-bearing front of the pipeline (``f_dr`` through
``f_lm``) runs in the parent — block building is inherently serial anyway
— while the dominant bottleneck, the comparison stage ``f_co`` (Figure 6),
is offloaded to a pool of worker *processes* in micro-batches.
Classification stays in the parent, which owns the match store.

This mirrors how the paper's allocation concentrates workers on ``f_co``
(y is by far the largest share), implemented with data parallelism where
it is legal: scoring is pure and stateless, so comparisons can be
partitioned freely.

Dispatch is *compact*: instead of pickling two full :class:`~repro.types.
Profile` objects per pair (attributes, token strings, and all — kilobytes
each, resent for every partner an entity is compared against), the parent
ships each chunk as a small table ``{entity id → token payload}`` plus a
list of ``(id, id)`` pairs, so every entity's tokens cross the process
boundary at most once per chunk.  The payload format depends on the
configured comparator:

``"ids"`` (:class:`~repro.comparison.kernel.InternedComparator`)
    sorted machine-int arrays of interned token ids (see
    :func:`~repro.reading.interning.pack_ids`) — a few bytes per token.
    The parent additionally applies the kernel's length prefilter before
    dispatch (a provably non-matching pair is never sent at all); the
    worker turns each array into a frozenset once per chunk and applies
    threshold-aware verification (a scored non-match returns a 2-byte
    marker, not a result object).
``"tokens"`` (:class:`~repro.comparison.comparator.TokenSetComparator`)
    the string token frozensets, deduplicated per chunk.
``"profiles"`` (anything else)
    the legacy full-profile pairs, for comparators that inspect
    attributes (e.g. the attribute-weighted or TF-IDF comparators).
``"shm"`` (interned comparator **and** a backend advertising
:data:`~repro.core.backends.shm.SharedMemoryBackend.TOKEN_COLUMNS`)
    nothing but *row numbers*: each entity's packed id array is appended
    once — ever, not once per chunk — to the backend's shared-memory
    token column, workers attach to the column at pool spawn, and a chunk
    crosses the boundary as a flat ``uint64`` row-pair array inside a
    pickle-protocol-5 out-of-band payload.  Negotiated automatically via
    :func:`~repro.core.backends.base.backend_capabilities`; scoring is
    bit-identical to ``"ids"`` (same arrays, same kernel).

On top of the ``"shm"`` substrate sits **block-partitioned dispatch**
(negotiated via the backend's ``PARTITION_COLUMNS`` capability): instead
of the parent walking every per-entity pair list, chunking, and rescoring
``f_cl`` itself, the per-entity candidate lists are published once to a
shared *membership* column, grouped by each entity's smallest blocking
key, and the groups are bin-packed onto the workers by comparison count
(:func:`~repro.parallel.allocation.plan_partitions` — the load-balancing
move of Kolb/Thor/Rahm's MapReduce sorted-neighborhood blocking).  Each
worker receives one partition descriptor per increment — a flat ``uint64``
array of membership rows — and performs candidate regeneration, the
I-WNP cleaning count filter, the length prefilter, kernel scoring, *and*
the ``f_cl`` threshold/oracle decision locally against the shared
columns.  The parent only merges scored matches (the match store
de-duplicates pairs reported from both endpoints) and heals failures.
Keys never span workers, so the per-entity cleaning semantics are
preserved exactly; the differential suite asserts bit-identical match
sets against every other executor.

The pool itself is *persistent* by default: it is spawned on the first
:meth:`MultiprocessERPipeline.run` and reused by every subsequent call
(the streaming increments of dynamic ER), so fork/spawn cost and worker
shm attachment are paid once per pipeline, not once per increment.  Call
:meth:`~MultiprocessERPipeline.close` (or use the pipeline as a context
manager) to release the workers; a GC/exit finalizer covers the rest.

Results are identical to the sequential pipeline (the same comparisons are
scored; only scoring order varies, and the match store de-duplicates).
The differential suite asserts this pairwise across all three formats.

Robustness mirrors the thread framework: the per-entity front is executed
under a :class:`~repro.parallel.supervision.Supervisor` (a poison entity is
dead-lettered, the stream keeps flowing); worker processes guard every
pair individually and report failures back as data, so a raising comparator
cannot poison ``pool.imap``; failed pairs are retried in the parent per the
:class:`~repro.core.config.SupervisionPolicy` before being dead-lettered on
the returned :class:`~repro.core.pipeline.ERResult`.  Fault-injection
decisions are keyed by the canonical pair key in every dispatch format, so
the same seeded faults hit the same pairs regardless of how payloads are
encoded.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
import weakref
from array import array
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.classification.classifiers import OracleClassifier, ThresholdClassifier
from repro.comparison.comparator import TokenSetComparator
from repro.comparison.kernel import (
    InternedComparator,
    jaccard_verify,
    similarity_from_intersection,
)
from repro.core.backends import StateBackend
from repro.core.backends.shm import (
    SharedColumnReader,
    SharedMemoryBackend,
    decode_membership,
    decode_packed,
)
from repro.core.config import StreamERConfig, SupervisionPolicy
from repro.core.pipeline import ERResult
from repro.core.plan import PipelinePlan
from repro.core.stages import ScoredComparisons
from repro.errors import ConfigurationError
from repro.invariants.checker import InvariantChecker
from repro.metablocking.iwnp import iwnp_counts, iwnp_select
from repro.observability.instrument import (
    COMPARISONS_EXECUTED,
    ENTITIES,
    MATCHES,
    PARTITION_GROUPS,
    PARTITION_IMBALANCE,
    PARTITION_LARGEST_SHARE,
    PARTITION_PAIRS,
    PARTITIONS_DISPATCHED,
    POOL_REUSES,
    POOL_SPAWNS,
    SHM_BYTES,
    SHM_ROWS,
    SHM_SEGMENTS,
    STAGE_ITEMS,
    STAGE_SERVICE_SECONDS,
    declare_partition_metrics,
    declare_shm_metrics,
)
from repro.parallel.allocation import plan_partitions
from repro.observability.registry import NULL_REGISTRY, MetricsRegistry
from repro.observability.trace import Tracer
from repro.parallel.faults import FaultInjector, FaultPlan, FaultSpec
from repro.parallel.supervision import Supervisor
from repro.reading.interning import pack_ids
from repro.types import (
    Comparison,
    EntityDescription,
    EntityId,
    Match,
    Profile,
    ScoredComparison,
    pair_key,
)

#: One chunk's compact payload: id-array table, string-set fallback table
#: (used when either side of a pair lacks interned ids), and the pair list.
CompactChunk = tuple[dict, dict, list[tuple[EntityId, EntityId]]]


def dispatch_mode(comparator: object) -> str:
    """Which wire format the comparator admits (see the module docstring).

    Exact-type checks, deliberately: a subclass may override ``score`` to
    look at attributes the compact payloads do not carry, so only the known
    token-set comparators ride the compact formats.
    """
    if type(comparator) is InternedComparator:
        return "ids"
    if type(comparator) is TokenSetComparator:
        return "tokens"
    return "profiles"


def negotiate_dispatch_mode(
    comparator: object, capabilities: frozenset[str] = frozenset()
) -> str:
    """The wire format given both the comparator *and* backend abilities.

    The ``"shm"`` upgrade of ``"ids"`` requires the backend to publish
    token columns in shared memory (capability negotiation, see
    :func:`~repro.core.backends.base.backend_capabilities`); the other
    modes are purely comparator-determined.
    """
    mode = dispatch_mode(comparator)
    if mode == "ids" and SharedMemoryBackend.TOKEN_COLUMNS in capabilities:
        return "shm"
    return mode


#: Classifier types whose decision is a pure function of the scored pair
#: (a threshold on the similarity, or membership in a ground-truth set) —
#: exactly the decisions a worker can take without the match store.
_PARTITIONABLE_CLASSIFIERS = (ThresholdClassifier, OracleClassifier)


def negotiate_partitioned_dispatch(
    dispatch_mode: str,
    capabilities: frozenset[str] = frozenset(),
    classifier: object | None = None,
) -> bool:
    """Whether block-partitioned worker-side rescoring is available.

    Requires the ``"shm"`` row-number substrate, a backend that maintains
    the entity/membership columns (``PARTITION_COLUMNS``), and a
    classifier whose decision is pure (exact-type check, like
    :func:`dispatch_mode`: a subclass may consult state the workers do not
    have).
    """
    return (
        dispatch_mode == "shm"
        and SharedMemoryBackend.PARTITION_COLUMNS in capabilities
        and type(classifier) in _PARTITIONABLE_CLASSIFIERS
    )


def _dumps_oob(obj: object) -> tuple[bytes, list[bytes]]:
    """Pickle with protocol-5 out-of-band buffers.

    Buffer-bearing payload members (the ``uint64`` row-pair arrays of the
    ``"shm"`` format) travel as raw buffers next to a small pickle stream
    instead of being copy-encoded into it.
    """
    buffers: list[pickle.PickleBuffer] = []
    data = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    return data, [buffer.raw().tobytes() for buffer in buffers]


def _loads_oob(payload: tuple[bytes, list[bytes]]) -> object:
    data, buffers = payload
    return pickle.loads(data, buffers=buffers)


# Worker-process state, installed once per worker by the pool initializer.
_worker_comparator = None
_worker_mode: str = "profiles"
_worker_threshold: float | None = None
_worker_scorer: Callable | None = None
#: Whether interned pairs go through the shared :func:`jaccard_verify`
#: loop (Jaccard under a positive threshold, no fault spec) instead of the
#: per-pair ``_worker_scorer``.
_worker_fast: bool = False
_worker_tokens: SharedColumnReader | None = None
_worker_row_cache: dict = {}
# Partitioned-dispatch extras (attached only in "partitioned" mode).
_worker_membership: SharedColumnReader | None = None
_worker_entities: SharedColumnReader | None = None
_worker_eid_cache: dict = {}
_worker_cc_enabled: bool = True
_worker_prefilter: bool = False
_worker_cl_threshold: float | None = None
_worker_cl_truth: frozenset | None = None

#: Bound on the worker-side row → decoded-set cache.  Entities recur
#: across chunks (that is the point of shm dispatch), so the cache's hit
#: rate is high; the bound only guards pathological vocabularies.
_ROW_CACHE_LIMIT = 1 << 16

#: A chunk position whose pair the kernel verified below the threshold.
_BELOW: tuple[None, None] = (None, None)


def _score_profile_pair(pair: tuple[Profile, Profile]) -> float:
    return _worker_comparator.score(pair[0], pair[1])  # type: ignore[union-attr]


def _score_token_pair(item: tuple) -> float:
    # item = (eid_i, eid_j, tokens_i, tokens_j); the ids ride along only so
    # the fault injector can key its decision by the canonical pair.
    return _worker_comparator.similarity(item[2], item[3])  # type: ignore[union-attr]


def _score_id_pair(item: tuple) -> float:
    # Interned ids and the string fallback are both frozensets here.
    a, b = item[2], item[3]
    return similarity_from_intersection(
        _worker_comparator.measure, len(a & b), len(a), len(b)  # type: ignore[union-attr]
    )


def _worker_row_ids(row: int) -> frozenset:
    """Decode (and cache) the id set behind a shared-column row.

    One frozenset per row, so every dispatch mode intersects like SEQ
    does, and a row's repeated appearances share one object.
    """
    ids = _worker_row_cache.get(row)
    if ids is None:
        ids = frozenset(decode_packed(_worker_tokens.record(row)))  # type: ignore[union-attr]
        if len(_worker_row_cache) >= _ROW_CACHE_LIMIT:
            _worker_row_cache.clear()
        _worker_row_cache[row] = ids
    return ids


def _worker_row_eid(row: int):
    """Decode (and cache) the entity id behind a shared-column row."""
    eid = _worker_eid_cache.get(row)
    if eid is None:
        eid = pickle.loads(bytes(_worker_entities.record(row)))  # type: ignore[union-attr]
        if len(_worker_eid_cache) >= _ROW_CACHE_LIMIT:
            _worker_eid_cache.clear()
        _worker_eid_cache[row] = eid
    return eid


def _init_worker(
    comparator: object,
    fault_spec: FaultSpec | None = None,
    mode: str = "profiles",
    shm_layout: dict | None = None,
    partition: dict | None = None,
) -> None:
    global _worker_comparator, _worker_mode, _worker_threshold, _worker_scorer
    global _worker_fast, _worker_tokens, _worker_row_cache
    global _worker_membership, _worker_entities, _worker_eid_cache
    global _worker_cc_enabled, _worker_prefilter
    global _worker_cl_threshold, _worker_cl_truth
    _worker_comparator = comparator
    _worker_mode = mode
    if mode in ("shm", "partitioned"):
        # Attach to the parent's shared token column exactly once, here;
        # every chunk afterwards carries row numbers, not token data.
        _worker_tokens = SharedColumnReader(shm_layout["tokens"])  # type: ignore[index]
        _worker_row_cache = {}
    if mode == "partitioned":
        _worker_membership = SharedColumnReader(shm_layout["membership"])  # type: ignore[index]
        _worker_entities = SharedColumnReader(shm_layout["entities"])  # type: ignore[index]
        _worker_eid_cache = {}
        _worker_cc_enabled = bool(partition["cc_enabled"])  # type: ignore[index]
        _worker_prefilter = bool(partition["prefilter"])  # type: ignore[index]
        classifier = partition["classifier"]  # type: ignore[index]
        if type(classifier) is OracleClassifier:
            _worker_cl_truth = classifier.truth
            _worker_cl_threshold = None
        else:
            _worker_cl_truth = None
            _worker_cl_threshold = classifier.threshold
    interned = mode in ("ids", "shm", "partitioned")
    _worker_threshold = comparator.threshold if interned else None  # type: ignore[attr-defined]
    _worker_fast = bool(
        interned
        and fault_spec is None
        and comparator.measure == "jaccard"  # type: ignore[attr-defined]
        and _worker_threshold is not None
        and _worker_threshold > 0.0
    )
    if interned:
        base: Callable = _score_id_pair
    elif mode == "tokens":
        base = _score_token_pair
    else:
        base = _score_profile_pair
    if fault_spec is None:
        _worker_scorer = base
    else:
        # Built inside the worker, so the wrapped lambdas never cross the
        # process boundary; decisions are keyed by the canonical pair key
        # and hashed, hence identical in every worker and every dispatch
        # format, regardless of how chunks are distributed.
        if mode == "profiles":
            key_fn = lambda pair: pair_key(pair[0].eid, pair[1].eid)  # noqa: E731
        else:
            key_fn = lambda item: pair_key(item[0], item[1])  # noqa: E731
        _worker_scorer = FaultInjector(base, fault_spec, stage="co", key_fn=key_fn)


def _score_chunk(payload: object) -> list[tuple[float | None, str | None]]:
    """Score one micro-batch in a worker process.

    Each pair is guarded individually and failures travel back as
    ``(None, error_repr)`` — data, not exceptions — so one poison pair
    cannot tear down ``pool.imap`` and lose the whole run.  ``(None, None)``
    marks a pair the kernel *verified* below the classification threshold:
    provably not a match, dropped without ever allocating a result object.
    """
    scorer = _worker_scorer
    assert scorer is not None, "worker not initialized"
    if _worker_mode == "profiles":
        out: list[tuple[float | None, str | None]] = []
        for left, right in payload:  # type: ignore[union-attr]
            try:
                out.append((scorer((left, right)), None))
            except Exception as exc:
                out.append((None, repr(exc)))
        return out
    if _worker_mode == "shm":
        lefts, rights, keys = _decode_shm_chunk(payload)
    else:
        ids_table, str_table, keys = payload  # type: ignore[misc]
        # Each entity's packed array becomes a frozenset once per chunk.
        sets = {eid: frozenset(ids) for eid, ids in ids_table.items()}
        lefts = []
        rights = []
        for i, j in keys:
            a = sets.get(i)
            b = sets.get(j) if a is not None else None
            if a is None or b is None:
                a = str_table[i]
                b = str_table[j]
            lefts.append(a)
            rights.append(b)
    return _score_set_pairs(lefts, rights, keys)


def _decode_shm_chunk(payload: object) -> tuple[list, list, list | None]:
    """The ``(lefts, rights, keys)`` of one ``"shm"``-format micro-batch.

    The payload names no token data: shared-column row pairs for interned
    entities (a flat ``uint64`` array), plus a per-position string-set
    fallback for entities without interned ids.  ``keys`` (the eid pairs)
    ride along only when a fault spec is active, so the injector's
    decisions stay keyed by the canonical pair — identical to every other
    dispatch format.
    """
    _, rows, keys, fallback, str_table = _loads_oob(payload)  # type: ignore[arg-type]
    row_ids = _worker_row_ids
    rows = rows.tolist()
    lefts = [row_ids(row) for row in rows[0::2]]
    rights = [row_ids(row) for row in rows[1::2]]
    if fallback:
        # Ascending positions: each insert lands at its final index.
        for position, i, j in fallback:
            lefts.insert(position, str_table[i])
            rights.insert(position, str_table[j])
            if keys is not None:
                keys.insert(position, (i, j))
    return lefts, rights, keys


def _score_set_pairs(
    lefts: list, rights: list, keys: list | None
) -> list[tuple[float | None, str | None]]:
    """Per-position results for one chunk of ``(lefts[p], rights[p])`` sets.

    On the fast path, maximal runs of one left set (chunks are cut from
    per-entity candidate lists, and cached rows share one object) go
    through :func:`jaccard_verify` in one call.  Otherwise every pair is
    guarded individually through the per-pair scorer; ``keys`` carry the
    entity ids the fault injector keys on.
    """
    thr = _worker_threshold
    n = len(lefts)
    if _worker_fast:
        out: list[tuple[float | None, str | None]] = [_BELOW] * n
        start = 0
        while start < n:
            a = lefts[start]
            end = start + 1
            while end < n and lefts[end] is a:
                end += 1
            # The prefilter may skip a pair here even when the parent's was
            # off: a skipped pair provably scores below ``thr`` anyway.
            hits, _ = jaccard_verify(a, rights[start:end], thr)  # type: ignore[arg-type]
            for k, score in hits:
                out[start + k] = (score, None)
            start = end
        return out
    scorer = _worker_scorer
    out = []
    for p in range(n):
        i, j = keys[p] if keys is not None else (None, None)
        try:
            score = scorer((i, j, lefts[p], rights[p]))  # type: ignore[misc]
        except Exception as exc:
            out.append((None, repr(exc)))
            continue
        out.append(_BELOW if thr is not None and score < thr else (score, None))
    return out


def _worker_is_match(left: EntityId, right: EntityId, score: float) -> bool:
    """The ``f_cl`` decision, worker-side (threshold or oracle)."""
    if _worker_cl_truth is not None:
        return pair_key(left, right) in _worker_cl_truth
    return score >= _worker_cl_threshold  # type: ignore[operator]


def _score_partition(payload: object) -> tuple[list, list, dict]:
    """Resolve one partition descriptor entirely inside a worker.

    The payload is a flat ``uint64`` array of membership rows.  Each row
    decodes to ``[own_row, partner_row, ...]`` — one entity's candidate
    list with multiplicity, in shared token-column rows.  The worker then
    replays the sequential tail for that entity: the I-WNP count filter
    (:func:`~repro.metablocking.iwnp.iwnp_select`, the ``f_cc`` stage's
    own survivor function — or plain dedup when cleaning is disabled), the
    kernel length prefilter, scoring, threshold verification, and the
    ``f_cl`` decision.  Returns ``(matches, failures, stats)``: matched
    triples ``(left, right, score)``, failed triples ``(left, right,
    error)``, and the cleaned/prefiltered counts the parent folds into its
    accounting.  Row ↔ entity-id maps are bijective within one record
    (every eid resolves to exactly one current row at publish time), so
    counting by row is counting by partner; entity ids are decoded only
    for the pairs that are emitted (or, on the per-pair path, scored).
    """
    scorer = _worker_scorer
    assert scorer is not None, "worker not initialized"
    (rows,) = _loads_oob(payload)  # type: ignore[misc]
    thr = _worker_threshold
    fast = _worker_fast
    prefilter = _worker_prefilter
    bound = _worker_comparator.bound if prefilter else None  # type: ignore[union-attr]
    select = iwnp_select if _worker_cc_enabled else list
    row_ids = _worker_row_ids
    row_eid = _worker_row_eid
    membership = _worker_membership
    matches: list[tuple] = []
    failures: list[tuple] = []
    cleaned = 0
    prefiltered = 0
    for membership_row in rows.tolist():
        record = decode_membership(membership.record(membership_row)).tolist()  # type: ignore[union-attr]
        survivors = select(iwnp_counts(record[1:]))
        if not survivors:
            continue
        cleaned += len(survivors)
        a = row_ids(record[0])
        if fast:
            hits, skipped = jaccard_verify(
                a, [row_ids(row) for row in survivors], thr, prefilter  # type: ignore[arg-type]
            )
            prefiltered += skipped
            if hits:
                left = row_eid(record[0])
                for k, score in hits:
                    right = row_eid(survivors[k])
                    if _worker_is_match(left, right, score):
                        matches.append((left, right, score))
            continue
        la = len(a)
        left = row_eid(record[0])
        for row in survivors:
            b = row_ids(row)
            lb = len(b)
            if prefilter:
                # Mirrors the parent-side prefilter of the chunked path:
                # exactly one empty side scores identically 0 (< threshold);
                # both-empty pairs must still be scored (jaccard says 1.0).
                if (la == 0) != (lb == 0) or (la and bound(la, lb) < thr):  # type: ignore[misc]
                    prefiltered += 1
                    continue
            right = row_eid(row)
            try:
                score = scorer((left, right, a, b))
            except Exception as exc:
                failures.append((left, right, repr(exc)))
                continue
            if thr is not None and score < thr:
                continue  # kernel-verified non-match
            if _worker_is_match(left, right, score):
                matches.append((left, right, score))
    return matches, failures, {"cleaned": cleaned, "prefiltered": prefiltered}


def _terminate_pool(pool) -> None:
    """Finalizer hook: module-level so ``weakref.finalize`` stays cycle-free."""
    pool.terminate()
    pool.join()


def _unwrap(stage):
    """The bare stage object behind Instrumented/Checked decorators.

    The wrappers use ``__slots__`` with read-only delegation, so stats the
    partitioned path maintains on the workers' behalf (``cc.retained``,
    ``lm.materialized``) must be written to the innermost object.
    """
    inner = stage
    while True:
        next_inner = getattr(inner, "inner", None)
        if next_inner is None:
            return inner
        inner = next_inner


class MultiprocessERPipeline:
    """Stream ER with the comparison stage on a process pool.

    Parameters
    ----------
    config:
        The usual stream-ER configuration (the comparator is shipped to
        the workers once, at pool start; it must be picklable — the
        built-in comparators are).
    workers:
        Number of comparison worker processes (≥ 1).
    chunk_size:
        Comparisons per task message; larger amortizes IPC, smaller
        improves latency and load balance.
    supervision:
        Retry/dead-letter policy.  Front-stage failures dead-letter the
        entity; scoring failures are retried *in the parent* (with the
        parent's comparator) and then dead-letter the pair.
    faults:
        Optional fault-injection plan.  A spec for ``"co"`` is shipped to
        the worker processes (it must stay picklable); specs for front
        stages wrap the parent-side stage callables.
    backend:
        Where the parent-side ER state lives (default: a fresh in-memory
        backend).  A :class:`~repro.core.backends.SharedMemoryBackend`
        lets workers read token rows from shared memory instead of
        receiving them pickled.
    plan:
        A pre-built :class:`~repro.core.plan.PipelinePlan` to compile; by
        default one is derived from ``config``.
    registry:
        An optional :class:`~repro.observability.MetricsRegistry`; when
        enabled, the parent emits the shared metric vocabulary.  Front
        stages are instrumented like everywhere else; the pool-side
        comparison stage is observed from the parent (per-chunk turnaround
        into ``er_stage_service_seconds{stage="co"}``).
    tracer:
        An optional :class:`~repro.observability.Tracer`; sampled entities
        get per-stage spans for the parent-side front (the pooled ``co``
        stage scores pairs in entity-mixed chunks, so it has no per-entity
        span here).
    checker:
        Optional :class:`~repro.invariants.InvariantChecker`.  The front
        stages run in the pool's task-handler thread, so stage-scope checks
        record only; state- and run-scope invariants run at the end of
        :meth:`run`, where a raise-mode checker raises.
    persistent_pool:
        Keep the worker pool alive between :meth:`run` calls (default).
        This is what makes incremental/streaming use cheap: workers are
        forked (and, in ``"shm"`` mode, attached to the shared columns)
        once per pipeline, then every increment reuses them.  With
        ``False``, the pool is torn down at the end of each run (the old
        behaviour).  Either way, :meth:`close` / the context manager
        releases the workers, and a finalizer covers GC/interpreter exit.
    partitioned:
        Block-partitioned dispatch with worker-side rescoring (see the
        module docstring).  ``"auto"`` (default) enables it whenever
        eligible: ``"shm"`` dispatch, a backend advertising
        ``PARTITION_COLUMNS``, a pure (threshold/oracle) classifier, no
        durable per-entity commit hook, and no fault specs on the stages
        that move into the workers (``cc``/``lm``/``cl``).  ``True``
        raises :class:`~repro.errors.ConfigurationError` when ineligible;
        ``False`` forces the chunked path.

    After a run, ``pairs_prefiltered`` counts the comparisons dropped by
    the length prefilter (never scored) and ``pairs_dispatched`` the
    comparisons actually scored by the pool — the two always sum to the
    after-cleaning comparison count, in every dispatch mode;
    ``pool_spawns`` / ``pool_reuses`` count pool creations vs. runs that
    reused a live pool.  ``last_partition_plan`` holds the most recent
    run's :class:`~repro.parallel.allocation.PartitionPlan` (partitioned
    runs only).
    """

    def __init__(
        self,
        config: StreamERConfig | None = None,
        workers: int = 2,
        chunk_size: int = 256,
        supervision: SupervisionPolicy | None = None,
        faults: FaultPlan | None = None,
        backend: StateBackend | None = None,
        plan: PipelinePlan | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        checker: InvariantChecker | None = None,
        persistent_pool: bool = True,
        partitioned: bool | str = "auto",
    ) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        self.plan = plan if plan is not None else PipelinePlan.from_config(config)
        self.config = self.plan.config
        self.workers = workers
        self.chunk_size = chunk_size
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.tracer = tracer
        self.supervisor = Supervisor(supervision, registry=self.registry)
        self.checker = checker if (checker is not None and checker.enabled) else None
        if self.checker is not None:
            # The front runs in the pool's task-handler thread; a raise
            # there would poison imap instead of surfacing cleanly.
            self.checker.concurrent = True
            self.checker.exempt_provider = lambda: {
                d.entity_id for d in self.supervisor.dead_letters
            }
        self.compiled = self.plan.compile(
            backend, registry=self.registry, checker=self.checker
        )
        self.backend = self.compiled.backend
        self.entities_processed = 0
        self._trace_seq = 0
        # The active front (``co`` runs on the pool, ``cl`` in the parent
        # below); optional nodes the plan dropped are simply absent.
        self._front_stages = self.plan.front_stage_names()
        self.dr = self.compiled.get("dr")
        self.bb = self.compiled.get("bb+bp")
        self.bg = self.compiled.get("bg")
        self.cg = self.compiled.get("cg")
        self.cc = self.compiled.get("cc")
        self.lm = self.compiled.get("lm")
        self.cl = self.compiled.get("cl")
        self._fns: dict[str, object] = {
            name: fn
            for name, fn in self.compiled.stage_functions().items()
            if name != "co"
        }
        comparator = self.config.comparator
        self.dispatch_mode = negotiate_dispatch_mode(
            comparator, self.compiled.capabilities
        )
        compact = self.dispatch_mode in ("ids", "shm")
        self._threshold: float | None = comparator.threshold if compact else None
        self._prefilter = bool(
            compact
            and comparator.prefilter
            and self._threshold is not None
            and self._threshold > 0.0
        )
        self.pairs_prefiltered = 0
        self.pairs_dispatched = 0
        # ``token_store`` / ``layout`` reach through decorating backends
        # (DurableBackend) via their attribute delegation.
        self._token_store = (
            self.backend.token_store if self.dispatch_mode == "shm" else None
        )
        self._shm_layout = (
            self.backend.layout() if self.dispatch_mode == "shm" else None
        )
        self.persistent_pool = persistent_pool
        self.pool_spawns = 0
        self.pool_reuses = 0
        self._pool = None
        self._pool_finalizer: weakref.finalize | None = None
        self._ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        if self.registry.enabled and self.dispatch_mode == "shm":
            declare_shm_metrics(self.registry)
        faults = dict(faults) if faults else {}
        self._worker_fault_spec = faults.pop("co", None)
        # Faults are keyed by the canonical pair of *entity ids*; the shm
        # format ships rows, so eid keys ride along only when needed.
        self._ship_pair_keys = self._worker_fault_spec is not None
        unknown = [name for name in faults if name not in self._fns]
        if unknown:
            raise ConfigurationError(
                f"fault plan names unknown stages {unknown}"
            )
        self.fault_injectors: dict[str, FaultInjector] = {}
        for name, spec in faults.items():
            injector = FaultInjector(self._fns[name], spec, stage=name)  # type: ignore[arg-type]
            self._fns[name] = injector
            self.fault_injectors[name] = injector
        self.partitioned_dispatch = self._negotiate_partitioned(
            partitioned, faults
        )
        self.last_partition_plan = None
        self._partition_config: dict | None = None
        #: eid → the token-column row of its current profile, written where
        #: partitioned dispatch publishes an entity's own row; membership
        #: records are resolved against it in one C-level ``map``.
        self._row_of: dict[EntityId, int] = {}
        if self.partitioned_dispatch:
            # The parent-side front stops after cg; cc/lm/cl semantics move
            # into the workers (cl's state duty — the match store — stays
            # parent-side via the merge loop).
            self._partition_front = tuple(
                name for name in self._front_stages
                if name in ("dr", "bb+bp", "bg")
            )
            cc = self.compiled.get("cc")
            self._partition_config = {
                "cc_enabled": cc is not None and bool(_unwrap(cc).enabled),
                "prefilter": self._prefilter,
                "classifier": self.config.classifier,
            }
            if self.registry.enabled:
                declare_partition_metrics(self.registry)

    def _negotiate_partitioned(
        self, requested: bool | str, front_faults: dict
    ) -> bool:
        """Resolve the ``partitioned`` parameter against this run's wiring."""
        if requested is False:
            return False
        if requested not in (True, "auto"):
            raise ConfigurationError(
                f"partitioned must be True, False, or 'auto', got {requested!r}"
            )
        blockers: list[str] = []
        if not negotiate_partitioned_dispatch(
            self.dispatch_mode,
            self.compiled.capabilities,
            self.config.classifier,
        ):
            blockers.append(
                "needs shm dispatch, a PARTITION_COLUMNS backend, and a "
                "threshold/oracle classifier"
            )
        if hasattr(self.backend, "commit_entity"):
            # A durable backend commits per entity through the cl stage
            # wrapper; partitioned runs bypass that stage, so the WAL
            # would silently miss matches.
            blockers.append("durable backends commit per-entity through cl")
        moved = [n for n in front_faults if n in ("cc", "lm", "cl")]
        if moved:
            blockers.append(
                f"fault specs on {moved} target stages that run worker-side "
                "under partitioned dispatch"
            )
        if not blockers:
            return True
        if requested is True:
            raise ConfigurationError(
                "partitioned dispatch unavailable: " + "; ".join(blockers)
            )
        return False

    @property
    def items_failed(self) -> int:
        return self.supervisor.items_failed

    @property
    def retries_performed(self) -> int:
        return self.supervisor.retries_performed

    def _front(
        self, entities: Iterable[EntityDescription]
    ) -> Iterator[list[Comparison]]:
        """Run dr..lm in the parent, yielding per-entity comparison lists.

        Each stage call runs under the supervisor: a poison entity is
        dead-lettered at the stage that rejected it and the stream keeps
        flowing.  Sampled entities get per-stage trace spans for the
        parent-side front.
        """
        tracer = self.tracer
        for entity in entities:
            trace = None
            if tracer is not None:
                seq = self._trace_seq
                self._trace_seq += 1
                trace = tracer.start(seq, entity.eid)
            message: object = entity
            ok = True
            for name in self._front_stages:
                if trace is not None:
                    trace.record_start(name)
                ok, message = self.supervisor.execute(
                    name, self._fns[name], message  # type: ignore[arg-type]
                )
                if trace is not None:
                    if ok:
                        trace.record_finish(name)
                    else:
                        trace.dead_letter(name)
                if not ok:
                    break
            if ok:
                if trace is not None:
                    trace.complete()
                yield message.comparisons  # type: ignore[union-attr]

    def _chunks(
        self, entities: Iterable[EntityDescription]
    ) -> Iterator[list[Comparison]]:
        """Regroup per-entity comparisons into pool-sized chunks.

        In ``"ids"`` mode with an active prefilter, pairs whose length
        bound already precludes reaching the threshold are dropped *here* —
        before chunking — so they consume neither a chunk slot nor a single
        byte of IPC.  Draining is linear: full chunks are sliced off by a
        moving index and only the sub-chunk remainder is ever copied, so
        chunking cost no longer grows quadratically with the per-entity
        comparison burst.
        """
        chunk_size = self.chunk_size
        buffer: list[Comparison] = []
        thr = self._threshold
        prefilter = self._prefilter
        bound = self.config.comparator.bound if prefilter else None
        for comparisons in self._front(entities):
            if prefilter:
                for c in comparisons:
                    la = len(c.left.tokens)
                    lb = len(c.right.tokens)
                    # Exactly one empty side scores identically 0, below any
                    # positive threshold — droppable.  Both-empty pairs must
                    # still be shipped: the kernel scores them 1.0 (jaccard
                    # on two empty sets), which can classify as a match.
                    if (la == 0) != (lb == 0):
                        self.pairs_prefiltered += 1
                        continue
                    if la and bound(la, lb) < thr:  # type: ignore[misc]
                        self.pairs_prefiltered += 1
                        continue
                    buffer.append(c)
            else:
                buffer.extend(comparisons)
            if len(buffer) >= chunk_size:
                start = 0
                while len(buffer) - start >= chunk_size:
                    yield buffer[start : start + chunk_size]
                    start += chunk_size
                buffer = buffer[start:]
        if buffer:
            yield buffer

    def _encode_chunk(self, chunk: list[Comparison]) -> object:
        """The chunk's wire payload in this run's dispatch format.

        Compact formats ship each entity's token payload once per chunk,
        keyed by entity id; pairs are id tuples.  A pair whose either side
        lacks interned ids falls back to string sets *for both sides*, so
        the worker always compares like with like.

        Pure encoding: ``pairs_dispatched`` accounting lives on the submit
        path in :meth:`run`, so re-encoding a chunk (supervised retry,
        tests poking the wire format) cannot double-count.
        """
        mode = self.dispatch_mode
        if mode == "profiles":
            return [(c.left, c.right) for c in chunk]
        if mode == "shm":
            return self._encode_shm_chunk(chunk)
        ids_table: dict = {}
        str_table: dict = {}
        pairs: list[tuple[EntityId, EntityId]] = []
        for c in chunk:
            left, right = c.left, c.right
            li, ri = left.eid, right.eid
            if mode == "ids" and left.token_ids is not None and right.token_ids is not None:
                if li not in ids_table:
                    ids_table[li] = pack_ids(left.token_ids)
                if ri not in ids_table:
                    ids_table[ri] = pack_ids(right.token_ids)
            else:
                if li not in str_table:
                    str_table[li] = left.tokens
                if ri not in str_table:
                    str_table[ri] = right.tokens
            pairs.append((li, ri))
        return (ids_table, str_table, pairs)

    def _encode_shm_chunk(self, chunk: list[Comparison]) -> object:
        """Rows, not data: the ``"shm"`` wire payload for one chunk.

        Each interned entity's packed id array is appended to the shared
        token column on its first appearance *ever* (the store memoizes
        eid → row; a changed token set gets a fresh row), so the payload
        is a flat ``uint64`` row-pair array plus a per-position fallback
        for entities without interned ids — shipped via protocol-5
        out-of-band pickling.
        """
        rows = array("Q")
        keys: list[tuple[EntityId, EntityId]] | None = (
            [] if self._ship_pair_keys else None
        )
        fallback: list[tuple[int, EntityId, EntityId]] = []
        str_table: dict = {}
        row_for = self._token_store.row_for  # type: ignore[union-attr]
        for position, c in enumerate(chunk):
            left, right = c.left, c.right
            if left.token_ids is not None and right.token_ids is not None:
                rows.append(row_for(left.eid, left.token_ids))
                rows.append(row_for(right.eid, right.token_ids))
                if keys is not None:
                    keys.append((left.eid, right.eid))
            else:
                li, ri = left.eid, right.eid
                if li not in str_table:
                    str_table[li] = left.tokens
                if ri not in str_table:
                    str_table[ri] = right.tokens
                fallback.append((position, li, ri))
        return _dumps_oob(
            (
                len(chunk),
                np.frombuffer(rows, dtype=np.uint64),
                keys,
                fallback,
                str_table,
            )
        )

    # -- pool lifecycle ------------------------------------------------

    def _acquire_pool(self):
        """The live worker pool, spawning one on first use (or after close)."""
        if self._pool is not None:
            self.pool_reuses += 1
            if self.registry.enabled and self.dispatch_mode == "shm":
                self.registry.counter(POOL_REUSES).inc()
            return self._pool
        self._pool = self._ctx.Pool(
            processes=self.workers,
            initializer=_init_worker,
            initargs=(
                self.config.comparator,
                self._worker_fault_spec,
                "partitioned" if self.partitioned_dispatch else self.dispatch_mode,
                self._shm_layout,
                self._partition_config,
            ),
        )
        self.pool_spawns += 1
        if self.registry.enabled and self.dispatch_mode == "shm":
            self.registry.counter(POOL_SPAWNS).inc()
        # GC / interpreter exit must not strand worker processes; detach()d
        # by the graceful shutdown paths.
        self._pool_finalizer = weakref.finalize(
            self, _terminate_pool, self._pool
        )
        return self._pool

    def _drop_pool_finalizer(self) -> None:
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None

    def _shutdown_pool(self) -> None:
        """Graceful release: workers finish queued tasks, then exit."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        self._drop_pool_finalizer()
        pool.close()
        pool.join()

    def _discard_pool(self) -> None:
        """Hard release after a failed run (in-flight tasks are dropped)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        self._drop_pool_finalizer()
        pool.terminate()
        pool.join()

    def close(self) -> None:
        """Release the worker pool.  The backend is caller-owned state and
        is *not* touched (a shm backend keeps serving other executors or a
        later pipeline; unlink it via its own lifecycle)."""
        self._shutdown_pool()

    def __enter__(self) -> "MultiprocessERPipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, entities: Iterable[EntityDescription]) -> ERResult:
        """Process a finite input end to end; returns the usual summary."""
        if self.partitioned_dispatch:
            return self._run_partitioned(entities)
        start = time.perf_counter()
        matches: list[Match] = []
        count_in = [0]
        metrics_on = self.registry.enabled
        if metrics_on:
            entities_metric = self.registry.counter(ENTITIES)
            co_service = self.registry.histogram(
                STAGE_SERVICE_SECONDS, stage="co"
            )
            co_items = self.registry.counter(STAGE_ITEMS, stage="co")
            executed_metric = self.registry.counter(COMPARISONS_EXECUTED)

        def counted(stream: Iterable[EntityDescription]):
            for entity in stream:
                count_in[0] += 1
                self.entities_processed += 1
                if metrics_on:
                    entities_metric.inc()
                yield entity

        pool = self._acquire_pool()
        try:
            chunk_stream = self._chunks(counted(entities))
            pair_chunks: list[list[Comparison]] = []

            def payloads() -> Iterator[object]:
                for chunk in chunk_stream:
                    pair_chunks.append(chunk)
                    # Submit-path accounting (not in _encode_chunk): each
                    # unique pair counts exactly once, however often its
                    # chunk might be re-encoded.
                    self.pairs_dispatched += len(chunk)
                    yield self._encode_chunk(chunk)

            threshold = self._threshold
            last_yield = time.perf_counter()
            for index, scores in enumerate(pool.imap(_score_chunk, payloads())):
                chunk = pair_chunks[index]
                pair_chunks[index] = []  # release memory as results drain
                if metrics_on:
                    # Pool-side scoring is observed from the parent: the
                    # turnaround between successive result arrivals is the
                    # closest analogue of per-chunk service time here.
                    now = time.perf_counter()
                    co_service.observe(now - last_yield)
                    last_yield = now
                    co_items.inc(len(chunk))
                    executed_metric.inc(len(chunk))
                scored = []
                for comparison, (score, error) in zip(chunk, scores):
                    if error is not None:
                        score = self._rescore(comparison, error)
                        if score is None:
                            continue  # pair dead-lettered
                        if threshold is not None and score < threshold:
                            continue  # rescored, verified below threshold
                    elif score is None:
                        continue  # worker-verified non-match
                    scored.append(
                        ScoredComparison(comparison=comparison, similarity=score)
                    )
                # Classification in the parent (owner of the match store).
                anchor = chunk[0].left if chunk else None
                ok, found = self.supervisor.execute(
                    "cl",
                    self._fns["cl"],  # type: ignore[arg-type]
                    ScoredComparisons(profile=anchor, scored=scored),  # type: ignore[arg-type]
                )
                if ok:
                    matches.extend(found)
        except BaseException:
            # A mid-run failure can leave tasks queued on the pool; a
            # reused pool would interleave their late results into the
            # next run, so discard the workers and respawn on next use.
            self._discard_pool()
            raise
        if not self.persistent_pool:
            self._shutdown_pool()
        if metrics_on and self.dispatch_mode == "shm":
            backend = self.backend
            self.registry.gauge(SHM_BYTES).set(backend.shm_bytes())
            self.registry.gauge(SHM_SEGMENTS).set(len(backend.segment_names()))
            self.registry.gauge(SHM_ROWS).set(len(self._token_store))  # type: ignore[arg-type]

        result = ERResult(
            entities_processed=count_in[0],
            matches=matches,
            comparisons_generated=self.cg.generated,
            comparisons_after_cleaning=self.lm.materialized,
            blocks_pruned=self.bb.pruned_blocks,
            keys_ghosted=self.bg.ghosted_keys if self.bg is not None else 0,
            elapsed_seconds=time.perf_counter() - start,
            items_failed=self.supervisor.items_failed,
            retries=self.supervisor.retries_performed,
            dead_letters=list(self.supervisor.dead_letters),
        )
        if self.checker is not None:
            # ENTITIES counted admissions here, so expected == count_in.
            self.checker.finalize(result, expected_entities=count_in[0])
        return result

    def _run_partitioned(self, entities: Iterable[EntityDescription]) -> ERResult:
        """One increment under block-partitioned dispatch.

        The parent runs only the state-bearing stages (``dr``..``bg`` and
        candidate generation — block state is inherently serial), publishes
        each entity's candidate list to the shared membership column, and
        groups entities by their smallest blocking key.  The groups are
        bin-packed onto the workers by comparison count; each worker then
        replays cleaning, prefilter, scoring, and classification locally
        (see :func:`_score_partition`), and the parent merges.

        Candidate lists are resolved to token-column rows *at arrival
        time*, exactly when the sequential pipeline would materialize the
        partners — so a partner that re-arrives later in the same
        increment with changed tokens is compared against the version
        that was current when this entity arrived, bit-identically to
        every other executor.  The resolution reads ``_row_of``, the
        eid → current-row map written where each entity's own row is
        published, in one C-level ``map`` per entity; a partner missing
        from it falls back to :meth:`_walk_candidate_rows`.
        """
        start = time.perf_counter()
        matches: list[Match] = []
        count_in = [0]
        metrics_on = self.registry.enabled
        if metrics_on:
            entities_metric = self.registry.counter(ENTITIES)
            matches_metric = self.registry.counter(MATCHES)
            co_service = self.registry.histogram(
                STAGE_SERVICE_SECONDS, stage="co"
            )
            co_items = self.registry.counter(STAGE_ITEMS, stage="co")
            executed_metric = self.registry.counter(COMPARISONS_EXECUTED)
        tracer = self.tracer
        supervisor = self.supervisor
        profiles = self.backend.profiles
        match_store = self.backend.matches
        row_for = self._token_store.row_for  # type: ignore[union-attr]
        row_of = self._row_of
        publish = self.backend.publish_membership
        cc_present = self.cc is not None
        #: blocking key → membership rows / summed comparison count.
        groups: dict[str, array] = {}
        group_costs: dict[str, int] = {}
        cleaned_total = 0
        pool = self._acquire_pool()
        try:
            for entity in entities:
                count_in[0] += 1
                self.entities_processed += 1
                if metrics_on:
                    entities_metric.inc()
                trace = None
                if tracer is not None:
                    seq = self._trace_seq
                    self._trace_seq += 1
                    trace = tracer.start(seq, entity.eid)
                message: object = entity
                ok = True
                for name in self._partition_front:
                    if trace is not None:
                        trace.record_start(name)
                    ok, message = supervisor.execute(
                        name, self._fns[name], message  # type: ignore[arg-type]
                    )
                    if trace is not None:
                        if ok:
                            trace.record_finish(name)
                        else:
                            trace.dead_letter(name)
                    if not ok:
                        break
                if not ok:
                    continue
                blocked = message
                # The partition anchor: the entity's smallest block (fewest
                # co-members, key as tiebreak).  Any deterministic choice
                # works — correctness needs only that the whole entity
                # lands in exactly one group.
                anchor = None
                if blocked.others:  # type: ignore[union-attr]
                    others = blocked.others  # type: ignore[union-attr]
                    anchor = min(
                        others, key=lambda key: (len(others[key]), key)
                    )
                if trace is not None:
                    trace.record_start("cg")
                ok, generated = supervisor.execute(
                    "cg", self._fns["cg"], blocked  # type: ignore[arg-type]
                )
                if trace is not None:
                    if ok:
                        trace.record_finish("cg")
                    else:
                        trace.dead_letter("cg")
                if not ok:
                    continue
                profile = generated.profile
                # lm's state duty (register the profile before lookups)
                # stays in the parent, as does publishing the entity's
                # token row so later arrivals can reference it.
                profiles.put(profile)
                if profile.token_ids is not None:
                    own_row = row_for(profile.eid, profile.token_ids)
                    row_of[profile.eid] = own_row
                else:
                    own_row = -1
                    row_of.pop(profile.eid, None)
                if trace is not None:
                    trace.complete()
                candidates = generated.candidates
                if not candidates:
                    continue
                record = None
                if own_row >= 0:
                    record = array("Q", (own_row,))
                    try:
                        record.extend(map(row_of.__getitem__, candidates))
                    except KeyError:
                        record = self._walk_candidate_rows(own_row, candidates)
                if record is None:
                    # A pair without interned ids cannot ride the shared
                    # columns; finish this entity inline with sequential
                    # semantics (cc's per-entity counting must not split).
                    matches.extend(self._run_inline_tail(generated))
                    continue
                rows_of = groups.get(anchor)
                if rows_of is None:
                    rows_of = groups[anchor] = array("Q")
                rows_of.append(publish(record))
                group_costs[anchor] = group_costs.get(anchor, 0) + len(candidates)

            plan = plan_partitions(group_costs, self.workers)
            self.last_partition_plan = plan
            descriptors: list[array] = []
            for bin_keys in plan.bins:
                descriptor = array("Q")
                for key in bin_keys:
                    descriptor.extend(groups[key])
                if descriptor:
                    descriptors.append(descriptor)
            if metrics_on:
                self.registry.counter(PARTITIONS_DISPATCHED).inc(len(descriptors))
                self.registry.counter(PARTITION_PAIRS).inc(plan.total_cost)
                self.registry.gauge(PARTITION_GROUPS).set(plan.group_count)
                self.registry.gauge(PARTITION_IMBALANCE).set(plan.imbalance)
                self.registry.gauge(PARTITION_LARGEST_SHARE).set(
                    plan.largest_share
                )
            last_yield = time.perf_counter()
            for partition_matches, failures, stats in pool.imap(
                _score_partition,
                (
                    _dumps_oob((np.frombuffer(d, dtype=np.uint64),))
                    for d in descriptors
                ),
            ):
                scored_here = stats["cleaned"] - stats["prefiltered"]
                if metrics_on:
                    now = time.perf_counter()
                    co_service.observe(now - last_yield)
                    last_yield = now
                    co_items.inc(scored_here)
                    executed_metric.inc(scored_here)
                cleaned_total += stats["cleaned"]
                self.pairs_dispatched += scored_here
                self.pairs_prefiltered += stats["prefiltered"]
                for left, right, score in partition_matches:
                    match = Match(left=left, right=right, similarity=score)
                    if match_store.add(match):
                        matches.append(match)
                        if metrics_on:
                            matches_metric.inc()
                for left, right, error in failures:
                    match = self._heal_pair(left, right, error)
                    if match is not None and match_store.add(match):
                        matches.append(match)
                        if metrics_on:
                            matches_metric.inc()
        except BaseException:
            self._discard_pool()
            raise
        if not self.persistent_pool:
            self._shutdown_pool()
        # The cleaning/materialization the workers performed on the
        # stages' behalf, folded back into the canonical stage counters.
        if cleaned_total:
            _unwrap(self.lm).materialized += cleaned_total
            if cc_present:
                _unwrap(self.cc).retained += cleaned_total
        if metrics_on:
            backend = self.backend
            self.registry.gauge(SHM_BYTES).set(backend.shm_bytes())
            self.registry.gauge(SHM_SEGMENTS).set(len(backend.segment_names()))
            self.registry.gauge(SHM_ROWS).set(len(self._token_store))  # type: ignore[arg-type]
        result = ERResult(
            entities_processed=count_in[0],
            matches=matches,
            comparisons_generated=self.cg.generated,
            comparisons_after_cleaning=self.lm.materialized,
            blocks_pruned=self.bb.pruned_blocks,
            keys_ghosted=self.bg.ghosted_keys if self.bg is not None else 0,
            elapsed_seconds=time.perf_counter() - start,
            items_failed=self.supervisor.items_failed,
            retries=self.supervisor.retries_performed,
            dead_letters=list(self.supervisor.dead_letters),
        )
        if self.checker is not None:
            self.checker.finalize(result, expected_entities=count_in[0])
        return result

    def _walk_candidate_rows(self, own_row: int, candidates) -> array | None:
        """A membership record resolved through the profile store.

        The fallback when the row map misses a partner — a profile this
        pipeline did not publish, e.g. state an earlier executor left in
        the backend.  ``None`` when a partner has no interned ids (no
        shared-column row to hand a worker).  Resolved rows are recorded,
        so the next lookup of the same partner takes the fast path.
        """
        profiles = self.backend.profiles
        row_for = self._token_store.row_for  # type: ignore[union-attr]
        row_of = self._row_of
        record = array("Q", (own_row,))
        for j in candidates:
            other = profiles.get(j)
            if other is None or other.token_ids is None:
                return None
            row = row_of[j] = row_for(j, other.token_ids)
            record.append(row)
        return record

    def _run_inline_tail(self, generated) -> list[Match]:
        """cc → lm → co → cl in the parent for one entity.

        The partitioned path's escape hatch for profiles without interned
        token ids (no shared-column row to hand a worker).  Runs the real
        compiled stages under the supervisor, so counters, instrumentation
        and dead-lettering behave exactly as in the sequential pipeline.
        """
        stages: list[tuple[str, object]] = [
            (name, self._fns[name]) for name in ("cc", "lm") if name in self._fns
        ]
        stages.append(("co", self.compiled.get("co")))
        stages.append(("cl", self._fns["cl"]))
        message: object = generated
        for name, fn in stages:
            ok, message = self.supervisor.execute(name, fn, message)  # type: ignore[arg-type]
            if not ok:
                return []
        return list(message)  # type: ignore[arg-type]

    def _heal_pair(self, left: EntityId, right: EntityId, error: str) -> Match | None:
        """Parent-side rescue of a worker-failed pair (partitioned mode).

        Mirrors the chunked path's merge-loop healing: rebuild the
        comparison from the profile store (both sides were registered
        before their rows were published), retry with the parent's
        uninjected comparator, re-verify against the kernel threshold,
        and classify with the real classifier.
        """
        comparison = Comparison(
            left=self.backend.profiles.get(left),
            right=self.backend.profiles.get(right),
        )
        score = self._rescore(comparison, error)
        if score is None:
            return None  # dead-lettered
        if self._threshold is not None and score < self._threshold:
            return None
        return self.config.classifier.classify(
            ScoredComparison(comparison=comparison, similarity=score)
        )

    def _rescore(self, comparison: Comparison, first_error: str) -> float | None:
        """Retry a worker-failed pair in the parent; dead-letter on exhaust.

        The parent retries with its own (uninjected) comparator, so
        transient worker trouble heals here while genuinely poison pairs
        fail again and land in the dead-letter queue.
        """
        attempts = 1
        last_error = first_error
        for _ in range(self.supervisor.policy.retries_for("co")):
            self.supervisor.record_retry("co")
            attempts += 1
            try:
                return self.config.comparator.score(comparison.left, comparison.right)
            except Exception as exc:
                last_error = repr(exc)
        self.supervisor.record_failure("co", comparison, last_error, attempts)
        return None
