"""Block-partitioned multiprocess dispatch: planner, negotiation, equivalence.

The tentpole contract: partitioning the block collection into worker-owned
key ranges — workers generate candidates AND rescore locally — must be
*invisible* in every output: match sets bit-identical to the sequential
pipeline and to chunked dispatch, identical dead-letter sets under
injected faults, and the same ``dispatched + prefiltered == cleaned``
pair accounting.  The planner itself is pinned as a deterministic LPT
bin-packer, and negotiation must refuse loudly (``partitioned=True``)
or fall back silently (``"auto"``) on ineligible wirings.
"""

from __future__ import annotations

import time

import pytest

from repro.classification import OracleClassifier, ThresholdClassifier
from repro.core import StreamERConfig, StreamERPipeline, SupervisionPolicy
from repro.core.backends import (
    InMemoryBackend,
    SharedMemoryBackend,
    active_shm_segments,
    backend_capabilities,
)
from repro.errors import ConfigurationError
from repro.parallel import (
    FaultSpec,
    MultiprocessERPipeline,
    ParallelERPipeline,
    PartitionPlan,
    negotiate_partitioned_dispatch,
    plan_partitions,
)
from repro.streaming import MultiprocessStreamRunner
from repro.types import Comparison, Profile

RUN_TIMEOUT = 120.0

_WORDS = ["glass", "panel", "wood", "fibre", "roof", "window", "door", "steel"]


def make_entities(n: int):
    from repro.types import EntityDescription

    return [
        EntityDescription.create(
            i, {"title": " ".join(_WORDS[(i + j) % len(_WORDS)] for j in range(3))}
        )
        for i in range(n)
    ]


def threshold_config() -> StreamERConfig:
    return StreamERConfig.interned(
        alpha=100, beta=0.5, classifier=ThresholdClassifier(0.4)
    )


def dataset_config(dataset) -> StreamERConfig:
    """Interned oracle config for a generated dataset (shm-eligible)."""
    return StreamERConfig.interned(
        alpha=StreamERConfig.alpha_for(len(dataset), 0.05),
        beta=0.05,
        clean_clean=dataset.clean_clean,
        classifier=OracleClassifier.from_pairs(dataset.ground_truth),
    )


def sequential_pairs(config: StreamERConfig, entities) -> set:
    pipeline = StreamERPipeline(config, instrument=False)
    pipeline.process_many(entities)
    return pipeline.cl.matches.pairs()


def mp_run(config: StreamERConfig, entities, *, partitioned, **kwargs):
    """One multiprocess run on a fresh shm backend; returns (pipeline, result).

    The backend is unlinked before returning — pair sets and counters are
    extracted first — so no test leaks ``/dev/shm`` segments on failure.
    """
    backend = SharedMemoryBackend()
    prefix = backend.name
    try:
        pipeline = MultiprocessERPipeline(
            config,
            workers=2,
            chunk_size=64,
            backend=backend,
            partitioned=partitioned,
            **kwargs,
        )
        result = pipeline.run(entities)
        pairs = backend.matches.pairs()
        pipeline.close()
    finally:
        backend.unlink()
    assert active_shm_segments(prefix) == []
    return pipeline, result, pairs


class TestPartitionPlanner:
    def test_deterministic_across_insertion_order(self):
        costs = {"roof": 7, "wood": 3, "glass": 9, "door": 1, "panel": 3}
        shuffled = dict(sorted(costs.items(), reverse=True))
        assert plan_partitions(costs, 3) == plan_partitions(shuffled, 3)

    def test_lpt_balances_known_instance(self):
        plan = plan_partitions({"a": 5, "b": 4, "c": 3, "d": 3, "e": 2, "f": 1}, 2)
        assert plan.total_cost == 18
        assert sorted(plan.bin_costs) == [9, 9]
        assert plan.imbalance == 1.0

    def test_bins_cover_keys_exactly_once(self):
        costs = {f"key-{i}": (i * 7) % 11 + 1 for i in range(40)}
        plan = plan_partitions(costs, 4)
        assigned = [key for bin_keys in plan.bins for key in bin_keys]
        assert sorted(assigned, key=repr) == sorted(costs, key=repr)
        assert plan.group_count == len(costs)
        for bin_keys, cost in zip(plan.bins, plan.bin_costs):
            assert cost == sum(costs[k] for k in bin_keys)

    def test_fewer_groups_than_bins(self):
        plan = plan_partitions({"a": 2, "b": 5}, 4)
        assert plan.used_bins == 2
        assert len(plan.bins) == 4
        assert plan.largest_share == 5 / 7

    def test_empty_costs(self):
        plan = plan_partitions({}, 2)
        assert plan.used_bins == 0
        assert plan.total_cost == 0
        assert plan.imbalance == 1.0
        assert plan.largest_share == 0.0

    def test_rejects_nonpositive_bins(self):
        with pytest.raises(ConfigurationError):
            plan_partitions({"a": 1}, 0)


class _CommittingProxy:
    """Delegating backend wrapper that *looks* durable (has commit_entity)."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def commit_entity(self, eid) -> None:
        pass


class TestPartitionNegotiation:
    def test_predicate_requires_shm_capability_and_classifier(self):
        with SharedMemoryBackend() as backend:
            capabilities = backend_capabilities(backend)
            assert negotiate_partitioned_dispatch(
                "shm", capabilities, ThresholdClassifier(0.4)
            )
            assert negotiate_partitioned_dispatch(
                "shm", capabilities, OracleClassifier.from_pairs([])
            )
            assert not negotiate_partitioned_dispatch(
                "ids", capabilities, ThresholdClassifier(0.4)
            )
            assert not negotiate_partitioned_dispatch(
                "shm", frozenset(), ThresholdClassifier(0.4)
            )

            class Widened(ThresholdClassifier):
                pass

            # Exact-type check: a subclass may override classify() with
            # logic the worker-side rescorer cannot reproduce.
            assert not negotiate_partitioned_dispatch(
                "shm", capabilities, Widened(0.4)
            )

    def test_auto_negotiates_on_shm_backend(self):
        with SharedMemoryBackend() as backend:
            pipeline = MultiprocessERPipeline(
                threshold_config(), workers=2, backend=backend
            )
            assert pipeline.partitioned_dispatch
            pipeline.close()

    def test_auto_falls_back_on_in_memory_backend(self):
        pipeline = MultiprocessERPipeline(
            threshold_config(), workers=2, backend=InMemoryBackend()
        )
        assert not pipeline.partitioned_dispatch
        pipeline.close()

    def test_forced_on_ineligible_backend_raises(self):
        with pytest.raises(ConfigurationError, match="partitioned dispatch"):
            MultiprocessERPipeline(
                threshold_config(),
                workers=2,
                backend=InMemoryBackend(),
                partitioned=True,
            )

    def test_durable_like_backend_is_excluded(self):
        with SharedMemoryBackend() as backend:
            proxy = _CommittingProxy(backend)
            pipeline = MultiprocessERPipeline(
                threshold_config(), workers=2, backend=proxy
            )
            assert pipeline.dispatch_mode == "shm"
            assert not pipeline.partitioned_dispatch
            pipeline.close()
            with pytest.raises(ConfigurationError, match="durable"):
                MultiprocessERPipeline(
                    threshold_config(), workers=2, backend=proxy, partitioned=True
                )

    def test_worker_side_stage_faults_are_excluded(self):
        faults = {"cl": FaultSpec(probability=0.5, seed=1)}
        with SharedMemoryBackend() as backend:
            pipeline = MultiprocessERPipeline(
                threshold_config(), workers=2, backend=backend, faults=faults
            )
            assert not pipeline.partitioned_dispatch
            pipeline.close()
            with pytest.raises(ConfigurationError, match="worker-side"):
                MultiprocessERPipeline(
                    threshold_config(),
                    workers=2,
                    backend=backend,
                    faults=faults,
                    partitioned=True,
                )

    def test_invalid_value_raises(self):
        with pytest.raises(ConfigurationError, match="partitioned"):
            MultiprocessERPipeline(threshold_config(), partitioned="yes")


class TestPartitionedDispatchEquivalence:
    """Partitioned dispatch is invisible in every output."""

    def test_all_executors_agree_dirty(self, tiny_dirty_dataset):
        config = dataset_config(tiny_dirty_dataset)
        entities = list(tiny_dirty_dataset.entities)
        reference = sequential_pairs(config, entities)
        assert reference  # a vacuous equivalence proves nothing

        for micro_batch_size in (1, 16):  # PP and MPP
            framework = ParallelERPipeline(
                config, processes=8, micro_batch_size=micro_batch_size
            )
            result = framework.run(entities, timeout=RUN_TIMEOUT)
            assert result.items_failed == 0
            assert result.match_pairs == reference

        chunked, chunked_result, chunked_pairs = mp_run(
            config, entities, partitioned=False
        )
        assert not chunked.partitioned_dispatch
        assert chunked_pairs == reference

        partitioned, result, pairs = mp_run(config, entities, partitioned=True)
        assert partitioned.partitioned_dispatch
        assert pairs == reference
        assert isinstance(partitioned.last_partition_plan, PartitionPlan)
        assert partitioned.last_partition_plan.used_bins >= 1
        # The accounting identity holds in both dispatch formats.
        for pipeline, run_result in (
            (chunked, chunked_result),
            (partitioned, result),
        ):
            assert (
                pipeline.pairs_dispatched + pipeline.pairs_prefiltered
                == run_result.comparisons_after_cleaning
            )

    def test_partitioned_matches_sequential_clean_clean(self, tiny_clean_dataset):
        config = dataset_config(tiny_clean_dataset)
        entities = list(tiny_clean_dataset.entities)
        reference = sequential_pairs(config, entities)
        assert reference
        pipeline, result, pairs = mp_run(config, entities, partitioned=True)
        assert pipeline.partitioned_dispatch
        assert pairs == reference
        for left, right in pairs:  # clean-clean never matches within a source
            assert left[0] != right[0]

    def test_fault_parity_with_chunked(self):
        """Same seeded co faults → same dead letters, same surviving matches.

        The injector keys its verdicts on the canonical pair key, so which
        dispatch format (or which worker) scores a pair must not change
        which pairs fault — and with retries disabled both paths must
        dead-letter exactly the injector's victims.
        """
        entities = make_entities(60)
        outcomes = {}
        for partitioned in (False, True):
            pipeline, result, pairs = mp_run(
                threshold_config(),
                entities,
                partitioned=partitioned,
                supervision=SupervisionPolicy.none(),
                faults={"co": FaultSpec(probability=0.3, seed=5)},
            )
            assert pipeline.partitioned_dispatch is partitioned
            assert result.items_failed > 0  # the faults really fired
            assert result.items_failed == len(result.dead_letters)
            for letter in result.dead_letters:
                assert letter.stage == "co"
            outcomes[partitioned] = (pairs, result.dead_letter_ids)
        assert outcomes[True] == outcomes[False]

    def test_persistent_pool_increments_equal_one_shot(self):
        entities = make_entities(90)
        one_shot, _, reference = mp_run(
            threshold_config(), entities, partitioned=True
        )
        assert one_shot.partitioned_dispatch

        with MultiprocessStreamRunner(threshold_config(), workers=2) as runner:
            assert runner.partitioned_dispatch
            for start in range(0, len(entities), 30):
                runner.process_increment(entities[start : start + 30])
            assert runner.match_pairs() == reference
            assert len(runner.increments) == 3
            # The pool survives across increments — that is the point of
            # the persistent runner; re-negotiation would discard it.
            assert runner.increments[-1].pool_reused


class TestAccountingParity:
    """SEQ, chunked MP and partitioned MP count the same comparisons.

    The partitioned parent never runs ``f_cc``/``f_lm`` itself; it folds
    the workers' cleaning counts back into ``cc.retained`` and
    ``lm.materialized``.  That fold must land on SEQ's figures exactly.
    """

    @pytest.mark.parametrize(
        "dataset_name", ["tiny_dirty_dataset", "tiny_clean_dataset"]
    )
    def test_comparison_counts_agree(self, request, dataset_name):
        dataset = request.getfixturevalue(dataset_name)
        config = dataset_config(dataset)
        entities = list(dataset.entities)
        sequential = StreamERPipeline(config, instrument=False)
        expected = sequential.process_many(entities)
        assert expected.comparisons_after_cleaning > 0
        for partitioned in (False, True):
            pipeline, result, _ = mp_run(config, entities, partitioned=partitioned)
            assert pipeline.partitioned_dispatch is partitioned
            assert (
                result.comparisons_generated,
                result.comparisons_after_cleaning,
            ) == (
                expected.comparisons_generated,
                expected.comparisons_after_cleaning,
            )


def _describe(eid: int, title: str):
    from repro.types import EntityDescription

    return EntityDescription.create(eid, {"title": title})


class TestPartitionedRowResolution:
    """The parent's eid → row map hands out exactly SEQ's partner versions."""

    def test_rearrival_with_changed_tokens_within_one_increment(self):
        # Entity 7 arrives twice with disjoint tokens.  Arrivals between
        # the two must be scored against version one, later arrivals
        # against version two — even though every pair is scored only
        # after the whole increment has been published.
        old, new = "glass panel wood", "roof window door"
        entities = (
            [_describe(7, old)]
            + [_describe(100 + i, old) for i in range(3)]
            + [_describe(7, new)]
            + [_describe(200 + i, new) for i in range(3)]
            + [_describe(300 + i, old) for i in range(3)]
            + make_entities(40)[10:]
        )
        reference = sequential_pairs(threshold_config(), entities)
        assert (7, 100) in reference and (7, 200) in reference
        assert (7, 300) not in reference  # old blocks, new profile
        pipeline, _, pairs = mp_run(threshold_config(), entities, partitioned=True)
        assert pipeline.partitioned_dispatch
        assert pairs == reference

    @pytest.mark.parametrize("first_half", ["interned", "string"])
    def test_partner_unknown_to_the_row_map(self, first_half):
        """State left by another executor: the parent walks the profile store.

        A SEQ pipeline fills the backend first, so no partner from that
        half is in the partitioned pipeline's row map.  With interned
        partners the walk resolves their rows; with string-only partners
        (no ids, so no row) the entity's tail runs inline in the parent.
        """
        first_config = (
            threshold_config()
            if first_half == "interned"
            else StreamERConfig(
                alpha=100, beta=0.5, classifier=ThresholdClassifier(0.4)
            )
        )
        entities = make_entities(80)
        head, tail = entities[:40], entities[40:]

        reference_backend = InMemoryBackend()
        StreamERPipeline(
            first_config, instrument=False, backend=reference_backend
        ).process_many(head)
        StreamERPipeline(
            threshold_config(), instrument=False, backend=reference_backend
        ).process_many(tail)
        reference = reference_backend.matches.pairs()

        backend = SharedMemoryBackend()
        prefix = backend.name
        walks: list[object] = []
        inline: list[object] = []
        try:
            StreamERPipeline(
                first_config, instrument=False, backend=backend
            ).process_many(head)
            pipeline = MultiprocessERPipeline(
                threshold_config(), workers=2, backend=backend, partitioned=True
            )
            walk, tail_inline = pipeline._walk_candidate_rows, pipeline._run_inline_tail
            pipeline._walk_candidate_rows = lambda *a: walks.append(a) or walk(*a)
            pipeline._run_inline_tail = lambda *a: inline.append(a) or tail_inline(*a)
            pipeline.run(tail)
            pairs = backend.matches.pairs()
            pipeline.close()
        finally:
            backend.unlink()
        assert active_shm_segments(prefix) == []
        assert walks
        assert bool(inline) == (first_half == "string")
        assert pairs == reference


class TestWorkerFastPathParity:
    """The shared kernel loop and the per-pair scorer agree exactly."""

    @pytest.mark.parametrize("partitioned", [True, False])
    def test_zero_rate_fault_spec_changes_nothing(self, partitioned):
        entities = make_entities(90)
        runs = []
        for faults in (None, {"co": FaultSpec(probability=0.0, seed=1)}):
            pipeline, result, pairs = mp_run(
                threshold_config(), entities, partitioned=partitioned, faults=faults
            )
            assert pipeline.partitioned_dispatch is partitioned
            assert result.items_failed == 0
            runs.append(
                (
                    pairs,
                    result.comparisons_after_cleaning,
                    pipeline.pairs_prefiltered,
                    pipeline.pairs_dispatched,
                )
            )
        assert runs[0][0]
        assert runs[0] == runs[1]

    def test_id_chunks_score_identically_in_process(self, monkeypatch):
        """Both worker loops over one ``"ids"`` chunk, including a pair
        that falls back to string sets."""
        from repro.parallel import mp_framework

        for name in ("_worker_comparator", "_worker_mode", "_worker_threshold",
                     "_worker_scorer", "_worker_fast"):
            monkeypatch.setattr(mp_framework, name, getattr(mp_framework, name))
        config = threshold_config()
        pipeline = MultiprocessERPipeline(config, workers=1, backend=InMemoryBackend())
        pipeline.close()
        profiles = [
            Profile(eid=i, attributes=(), tokens=frozenset(t), token_ids=frozenset(ids))
            for i, (t, ids) in enumerate(
                [
                    (("a", "b"), (0, 1)),
                    (("a", "b", "c"), (0, 1, 2)),
                    (("c",), (2,)),
                    ((), ()),
                    ((), ()),
                ]
            )
        ]
        plain = Profile(eid=9, attributes=(), tokens=frozenset({"a", "b"}))
        chunk = [
            Comparison(profiles[0], profiles[1]),
            Comparison(profiles[0], profiles[2]),
            Comparison(profiles[0], plain),
            Comparison(profiles[3], profiles[4]),
            Comparison(profiles[1], profiles[2]),
        ]
        payload = pipeline._encode_chunk(chunk)
        outputs = []
        for spec in (None, FaultSpec(probability=0.0)):
            mp_framework._init_worker(config.comparator, spec, "ids")
            assert mp_framework._worker_fast is (spec is None)
            outputs.append(mp_framework._score_chunk(payload))
        assert outputs[0] == outputs[1]
        assert outputs[0] == [
            (2 / 3, None), (None, None), (1.0, None), (1.0, None), (None, None)
        ]


class TestPrefilterZeroTokenRegression:
    """The length prefilter must not treat 'empty side' as 'cheap skip'.

    Regression for the ``if la and lb`` bypass: a pair with exactly one
    empty token set can never reach a positive threshold (score is
    identically 0) and is droppable, but a pair with *both* sides empty
    scores jaccard 1.0 and may classify as a match — shipping decisions
    must distinguish the two.
    """

    @staticmethod
    def _profile(eid: int, tokens: tuple[str, ...], ids: tuple[int, ...]) -> Profile:
        return Profile(
            eid=eid,
            attributes=(),
            tokens=frozenset(tokens),
            token_ids=frozenset(ids),
        )

    def test_one_sided_empty_dropped_both_empty_shipped(self):
        pipeline = MultiprocessERPipeline(
            threshold_config(), workers=2, backend=InMemoryBackend()
        )
        assert pipeline._prefilter  # interned + positive threshold
        both_empty = Comparison(
            left=self._profile(1, (), ()), right=self._profile(2, (), ())
        )
        one_sided = Comparison(
            left=self._profile(3, (), ()),
            right=self._profile(4, ("wood",), (0,)),
        )
        normal = Comparison(
            left=self._profile(5, ("wood", "glass"), (0, 1)),
            right=self._profile(6, ("wood", "glass"), (0, 1)),
        )
        pipeline._front = lambda entities: iter([[both_empty, one_sided, normal]])
        shipped = [c for chunk in pipeline._chunks([]) for c in chunk]
        pipeline.close()
        assert shipped == [both_empty, normal]
        assert pipeline.pairs_prefiltered == 1
        # Why both-empty must ship: the kernel scores it as a match.
        comparator = pipeline.config.comparator
        assert comparator.score(both_empty.left, both_empty.right) == 1.0
        assert comparator.score(one_sided.left, one_sided.right) == 0.0


@pytest.mark.requires_multicore
class TestPartitionedSpeedup:
    """ISSUE acceptance: on >= 2 effective CPUs, partitioned dispatch must
    beat the sequential pipeline outright (mp_speedup > 1)."""

    def test_partitioned_beats_sequential(self):
        entities = make_entities(4000)
        start = time.perf_counter()
        sequential = StreamERPipeline(threshold_config(), instrument=False)
        sequential.process_many(entities)
        seq_seconds = time.perf_counter() - start

        with SharedMemoryBackend() as backend:
            pipeline = MultiprocessERPipeline(
                threshold_config(), workers=2, chunk_size=256, backend=backend
            )
            assert pipeline.partitioned_dispatch
            start = time.perf_counter()
            pipeline.run(entities)
            mp_seconds = time.perf_counter() - start
            assert backend.matches.pairs() == sequential.cl.matches.pairs()
            pipeline.close()
        assert mp_seconds < seq_seconds
