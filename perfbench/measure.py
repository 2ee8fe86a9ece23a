"""One cold measurement: build every executor, then run one of them.

``run.py`` calls :func:`measure` in a process forked for that one
measurement from a parent that has imported the program but never run
it, so no memo cache, worker pool or shared segment survives from one
measurement to the next.

The measurement first builds *every* executor with a config of its own
(timed: one ``setup_s`` sample), checks that no two of them share a
``ProfileBuilder``, tears them all down, then builds the measured executor
again and feeds it the inputs.  Executors (all but ``seq_string`` use
``StreamERConfig.interned``):

``seq``            interned ``StreamERPipeline``, the oracle
``seq_string``     the default string-token config
``mp_chunked``     ``MultiprocessStreamRunner(partitioned=False)``, 2 workers
``mp_partitioned`` the same runner with ``partitioned=True``
``pp``             ``ParallelERPipeline(processes=8, micro_batch_size=1)``,
                   closed loop over the whole stream
``pp.low/high``    the same, open loop over a prefix at a fixed rate

Gates checked here: the builders are unshared; in both multiprocess modes
prefiltered + scored pairs equal the pairs kept by comparison cleaning,
the runner negotiated the dispatch mode asked for, and no shared-memory
segment outlives its backend; an open loop's match set equals a
sequential run's over the same prefix.  ``run.py`` checks that every
closed-loop executor's match digest equals ``seq``'s.

Given a ``spans`` path, the measured executor's stages are wrapped in span
recorders (see ``tracing.py``); multiprocess runs are then built directly
as ``MultiprocessERPipeline(plan=…)``, because the streaming runner takes
only a config.  The spans are written to that path and per-layer totals
go into the record.
"""

from __future__ import annotations

import csv
import gc
import gzip
import hashlib
import math
import os
import resource
import time
from pathlib import Path
from time import perf_counter

from repro.classification import ThresholdClassifier
from repro.core import StreamERConfig, StreamERPipeline
from repro.core.backends import SharedMemoryBackend, active_shm_segments
from repro.evaluation.metrics import precision_recall_f1
from repro.observability import STAGE_SERVICE_SECONDS, MetricsRegistry
from repro.parallel import MultiprocessERPipeline, ParallelERPipeline
from repro.streaming import MultiprocessStreamRunner

from tracing import SpanRecorder, traced_plan
from workloads import (
    ALPHA_FRACTION,
    BETA,
    EXECUTORS,
    OPEN_ENTITIES,
    RATES,
    THRESHOLD,
    WORKLOADS,
)

STAGES = ("dr", "bb+bp", "bg", "cg", "cc", "lm", "co", "cl")
WORKERS = 2
CHUNK_SIZE = 512
PP_PROCESSES = 8
JOIN_TIMEOUT = 60.0
#: How many CPUs each executor keeps busy, so how many processes run the
#: host-speed reference task beside its measurement.
REFERENCE_PROCESSES = {"seq": 1, "seq_string": 1, "mp_chunked": 2, "mp_partitioned": 2, "pp": 2}


def metric_stage(stage: str) -> str:
    """Stage name as it appears in metric names (``bb+bp`` → ``bb_bp``)."""
    return stage.replace("+", "_")


def unwrap(stage):
    """The bare stage object behind any chain of ``inner`` wrappers."""
    while getattr(stage, "inner", None) is not None:
        stage = stage.inner
    return stage


def digest(pairs: set) -> str:
    return hashlib.sha256(repr(sorted(pairs, key=repr)).encode()).hexdigest()[:16]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def make_config(ds, interned: bool = True) -> StreamERConfig:
    kwargs = dict(
        alpha=StreamERConfig.alpha_for(len(ds), ALPHA_FRACTION),
        beta=BETA,
        clean_clean=ds.clean_clean,
        classifier=ThresholdClassifier(THRESHOLD),
    )
    return StreamERConfig.interned(**kwargs) if interned else StreamERConfig(**kwargs)


def cpu_times(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class Executor:
    """One built executor: the object under test plus what a run needs."""

    def __init__(self, name: str, ds, traced: bool = False) -> None:
        self.name = name
        self.config = make_config(ds, interned=name != "seq_string")
        self.recorder = (
            SpanRecorder(THRESHOLD if name == "seq" else None) if traced else None
        )
        self.registry = MetricsRegistry() if (traced and name == "seq") else None
        self.done: dict = {}
        self.closed = False
        self.runner = None
        self.backend = None
        kind = name.split(".")[0]
        if kind in ("seq", "seq_string"):
            plan = traced_plan(self.config, self.recorder) if traced else None
            self.pipeline = StreamERPipeline(
                self.config, instrument=False, plan=plan, registry=self.registry
            )
        elif kind.startswith("mp_"):
            partitioned = kind == "mp_partitioned"
            if traced:
                self.backend = SharedMemoryBackend()
                self.pipeline = MultiprocessERPipeline(
                    plan=traced_plan(self.config, self.recorder),
                    workers=WORKERS,
                    chunk_size=CHUNK_SIZE,
                    backend=self.backend,
                    persistent_pool=True,
                    partitioned=partitioned,
                )
            else:
                self.runner = MultiprocessStreamRunner(
                    self.config,
                    workers=WORKERS,
                    chunk_size=CHUNK_SIZE,
                    partitioned=partitioned,
                )
                self.pipeline = self.runner.pipeline
                self.backend = self.runner.backend
        else:
            self.pipeline = ParallelERPipeline(
                self.config,
                processes=PP_PROCESSES,
                micro_batch_size=1,
                plan=traced_plan(self.config, self.recorder, self.done),
            )
            self.pipeline.start()

    def builders(self) -> list:
        dr = unwrap(self.pipeline.compiled.get("dr"))
        return [self.config.profile_builder, dr.builder]

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.runner is not None:
            self.runner.close()
        elif self.name.startswith("mp_"):
            self.pipeline.close()
            self.backend.unlink()
        elif self.name.startswith("pp"):
            self.pipeline.close(timeout=JOIN_TIMEOUT)
            self.pipeline.join(timeout=JOIN_TIMEOUT)


def build_everything(ds) -> tuple[float, list[str]]:
    """Seconds to build every executor, and any executors sharing a builder."""
    start = perf_counter()
    built = [Executor(name, ds) for name in EXECUTORS]
    seconds = perf_counter() - start
    owners: dict[int, str] = {}
    shared = []
    for ex in built:
        for builder in {id(b) for b in ex.builders()}:
            if builder in owners:
                shared.append(f"{owners[builder]}/{ex.name}")
            owners[builder] = ex.name
    for ex in built:
        ex.close()
    return seconds, shared


# -- runs --------------------------------------------------------------------


def run_increments(ex: Executor, increments: list) -> float:
    recorder = ex.recorder
    start = perf_counter()
    for index, increment in enumerate(increments):
        opened = recorder.open_root(index) if recorder is not None else 0.0
        if ex.runner is not None:
            ex.runner.process_increment(increment)
        elif ex.name.startswith("mp_"):
            ex.pipeline.run(increment)
        else:
            ex.pipeline.process_many(increment)
        if recorder is not None:
            recorder.close_root(opened)
    return perf_counter() - start


def run_closed_loop_pp(ex: Executor, entities: list) -> tuple[float, object]:
    submitted: dict = {}

    def stamped():
        for entity in entities:
            submitted[entity.eid] = perf_counter()
            yield entity

    start = perf_counter()
    result = ex.pipeline.run(stamped(), timeout=JOIN_TIMEOUT)
    wall = perf_counter() - start
    if ex.recorder is not None:
        ex.recorder.roots.extend(
            (eid, at, ex.done[eid]) for eid, at in submitted.items() if eid in ex.done
        )
    return wall, result


def run_open_loop_pp(ex: Executor, entities: list, rate: float) -> tuple[dict, object]:
    """Submit ``entities`` at ``rate``/s on a fixed schedule from this thread;
    latency runs from each entity's due instant to its ``cl`` completion."""
    due: list[float] = []
    late_max = 0.0
    backlog_max = 0
    done = ex.done

    def scheduled():
        nonlocal late_max, backlog_max
        t0 = perf_counter() + 0.01
        for index, entity in enumerate(entities):
            at = t0 + index / rate
            delay = at - perf_counter()
            if delay > 0:
                time.sleep(delay)
            late_max = max(late_max, perf_counter() - at)
            backlog_max = max(backlog_max, index - len(done))
            due.append(at)
            yield entity

    result = ex.pipeline.run(scheduled(), timeout=JOIN_TIMEOUT)
    latencies = sorted(
        done[entity.eid] - at for entity, at in zip(entities, due) if entity.eid in done
    )
    stats = {
        "rate": rate,
        "samples": len(latencies),
        "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
        "latency_p99_ms": percentile(latencies, 0.99) * 1e3,
        "generator_late_max_ms": late_max * 1e3,
        "backlog_max": backlog_max,
    }
    return stats, result


def reference_task() -> None:
    """A fixed pure-Python task shaped like ER work: strings, dicts, sets of
    frozensets.  It never touches the program, so only the host moves it."""
    counts: dict = {}
    for i in range(60_000):
        key = str(i % 5000)
        counts[key] = counts.get(key, 0) + len(key)
    pairs = set()
    for i in range(30_000):
        pairs.add(frozenset((i % 97, i % 89)))


def reference_seconds(processes: int) -> float:
    """Wall time of ``reference_task`` run at once in ``processes`` processes.

    One process tracks the speed a single-threaded executor gets from the
    host; two track what an executor that keeps both CPUs busy gets, which
    drops further when a neighbour takes one of them.
    """
    start = perf_counter()
    children = []
    for _ in range(processes - 1):
        pid = os.fork()
        if pid == 0:
            reference_task()
            os._exit(0)
        children.append(pid)
    reference_task()
    for pid in children:
        os.waitpid(pid, 0)
    return perf_counter() - start


def measure(workload_name: str, ds, name: str, spans: Path | None = None) -> dict:
    workload = WORKLOADS[workload_name]
    entities = ds.entities
    increments = ds.increments(workload.increments)
    processes = REFERENCE_PROCESSES[name.split(".")[0]]
    reference_s = [reference_seconds(processes)]
    setup_s, shared = build_everything(ds)
    gates = {"builders_unshared": not shared}
    record: dict = {
        "executor": name,
        "reference_processes": processes,
        "reference_s": reference_s,
        "setup_s": setup_s,
        "gates": gates,
    }

    traced = spans is not None
    ex = Executor(name, ds, traced)
    gc.collect()
    cpu_self = cpu_times(resource.RUSAGE_SELF)
    cpu_children = cpu_times(resource.RUSAGE_CHILDREN)
    try:
        if name.startswith("pp."):
            prefix = entities[:OPEN_ENTITIES]
            stats, result = run_open_loop_pp(ex, prefix, dict(RATES)[name[3:]])
            record.update(stats)
            record["entities"] = len(prefix)
            pairs = result.match_pairs
            failed = len(result.dead_letters)
            retained = ex.pipeline.compiled.get("cc").retained
            oracle = Executor("seq", ds)
            oracle.pipeline.process_many(prefix)
            gates["matches_equal_seq_on_prefix"] = pairs == oracle.pipeline.cl.matches.pairs()
        elif name == "pp":
            record["wall_s"], result = run_closed_loop_pp(ex, entities)
            record["entities"] = len(entities)
            pairs = result.match_pairs
            failed = len(result.dead_letters)
            retained = ex.pipeline.compiled.get("cc").retained
        else:
            record["wall_s"] = run_increments(ex, increments)
            record["entities"] = len(entities)
            pipeline = ex.pipeline
            retained = pipeline.cc.retained
            if name.startswith("mp_"):
                record["cpu_self_s"] = cpu_times(resource.RUSAGE_SELF) - cpu_self
                pairs = ex.backend.matches.pairs()
                failed = len(pipeline.supervisor.dead_letters)
                gates["accounting"] = (
                    pipeline.pairs_prefiltered + pipeline.pairs_dispatched == retained
                )
                gates["dispatch_mode"] = pipeline.partitioned_dispatch == (
                    name == "mp_partitioned"
                )
                record["pool_spawns"] = pipeline.pool_spawns
                record["shm_mb"] = ex.backend.shm_bytes() / 1e6
                plan = pipeline.last_partition_plan
                if plan is not None:
                    record["imbalance"] = plan.imbalance
                    record["largest_share"] = plan.largest_share
                segment_prefix = ex.backend.name
                ex.close()
                record["worker_cpu_s"] = cpu_times(resource.RUSAGE_CHILDREN) - cpu_children
                record["leaked_segments"] = len(active_shm_segments(segment_prefix))
                gates["no_leaked_segments"] = record["leaked_segments"] == 0
            else:
                pairs = pipeline.cl.matches.pairs()
                failed = pipeline.items_failed
                record["counts"] = {
                    "bb_bp.blocks_pruned": pipeline.bb.pruned_blocks,
                    "bg.keys_ghosted": pipeline.bg.ghosted_keys,
                    "cg.candidates": pipeline.cg.generated,
                    "cc.retained": retained,
                    "co.examined": pipeline.co.compared,
                    "cl.matches": len(pairs),
                }
    finally:
        ex.close()
    record["digest"] = digest(pairs)
    record["attempted"] = record["entities"] + retained
    record["failed"] = failed
    if name == "seq":
        precision, recall, _ = precision_recall_f1(pairs, ds.ground_truth)
        record["recall"] = recall
        record["precision"] = precision
    if traced:
        record["layers"] = summarize_trace(ex)
        write_spans(spans, name, ex.recorder)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference_s.append(reference_seconds(processes))
    return record


def summarize_trace(ex: Executor) -> dict:
    """Per-layer numbers of one traced executor run (spans kept for writing)."""
    recorder = ex.recorder
    busy = recorder.busy()
    out: dict = {
        "busy_s": {metric_stage(s): busy.get(s, 0.0) for s in STAGES},
        "root_self_s": recorder.root_self(),
    }
    if recorder.prefilter_threshold is not None:
        out["co.prefiltered"] = recorder.prefiltered
        out["co.examined"] = recorder.examined
    if ex.registry is not None:
        out["registry_s"] = {
            metric_stage(s): ex.registry.histogram(STAGE_SERVICE_SECONDS, stage=s).sum
            for s in STAGES
        }
    return out


def write_spans(path: Path, executor: str, recorder: SpanRecorder) -> None:
    """The run's spans as gzipped CSV: executor,name,start,end,parent."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("executor", "name", "start", "end", "parent"))
        for root_id, start, end in recorder.roots:
            writer.writerow((executor, "root", f"{start:.7f}", f"{end:.7f}", root_id))
        for name, start, end, parent in recorder.spans:
            writer.writerow((executor, name, f"{start:.7f}", f"{end:.7f}", parent))
