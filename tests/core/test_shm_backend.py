"""Shared-memory backend contracts: lifecycle, growth, crash hygiene.

The differential suite proves the shm backend never changes a match; these
tests pin the store-level contracts the equivalence rests on — epoch-
published growth (readers never see torn state), cross-attach decoding,
and above all segment hygiene: no ``/dev/shm`` entry may outlive its
creator, whether the run ends normally, a worker faults, or the creator
is killed with ``SIGKILL`` mid-run.
"""

from __future__ import annotations

import gc
import os
import signal
import subprocess
import sys
import time
from array import array
from pathlib import Path

import pytest

from repro.classification import ThresholdClassifier
from repro.core import StreamERConfig
from repro.core.backends import (
    InMemoryBackend,
    SharedColumnReader,
    SharedColumnStore,
    SharedMemoryBackend,
    SharedTokenArrayStore,
    SharedTokenDictionary,
    active_shm_segments,
    backend_capabilities,
)
from repro.core.backends.shm import SharedDictionaryReader
from repro.parallel import FaultSpec, MultiprocessERPipeline
from repro.types import EntityDescription

RUN_TIMEOUT = 60.0

_WORDS = ["glass", "panel", "wood", "fibre", "roof", "window", "door", "steel"]


def make_entities(n: int):
    return [
        EntityDescription.create(
            i, {"title": " ".join(_WORDS[(i + j) % len(_WORDS)] for j in range(3))}
        )
        for i in range(n)
    ]


def interned_config() -> StreamERConfig:
    return StreamERConfig.interned(
        alpha=100, beta=0.5, classifier=ThresholdClassifier(0.4)
    )


class TestSharedColumnStore:
    def test_append_record_round_trip(self):
        with_payloads = [b"alpha", b"b", b"", b"gamma" * 10]
        store = SharedColumnStore()
        try:
            rows = [store.append(p) for p in with_payloads]
            assert rows == list(range(len(with_payloads)))
            for row, payload in zip(rows, with_payloads):
                assert bytes(store.record(row)) == payload
        finally:
            store.unlink()

    def test_growth_spans_generations(self):
        # Tiny initial capacities force both the data column and the
        # directory through several doublings.
        store = SharedColumnStore(data_bytes=64, dir_rows=4)
        try:
            payloads = [bytes([i % 251]) * (i % 97 + 1) for i in range(300)]
            for p in payloads:
                store.append(p)
            assert len(store.segment_names()) > 3  # ctl + several generations
            for row, payload in enumerate(payloads):
                assert bytes(store.record(row)) == payload
        finally:
            store.unlink()

    def test_oversized_payload_gets_own_generation(self):
        store = SharedColumnStore(data_bytes=32, dir_rows=4)
        try:
            big = os.urandom(10_000)
            row = store.append(big)
            assert bytes(store.record(row)) == big
        finally:
            store.unlink()

    def test_reader_sees_only_published_rows(self):
        store = SharedColumnStore()
        try:
            store.append(b"one")
            reader = SharedColumnReader(store.prefix)
            assert len(reader) == 1
            with pytest.raises(IndexError):
                reader.record(1)
            # Growth after attach: the reader refreshes and decodes rows
            # that live in generations created after it attached.
            for i in range(200):
                store.append(f"row-{i}".encode() * 20)
            assert bytes(reader.record(150)) == b"row-149" * 20
            assert len(reader) == 201
            reader.close()
        finally:
            store.unlink()

    def test_reader_context_manager(self):
        store = SharedColumnStore()
        try:
            row = store.append(b"payload")
            with SharedColumnReader(store.prefix) as reader:
                assert bytes(reader.record(row)) == b"payload"
        finally:
            store.unlink()


class TestSharedTokenStores:
    def test_dictionary_cross_attach_decode(self):
        columns = SharedColumnStore()
        try:
            dictionary = SharedTokenDictionary(columns)
            tokens = ["wood", "panel", "pavillon", "fibre", "日本語"]
            ids = [dictionary.intern(t) for t in tokens]
            reader = SharedDictionaryReader(columns.prefix)
            assert [reader.decode(i) for i in ids] == tokens
            assert len(reader) == len(tokens)
            reader.close()
        finally:
            columns.unlink()

    def test_token_array_round_trip_and_identity_cache(self):
        columns = SharedColumnStore()
        try:
            store = SharedTokenArrayStore(columns)
            ids = array("Q", [3, 1, 4, 1, 5, 92])
            row = store.row_for(7, ids)
            # Ids are packed in canonical (sorted) order — the comparison
            # kernel's merge walk requires it.
            assert store.ids_at(row).tolist() == sorted(ids)
            # Same eid + same token ids → same row, no second append.
            assert store.row_for(7, ids) == row
            assert len(columns) == 1
        finally:
            columns.unlink()


class TestBackendLifecycle:
    def test_capabilities_and_layout(self):
        with SharedMemoryBackend() as backend:
            capabilities = backend_capabilities(backend)
            assert SharedMemoryBackend.TOKEN_COLUMNS in capabilities
            assert SharedMemoryBackend.PARTITION_COLUMNS in capabilities
            layout = backend.layout()
            assert set(layout) == {
                "tokens", "dictionary", "entities", "membership",
            }
            assert all(name.startswith(backend.name) for name in layout.values())
            assert backend.shm_bytes() > 0
            assert len(backend.segment_names()) >= 8  # 4 stores x (ctl+data+dir)

    def test_context_manager_unlinks_all_segments(self):
        with SharedMemoryBackend() as backend:
            prefix = backend.name
            assert active_shm_segments(prefix)
        assert active_shm_segments(prefix) == []

    def test_unlink_is_idempotent(self):
        backend = SharedMemoryBackend()
        prefix = backend.name
        backend.unlink()
        backend.unlink()
        assert active_shm_segments(prefix) == []

    def test_garbage_collection_unlinks(self):
        backend = SharedMemoryBackend()
        prefix = backend.name
        # Growth after construction must be covered by the finalizer too.
        for i in range(20_000):
            backend.dictionary.intern(f"token-{i}")
        assert len(active_shm_segments(prefix)) > 4
        del backend
        gc.collect()
        assert active_shm_segments(prefix) == []


class TestRunHygiene:
    """No ``/dev/shm`` entry survives a run, however the run ends."""

    def test_no_leak_after_normal_run(self):
        backend = SharedMemoryBackend()
        prefix = backend.name
        pipeline = MultiprocessERPipeline(
            interned_config(), workers=2, chunk_size=64, backend=backend
        )
        pipeline.run(make_entities(120))
        assert pipeline.dispatch_mode == "shm"
        pipeline.close()
        backend.unlink()
        assert active_shm_segments(prefix) == []

    def test_no_leak_after_worker_faults(self):
        backend = SharedMemoryBackend()
        prefix = backend.name
        pipeline = MultiprocessERPipeline(
            interned_config(),
            workers=2,
            chunk_size=64,
            faults={"co": FaultSpec(probability=0.3, seed=3)},
            backend=backend,
        )
        result = pipeline.run(make_entities(120))
        assert result.retries > 0  # the faults really fired in workers
        pipeline.close()
        backend.unlink()
        assert active_shm_segments(prefix) == []

    def test_no_leak_after_sigkill(self, tmp_path: Path):
        """SIGKILL the creator mid-run: the resource tracker must clean up.

        The finalizer cannot run under ``kill -9``; cleanup then falls to
        the ``multiprocessing.resource_tracker`` sidecar, which requires
        the creator to stay registered with it — exactly what the
        attach-side-only unregistration in ``attach_segment`` preserves.
        """
        script = (
            "import time\n"
            "from repro.core.backends import SharedMemoryBackend\n"
            "backend = SharedMemoryBackend()\n"
            "for i in range(500):\n"
            "    backend.dictionary.intern(f'token-{i}')\n"
            "print(backend.name, flush=True)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            prefix = proc.stdout.readline().strip()
            assert prefix, "victim process never created its backend"
            assert active_shm_segments(prefix)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            # The tracker is a separate process; give it a moment to
            # notice the pipe closing and sweep the leaked segments.
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                if not active_shm_segments(prefix):
                    break
                time.sleep(0.2)
            assert active_shm_segments(prefix) == []
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)


#: A partitioned run whose columns grow *after* the pool has forked: the
#: first increment spawns the workers, the second overflows the tiny
#: initial capacities, so the workers attach generations (``…md1`` and
#: up) that did not exist when they were forked.  Prints the backend
#: prefix, the grown segment names and the worker pids, then either
#: waits to be killed (``kill``) or cleans up and exits (``clean``).
_GROWTH_VICTIM = """
import sys, time
from repro.classification import ThresholdClassifier
from repro.core import StreamERConfig
from repro.core.backends import SharedMemoryBackend
from repro.parallel import MultiprocessERPipeline
from repro.types import EntityDescription

words = ["glass", "panel", "wood", "fibre", "roof", "window", "door", "steel"]
def entities(lo, hi):
    return [
        EntityDescription.create(
            i, {"title": " ".join(words[(i + j) % len(words)] for j in range(3))}
        )
        for i in range(lo, hi)
    ]

config = StreamERConfig.interned(
    alpha=100, beta=0.5, classifier=ThresholdClassifier(0.4)
)
backend = SharedMemoryBackend(data_bytes=512, dir_rows=8)
pipeline = MultiprocessERPipeline(
    config, workers=2, backend=backend, partitioned=True
)
pipeline.run(entities(0, 4))
forked_with = set(backend.segment_names())
pipeline.run(entities(4, 160))
grown = sorted(set(backend.segment_names()) - forked_with)
pids = [str(worker.pid) for worker in pipeline._pool._pool]
print(backend.name, ",".join(grown), ",".join(pids), flush=True)
if sys.argv[1] == "kill":
    time.sleep(60)
pipeline.close()
backend.unlink()
"""


def _run_growth_victim(mode: str) -> tuple[str, list[str], list[int], subprocess.Popen]:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", _GROWTH_VICTIM, mode],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    fields = proc.stdout.readline().split()
    assert len(fields) == 3, f"victim failed: {proc.stderr.read()}"
    prefix, grown, pids = fields
    return prefix, grown.split(","), [int(pid) for pid in pids.split(",")], proc


class TestTrackerOwnership:
    """Columns grown after the pool forked keep the creator's registration."""

    def test_growth_after_fork_unlinks_without_tracker_errors(self):
        prefix, grown, _, proc = _run_growth_victim("clean")
        try:
            assert any("md" in name for name in grown)
            # The tracker inherits the victim's stderr, so reading to EOF
            # also waits for it to finish.
            _, stderr = proc.communicate(timeout=RUN_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, stderr
        assert "Traceback" not in stderr, stderr
        assert active_shm_segments(prefix) == []

    def test_sigkill_after_growth_leaves_no_segment(self):
        """Kill the creator and its workers: the tracker sweeps every
        generation, including those created after the fork."""
        prefix, grown, pids, proc = _run_growth_victim("kill")
        try:
            assert any("md" in name for name in grown)
            assert set(grown) <= set(active_shm_segments(prefix))
            for pid in (proc.pid, *pids):
                os.kill(pid, signal.SIGKILL)
            _, stderr = proc.communicate(timeout=RUN_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert "Traceback" not in stderr, stderr
        deadline = time.monotonic() + 20
        while active_shm_segments(prefix) and time.monotonic() < deadline:
            time.sleep(0.2)
        assert active_shm_segments(prefix) == []

    def test_unrelated_process_attach_leaves_segments_alive(self):
        """A process with a tracker of its own must not unlink on exit."""
        store = SharedColumnStore(data_bytes=64, dir_rows=4)
        try:
            for i in range(40):
                store.append(f"row-{i}".encode())
            script = (
                "import sys\n"
                "from repro.core.backends import SharedColumnReader\n"
                "reader = SharedColumnReader(sys.argv[1])\n"
                "assert bytes(reader.record(39)) == b'row-39'\n"
                "reader.close()\n"
            )
            env = dict(os.environ)
            src = str(Path(__file__).resolve().parents[2] / "src")
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            done = subprocess.run(
                [sys.executable, "-c", script, store.prefix],
                env=env,
                capture_output=True,
                text=True,
                timeout=RUN_TIMEOUT,
            )
            assert done.returncode == 0, done.stderr
            assert "leaked" not in done.stderr
            assert sorted(store.segment_names()) == active_shm_segments(store.prefix)
            assert bytes(store.record(39)) == b"row-39"
        finally:
            store.unlink()
        assert active_shm_segments(store.prefix) == []


class TestShmVsMemoryEquivalence:
    def test_match_sets_bit_identical(self):
        entities = make_entities(150)
        reference = MultiprocessERPipeline(
            interned_config(), workers=2, chunk_size=64, backend=InMemoryBackend()
        )
        reference.run(entities)
        assert reference.dispatch_mode == "ids"
        expected = reference.backend.matches.pairs()
        reference.close()

        with SharedMemoryBackend() as backend:
            pipeline = MultiprocessERPipeline(
                interned_config(), workers=2, chunk_size=64, backend=backend
            )
            pipeline.run(entities)
            assert pipeline.dispatch_mode == "shm"
            assert backend.matches.pairs() == expected
            pipeline.close()


@pytest.mark.requires_multicore
class TestMulticoreSpeedup:
    """Wall-clock assertions that only hold with real parallelism."""

    def test_shm_persistent_beats_sequential(self):
        from repro.core import StreamERPipeline

        entities = make_entities(4000)
        start = time.perf_counter()
        sequential = StreamERPipeline(interned_config(), instrument=False)
        sequential.process_many(entities)
        seq_seconds = time.perf_counter() - start

        with SharedMemoryBackend() as backend:
            pipeline = MultiprocessERPipeline(
                interned_config(), workers=2, chunk_size=256, backend=backend
            )
            start = time.perf_counter()
            pipeline.run(entities)
            mp_seconds = time.perf_counter() - start
            assert backend.matches.pairs() == sequential.cl.matches.pairs()
            pipeline.close()
        assert mp_seconds < seq_seconds * 1.5
