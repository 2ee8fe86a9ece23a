"""Interned comparison kernel vs the string-set baseline, SEQ and MP.

The tentpole claim of the interning layer is that the comparison stage —
the pipeline's dominant cost (Figure 6) — gets ≥ 2× faster *without
changing a single match*: token ids, batched scoring, the length prefilter
and threshold-aware verification are pure execution-strategy changes, and
the match set is provably identical (see ``docs/performance.md`` for the
derivation).  This benchmark measures both halves of that claim on a
≥ 20 000-entity generated dataset:

* sequential ``f_co``-stage throughput, string comparator vs interned
  kernel (prefilter on and off), from the instrumented pipeline's
  per-stage timings;
* multiprocess wall clock with compact id-array dispatch, against the
  sequential run — on a single-CPU host this cannot exceed 1.0, but it
  must beat the 0.194× the full-profile pickling path recorded in the
  ``CHANGES.md`` entry that introduced the ``StateBackend`` seam, because
  the win being measured is IPC volume, not parallelism;
* exact match-set equality across every executor and comparator.

Measurements land in ``BENCH_compare_kernel.json`` at the repository root.
Run directly for the CI smoke mode, which exits nonzero on any match-set
divergence and ignores timing entirely (timing thresholds on shared CI
hardware only produce noise)::

    PYTHONPATH=src python benchmarks/bench_compare_kernel.py --entities 2000 --smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from common import effective_cpus, save_result

from repro.classification import ThresholdClassifier
from repro.core import StreamERConfig, StreamERPipeline
from repro.core.backends import SharedMemoryBackend, active_shm_segments
from repro.datasets import DatasetSpec, generate
from repro.evaluation import format_table
from repro.parallel import MultiprocessERPipeline

N_ENTITIES = 20_000
THRESHOLD = 0.7
#: Sequential runs repeat this many times and keep the fastest — on shared
#: hosts the run-to-run spread of a 20k-entity pipeline is ±15%, and the
#: minimum is the standard low-noise estimator for CPU-bound loops.
SEQ_REPS = 5
WORKERS = 2
CHUNK_SIZE = 512
CO_SPEEDUP_TARGET = 2.0
#: The mp-vs-seq ratio of the full-profile pickling dispatch on this host
#: class (single CPU), from the CHANGES.md entry that introduced the
#: ``StateBackend`` seam — the bar compact dispatch must clear.
MP_BASELINE = 0.194
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_compare_kernel.json"


def _dataset(n_entities: int):
    return generate(
        DatasetSpec(
            name="bench-compare-kernel",
            kind="dirty",
            size=n_entities,
            matches=max(1, int(n_entities * 0.3)),
            avg_attributes=4.0,
            # Moderate size skew is the regime the length prefilter targets:
            # uniform profiles never trip a |a|/|b| < t bound, wildly skewed
            # ones shrink the comparison lists themselves.
            heterogeneity=0.5,
            vocab_rare=30_000,
            seed=7,
        )
    )


def _base_kwargs(ds) -> dict:
    return {
        "alpha": StreamERConfig.alpha_for(len(ds), 0.05),
        "beta": 0.05,
        "clean_clean": ds.clean_clean,
        "classifier": ThresholdClassifier(THRESHOLD),
    }


def _run_sequential(config: StreamERConfig, entities, reps: int = SEQ_REPS) -> dict:
    seconds = co_seconds = float("inf")
    pipeline = None
    for _ in range(reps):
        start = time.perf_counter()
        candidate = StreamERPipeline(config, instrument=True)
        candidate.process_many(entities)
        elapsed = time.perf_counter() - start
        seconds = min(seconds, elapsed)
        co_seconds = min(co_seconds, candidate.timings.seconds.get("co", 0.0))
        pipeline = candidate
    compared = pipeline.co.compared
    return {
        "seconds": round(seconds, 3),
        "co_seconds": round(co_seconds, 3),
        "co_pairs_per_second": round(compared / co_seconds, 1) if co_seconds else 0.0,
        "comparisons_executed": compared,
        "matches": len(pipeline.cl.matches.pairs()),
        "pairs": pipeline.cl.matches.pairs(),
    }


def run_benchmark(n_entities: int = N_ENTITIES, backend: str = "memory") -> dict:
    ds = _dataset(n_entities)
    entities = list(ds.stream())

    seq_string = _run_sequential(StreamERConfig(**_base_kwargs(ds)), entities)
    seq_interned = _run_sequential(StreamERConfig.interned(**_base_kwargs(ds)), entities)
    seq_noprefilter = _run_sequential(
        StreamERConfig.interned(prefilter=False, **_base_kwargs(ds)), entities
    )

    shm_backend = SharedMemoryBackend() if backend == "shm" else None
    start = time.perf_counter()
    mp_pipeline = MultiprocessERPipeline(
        StreamERConfig.interned(**_base_kwargs(ds)),
        workers=WORKERS,
        chunk_size=CHUNK_SIZE,
        backend=shm_backend,
    )
    mp_result = mp_pipeline.run(entities)
    mp_seconds = time.perf_counter() - start
    mp_pairs = mp_pipeline.backend.matches.pairs()
    mp_pipeline.close()
    leaked_segments = 0
    if shm_backend is not None:
        prefix = shm_backend.name
        shm_backend.unlink()
        leaked_segments = len(active_shm_segments(prefix))

    co_speedup = (
        seq_string["co_seconds"] / seq_interned["co_seconds"]
        if seq_interned["co_seconds"]
        else 0.0
    )
    mp_speedup = seq_interned["seconds"] / mp_seconds if mp_seconds else 0.0

    payload = {
        "benchmark": "compare_kernel",
        "entities": len(entities),
        "threshold": THRESHOLD,
        "workers": WORKERS,
        "chunk_size": CHUNK_SIZE,
        "mp_backend": backend,
        "leaked_shm_segments": leaked_segments,
        "effective_cpus": effective_cpus(),
        "sequential_string": _public(seq_string),
        "sequential_interned": _public(seq_interned),
        "sequential_interned_noprefilter": _public(seq_noprefilter),
        "multiprocess_interned": {
            "seconds": round(mp_seconds, 3),
            "entities_per_second": round(len(entities) / mp_seconds, 1),
            "matches": len(mp_pairs),
            "pairs_prefiltered": mp_pipeline.pairs_prefiltered,
            "pairs_dispatched": mp_pipeline.pairs_dispatched,
            "dispatch_mode": mp_pipeline.dispatch_mode,
        },
        "co_speedup": round(co_speedup, 3),
        "co_speedup_target": CO_SPEEDUP_TARGET,
        "co_speedup_target_met": co_speedup >= CO_SPEEDUP_TARGET,
        "mp_speedup": round(mp_speedup, 3),
        "mp_speedup_baseline": MP_BASELINE,
        "mp_speedup_better_than_baseline": mp_speedup > MP_BASELINE,
        "comparisons": {
            "string_vs_interned": {
                "match_sets_identical": seq_string["pairs"] == seq_interned["pairs"]
                and seq_string["pairs"] == seq_noprefilter["pairs"],
            },
            "multiprocess_vs_sequential": {
                "match_sets_identical": mp_pairs == seq_string["pairs"],
            },
        },
        "multiprocess_result_matches": len(mp_result.match_pairs),
    }
    return payload


def _public(run: dict) -> dict:
    """The JSON view of one sequential run (the raw pair set stays local)."""
    return {k: v for k, v in run.items() if k != "pairs"}


def _report(payload: dict) -> None:
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    rows = [
        {
            "run": name,
            "seconds": payload[key]["seconds"],
            "co_seconds": payload[key].get("co_seconds", "-"),
            "matches": payload[key]["matches"],
        }
        for name, key in (
            ("seq string", "sequential_string"),
            ("seq interned", "sequential_interned"),
            ("seq interned (no prefilter)", "sequential_interned_noprefilter"),
            (f"mp x{payload['workers']} interned", "multiprocess_interned"),
        )
    ]
    save_result(
        "compare_kernel",
        format_table(rows)
        + f"\nco speedup: {payload['co_speedup']}x"
        + f" | mp speedup: {payload['mp_speedup']}x"
        + f" on {payload['effective_cpus']} cpu(s)"
        + f"\n[saved to {RESULT_PATH}]",
    )


def test_compare_kernel(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    payload = run_benchmark()
    _report(payload)

    # Interning must never change the answer, on any hardware.
    assert payload["comparisons"]["string_vs_interned"]["match_sets_identical"]
    assert payload["comparisons"]["multiprocess_vs_sequential"]["match_sets_identical"]
    assert payload["entities"] >= 20_000
    assert payload["co_speedup_target_met"], payload
    assert payload["mp_speedup_better_than_baseline"], payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--entities", type=int, default=N_ENTITIES)
    parser.add_argument(
        "--backend",
        choices=("memory", "shm"),
        default="memory",
        help="state backend for the multiprocess run (shm = shared-memory "
        "token columns with row-number dispatch)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="correctness only: fail on match-set divergence (and, with "
        "--backend shm, on leaked shared-memory segments); ignore timing",
    )
    args = parser.parse_args(argv)

    payload = run_benchmark(args.entities, backend=args.backend)
    if args.smoke:
        diverged = not (
            payload["comparisons"]["string_vs_interned"]["match_sets_identical"]
            and payload["comparisons"]["multiprocess_vs_sequential"][
                "match_sets_identical"
            ]
        )
        print(json.dumps(payload["comparisons"], indent=2))
        print(f"co_speedup={payload['co_speedup']} (informational in smoke mode)")
        if diverged:
            print("FAIL: interned kernel diverged from the string-set match set")
            return 1
        if payload["leaked_shm_segments"]:
            print(
                f"FAIL: {payload['leaked_shm_segments']} shared-memory "
                "segment(s) leaked after the multiprocess run"
            )
            return 1
        print("OK: match sets identical across comparators and executors")
        return 0
    _report(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
