"""The repository's benchmark: cold measurements of one workload, with gates.

Run from the repository root::

    python3 perfbench/run.py --workload dbpedia-incr --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

The inputs are generated from ``--seed`` once per run.  Every measurement
is a fresh process (``measure.py``), forked from this one before it has run
any executor, that builds every executor cold and runs one of them.  A
*round* measures each executor once, in a fixed order.  With ``--trace 0``
the run repeats rounds while another one still fits in ``--seconds`` (at
least ``MIN_ROUNDS``) and prints every end-to-end metric as the median
over its rounds, throughput scaled to the reference host's speed.  With
``--trace 1`` it makes one plain round and one traced round and prints
the per-layer metrics, including the tracing overhead.  Human-readable lines come first;
the last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  A full record with provenance, and the spans of a
traced round, go to ``perfbench/out/``.

Exit codes: 0 when every correctness gate held, 1 when one failed (the
result is still printed), 2 when the program or a measurement could not
run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import selectors
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
try:
    # Imported once here, before any measurement is forked.
    import measure
    from common import effective_cpus
    from workloads import EXECUTORS, OPEN_LOOPS, WORKLOADS
except ImportError as exc:  # a checkout without the program beside the benchmark
    print(f"error: cannot import the program to benchmark: {exc}", file=sys.stderr)
    sys.exit(2)
#: Seconds ``measure.reference_seconds`` takes, by process count, on the
#: 2-CPU host the first numbers came from when no neighbour contends for
#: its CPUs.  Throughput is reported scaled to a host of that speed (see
#: ``end_to_end``).
REFERENCE_S = {1: 0.042, 2: 0.048}
MIN_ROUNDS = 2
MAX_ROUNDS = 16
MEASURE_TIMEOUT = 120.0
MP_EXECUTORS = ("mp_chunked", "mp_partitioned")
STAGES = ("dr", "bb_bp", "bg", "cg", "cc", "lm", "co", "cl")

#: End-to-end metrics: name → unit (``--trace 0``).
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    **{f"{ex}.entities_per_s": "1/s" for ex in EXECUTORS},
    "recall": "ratio",
    "precision": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name → unit (``--trace 1``).
PER_LAYER: dict[str, str] = {
    **{f"{ex}.{st}.busy_s": "s" for ex in EXECUTORS for st in STAGES},
    "seq.root_self_s": "s",
    "bb_bp.blocks_pruned": "count",
    "bg.keys_ghosted": "count",
    "cg.candidates": "count",
    "cc.retained": "count",
    "cc.retention": "ratio",
    "co.prefiltered": "count",
    "co.scored": "count",
    "co.match_yield": "ratio",
    "cl.matches": "count",
    **{
        f"{mp}.{name}": unit
        for mp in MP_EXECUTORS
        for name, unit in (
            ("dispatch_self_s", "s"),
            ("worker_cpu_s", "s"),
            ("parent_cpu_s", "s"),
            ("worker_utilization", "ratio"),
            ("pool_spawns", "count"),
            ("shm_mb", "MB"),
            ("leaked_segments", "count"),
        )
    },
    "mp_partitioned.imbalance": "ratio",
    "mp_partitioned.largest_share": "ratio",
    "pp.low.latency_p50_ms": "ms",
    "pp.low.latency_p99_ms": "ms",
    "pp.high.latency_p50_ms": "ms",
    "pp.high.latency_p99_ms": "ms",
    "pp.generator_late_max_ms": "ms",
    "pp.backlog_max": "count",
    "shm.tracker_errors": "count",
    "failed_share": "ratio",
    "trace.overhead_share": "ratio",
    "trace.seq.overhead_share": "ratio",
    "trace.seq.attribution_gap": "ratio",
    **{f"trace.registry_gap.{st}": "ratio" for st in STAGES},
}


class MeasureFailed(RuntimeError):
    """A measurement process crashed, timed out, or printed no record."""


def tracker_errors(stderr: str) -> int:
    """``resource_tracker`` KeyError tracebacks in a measurement's stderr.

    Counted, never filtered: the shared-memory double-unregister defect
    prints one per segment generation whose registration a worker removed.
    """
    return sum(
        1
        for block in stderr.split("Traceback (most recent call last):")
        if "resource_tracker" in block and "\nKeyError" in block
    )


def measure_forked(workload: str, dataset, executor: str, spans: Path | None = None) -> dict:
    """Run one measurement in a child forked from this (never-run) process.

    The child's record comes back over a pipe; its stdout and stderr, and
    those of anything it starts (pool workers, the resource tracker), go
    to a second pipe that is read to EOF, so every such process has ended.
    """
    result_r, result_w = os.pipe()
    err_r, err_w = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.setpgid(0, 0)
            os.close(result_r)
            os.close(err_r)
            os.dup2(err_w, 1)
            os.dup2(err_w, 2)
            record = measure.measure(workload, dataset, executor, spans)
            with os.fdopen(result_w, "w") as out:
                out.write(json.dumps(record))
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(result_w)
    os.close(err_w)
    received = {result_r: bytearray(), err_r: bytearray()}
    deadline = time.monotonic() + MEASURE_TIMEOUT
    with selectors.DefaultSelector() as selector:
        for fd in received:
            selector.register(fd, selectors.EVENT_READ)
        while selector.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                os.killpg(pid, signal.SIGKILL)
                break
            for key, _ in selector.select(remaining):
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    received[key.fd] += chunk
                else:
                    selector.unregister(key.fd)
    for fd in received:
        os.close(fd)
    _, status = os.waitpid(pid, 0)
    stderr = received[err_r].decode(errors="replace")
    if os.waitstatus_to_exitcode(status) != 0 or not received[result_r]:
        raise MeasureFailed(
            f"{workload}/{executor} failed (status {status}):\n{stderr[-4000:]}"
        )
    record = json.loads(received[result_r])
    record["tracker_errors"] = tracker_errors(stderr)
    return record


def measure_round(workload: str, dataset, executors, spans_stem: str | None = None) -> dict:
    return {
        ex: measure_forked(
            workload,
            dataset,
            ex,
            OUT_DIR / f"{spans_stem}-{ex}.csv.gz" if spans_stem else None,
        )
        for ex in executors
    }


def git_sha() -> str:
    """HEAD's commit read from ``.git`` files (no git process, no parent dirs)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    cpus = effective_cpus()
    return {
        "effective_cpus": cpus,
        "cpu_limited": cpus < 2,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "seed": seed,
    }


# -- end-to-end (--trace 0) -------------------------------------------------


def end_to_end(rounds: list[dict]) -> tuple[dict[str, float], dict[str, str]]:
    """Median over rounds of every end-to-end metric, plus a note per metric.

    A shared host's speed drifts by tens of percent over minutes, and a
    neighbour that takes one of the two CPUs slows the executors that keep
    both busy far more than the single-threaded ones.  Each measurement
    therefore also times a fixed reference task in as many processes as
    its executor keeps CPUs busy.  Throughput is scaled by the run's median
    reference time for that process count over ``REFERENCE_S``: the rate
    the executor would reach on the reference host.  A change to the
    program moves the executors but not the reference task, so it still
    shows in full.
    """

    def median_of(executor: str, value) -> float:
        return statistics.median(value(r[executor]) for r in rounds)

    metrics: dict[str, float] = {}
    notes: dict[str, str] = {}
    def host_speed(processes: int) -> float:
        samples = [
            t
            for r in rounds
            for record in r.values()
            if record["reference_processes"] == processes
            for t in record["reference_s"]
        ]
        return statistics.median(samples) / REFERENCE_S[processes]

    setup = [r[ex]["setup_s"] for r in rounds for ex in r]
    metrics["setup_s"] = statistics.median(setup)
    notes["setup_s"] = f"median of {len(setup)} cold builds of every executor"
    for ex in EXECUTORS:
        raw = median_of(ex, lambda r: r["entities"] / r["wall_s"])
        speed = host_speed(rounds[0][ex]["reference_processes"])
        metrics[f"{ex}.entities_per_s"] = raw * speed
        notes[f"{ex}.entities_per_s"] = (
            f"{rounds[0][ex]['entities']} entities, median of {len(rounds)} rounds; "
            f"{raw:.1f} before scaling by host speed {speed:.3f}"
        )
    metrics["recall"] = rounds[0]["seq"]["recall"]
    metrics["precision"] = rounds[0]["seq"]["precision"]
    metrics["peak_rss_mb"] = max(median_of(ex, lambda r: r["peak_rss_mb"]) for ex in rounds[0])
    notes["peak_rss_mb"] = "largest executor's median"
    return metrics, notes


# -- per-layer (--trace 1) ---------------------------------------------------


def per_layer(plain: dict, traced: dict) -> dict[str, float]:
    layers = {ex: record["layers"] for ex, record in traced.items()}
    metrics: dict[str, float] = {}
    for ex in EXECUTORS:
        for st in STAGES:
            metrics[f"{ex}.{st}.busy_s"] = layers[ex]["busy_s"][st]
    seq = layers["seq"]
    counts = traced["seq"]["counts"]
    metrics["seq.root_self_s"] = seq["root_self_s"]
    for name in ("bb_bp.blocks_pruned", "bg.keys_ghosted", "cg.candidates", "cc.retained"):
        metrics[name] = counts[name]
    metrics["cc.retention"] = counts["cc.retained"] / max(1, counts["cg.candidates"])
    scored = seq["co.examined"] - seq["co.prefiltered"]
    metrics["co.prefiltered"] = seq["co.prefiltered"]
    metrics["co.scored"] = scored
    metrics["co.match_yield"] = counts["cl.matches"] / max(1, scored)
    metrics["cl.matches"] = counts["cl.matches"]
    for mp in MP_EXECUTORS:
        run = traced[mp]
        metrics[f"{mp}.dispatch_self_s"] = layers[mp]["root_self_s"]
        metrics[f"{mp}.worker_cpu_s"] = run["worker_cpu_s"]
        metrics[f"{mp}.parent_cpu_s"] = run["cpu_self_s"]
        metrics[f"{mp}.worker_utilization"] = run["worker_cpu_s"] / (
            measure.WORKERS * run["wall_s"]
        )
        metrics[f"{mp}.pool_spawns"] = run["pool_spawns"]
        metrics[f"{mp}.shm_mb"] = run["shm_mb"]
        metrics[f"{mp}.leaked_segments"] = run["leaked_segments"]
    metrics["mp_partitioned.imbalance"] = traced["mp_partitioned"]["imbalance"]
    metrics["mp_partitioned.largest_share"] = traced["mp_partitioned"]["largest_share"]
    open_loops = [plain[ex] for ex in OPEN_LOOPS]
    for ex in OPEN_LOOPS:
        for q in ("p50", "p99"):
            metrics[f"{ex}.latency_{q}_ms"] = plain[ex][f"latency_{q}_ms"]
    metrics["pp.generator_late_max_ms"] = max(r["generator_late_max_ms"] for r in open_loops)
    metrics["pp.backlog_max"] = max(r["backlog_max"] for r in open_loops)
    metrics["shm.tracker_errors"] = sum(r["tracker_errors"] for r in plain.values())
    metrics["failed_share"] = sum(r["failed"] for r in plain.values()) / sum(
        r["attempted"] for r in plain.values()
    )

    def wall(records: dict) -> float:
        return sum(records[ex]["wall_s"] for ex in EXECUTORS)

    untraced_seq = plain["seq"]["wall_s"]
    metrics["trace.overhead_share"] = wall(traced) / wall(plain) - 1
    metrics["trace.seq.overhead_share"] = traced["seq"]["wall_s"] / untraced_seq - 1
    attributed = sum(seq["busy_s"].values()) + seq["root_self_s"]
    metrics["trace.seq.attribution_gap"] = attributed / untraced_seq - 1
    for st in STAGES:
        span = seq["busy_s"][st]
        metrics[f"trace.registry_gap.{st}"] = seq["registry_s"][st] / span - 1 if span else 0.0
    return metrics


# -- running a workload ------------------------------------------------------


def failed_gates(rounds: list[dict]) -> list[str]:
    """Every gate that failed in any measurement, plus match-digest mismatches."""
    failed = sorted(
        {
            f"{ex}.{gate}"
            for r in rounds
            for ex, record in r.items()
            for gate, ok in record["gates"].items()
            if not ok
        }
    )
    oracle = rounds[0]["seq"]["digest"]
    for ex in EXECUTORS:
        if any(r[ex]["digest"] != oracle for r in rounds):
            failed.append(f"{ex}.matches_equal_seq")
    return failed


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    prov = provenance(seed)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    dataset = WORKLOADS[workload].dataset(seed)
    # Children share the parent's heap copy-on-write; frozen objects are
    # never traversed by the collector, so a child's GC neither copies the
    # inherited pages nor spends time on the benchmark's own objects.
    gc.freeze()
    print(
        f"# {workload} seed={seed} trace={int(trace)} entities={len(dataset)} "
        f"effective_cpus={prov['effective_cpus']} cpu_limited={prov['cpu_limited']} "
        f"git={prov['git_sha'][:12]} python={prov['python']}",
        flush=True,
    )
    rounds: list[dict] = []
    if trace:
        rounds.append(measure_round(workload, dataset, EXECUTORS + OPEN_LOOPS))
        rounds.append(
            measure_round(workload, dataset, EXECUTORS, f"spans-{workload}-seed{seed}")
        )
    else:
        longest = 0.0
        while len(rounds) < MIN_ROUNDS or (
            len(rounds) < MAX_ROUNDS and time.perf_counter() - started + longest <= seconds
        ):
            round_start = time.perf_counter()
            rounds.append(measure_round(workload, dataset, EXECUTORS))
            longest = max(longest, time.perf_counter() - round_start)
    if trace:
        metrics = per_layer(rounds[0], rounds[1])
        units = PER_LAYER
        notes: dict[str, str] = {}
    else:
        metrics, notes = end_to_end(rounds)
        units = END_TO_END
    failed = failed_gates(rounds)
    correct = not failed
    print(
        f"# {len(rounds)} round(s), match digest {rounds[0]['seq']['digest']}, "
        f"gates {'ok' if correct else 'FAILED: ' + ', '.join(failed)}, "
        f"shm tracker errors {sum(rec['tracker_errors'] for r in rounds for rec in r.values())}"
    )
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<34} {metrics[name]:>14.4f} {unit}{note}")
    result = {
        "correct": correct,
        "attempted": sum(rec["attempted"] for r in rounds for rec in r.values()),
        "failed": sum(rec["failed"] for r in rounds for rec in r.values()),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"workload": workload, **prov, "failed_gates": failed, "result": result,
              "rounds": rounds}
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1)
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace))
            for name in names
        }
    except MeasureFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
