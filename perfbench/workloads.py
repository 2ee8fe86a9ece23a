"""The benchmark's three workloads: which data, how it arrives, and why.

A workload fixes the input *shape*; ``--seed`` picks the instance.  The
program under test only ever sees the generated entities.

Every workload runs every executor (see ``measure.py``), so every metric
is measured on every workload; what differs is where the cost sits:

``dbpedia-incr``
    The paper's comparison-heavy clean-clean case: catalog ``dbpedia`` at
    a small scale, 14.2 attributes per entity, fed in 8 increments.  The
    tail (``cg``/``cc``/``lm``/``co``) takes the largest share of SEQ time,
    so tail kernels and the multiprocess dispatch modes show here.
``wide-dirty-incr``
    A front-heavy dirty case: wide, highly heterogeneous profiles with many
    common tokens and few surviving comparisons.  Reading and blocking
    (``dr``/``bb+bp``) dominate; a tail-kernel change should not move it.
``dirty-stream``
    The paper's streaming case: small dirty profiles.  PP takes them one
    at a time; SEQ and the multiprocess runner take the same stream in 32
    micro-batches, so per-increment dispatch overhead shows here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.datasets import DatasetSpec, GeneratedDataset, catalog, generate

#: α = ALPHA_FRACTION·|D|, β and the classification threshold of every run.
ALPHA_FRACTION = 0.05
BETA = 0.05
THRESHOLD = 0.7

#: Open-loop PP: the first OPEN_ENTITIES entities of the stream, submitted
#: at each fixed rate (entities/s).  Both rates sit below PP's open-loop
#: capacity (about 1,200/s) on a 2-CPU host for every workload, so the
#: backlog stays bounded and latency reflects service, not queue growth.
OPEN_ENTITIES = 1000
RATES = (("low", 400.0), ("high", 800.0))

#: Every executor, measured on every workload in this order.
EXECUTORS = ("seq", "seq_string", "mp_chunked", "mp_partitioned", "pp")
#: PP's open-loop runs; measured only by the traced benchmark run.
OPEN_LOOPS = tuple(f"pp.{label}" for label, _ in RATES)


@dataclass(frozen=True)
class Workload:
    """One input shape: dataset spec (minus the seed) and arrival pattern."""

    name: str
    why: str
    spec: DatasetSpec
    #: Increments SEQ and the multiprocess runner receive the stream in.
    increments: int

    def dataset(self, seed: int) -> GeneratedDataset:
        return generate(dataclasses.replace(self.spec, seed=seed))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="dbpedia-incr",
            why="comparison-heavy clean-clean increments: the cg..co tail takes "
            "the largest share, so tail kernels and multiprocess dispatch show here",
            spec=catalog.spec("dbpedia", 0.001),
            increments=8,
        ),
        Workload(
            name="wide-dirty-incr",
            why="front-heavy dirty increments: reading and blocking dominate "
            "and few comparisons survive, so a tail change should not move it",
            spec=DatasetSpec(
                name="wide-dirty",
                kind="dirty",
                size=3200,
                matches=600,
                avg_attributes=10,
                heterogeneity=0.9,
                vocab_rare=60_000,
                common_tokens_per_entity=8,
                topic_groups=200,
            ),
            increments=8,
        ),
        Workload(
            name="dirty-stream",
            why="small dirty profiles arriving as a stream: one by one for PP, "
            "in 32 micro-batches for SEQ and MP, so per-increment overhead shows",
            spec=DatasetSpec(
                name="dirty-stream",
                kind="dirty",
                size=3000,
                matches=900,
                avg_attributes=4,
                heterogeneity=0.5,
                vocab_rare=30_000,
            ),
            increments=32,
        ),
    )
}
