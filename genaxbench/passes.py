"""The aligning process: timed FASTA + FASTQ -> SAM passes, one workload.

Started by ``run.py`` after the inputs exist on disk, so its peak RSS
belongs to the aligner alone.  Each pass drives the public calls the
``repro-genax align`` command makes, serially (``jobs=1``) and with
no extra threads, and times each call:

    read_fasta -> get_backend(name).build -> read_fastq -> align_batch
    -> resolve_pair with PairRescuer (paired workloads) -> write_sam

A warm-up pass first aligns the whole read set in one ``align_batch``
call, as the CLI does.  Timed passes then repeat back to back, each
rebuilding the aligner, until ``--seconds`` have gone by (at least
``MIN_PASSES``).  A timed pass feeds the reads to ``align_batch`` (and
pair resolution) a few at a time, ``Workload.chunk_reads``, and times
each chunk on its own.  Right before the setup, and before and after
each timed chunk, it times ``host_probe``, a fixed piece of pure Python,
so ``run.py`` can scale each chunk by how fast the shared host was
around it.  With ``--trace 1`` one more pass, chunked the same way,
runs with the aligner built inside ``telemetry_session()``, and its
``PipelineDriver`` spans are aggregated into per-stage self-times.

Writes each pass's SAM to ``<out>/pass_<i>.sam`` (the warm-up and traced
passes to ``<out>/warmup.sam`` and ``<out>/traced.sam``) and prints one
JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.genome.fasta import read_fasta, read_fastq
from repro.genome.reference import ReferenceGenome
from repro.pipeline.bwamem import BwaMemConfig
from repro.pipeline.genax import GenAxConfig
from repro.pipeline.longread import LongReadConfig
from repro.pipeline.pairs import PairRescuer, resolve_pair
from repro.pipeline.registry import get_backend
from repro.pipeline.sam import write_sam
from repro.telemetry import aggregate_events, telemetry_session

from workloads import (
    CLI_EDIT_BOUND,
    CLI_INSERT_MEAN,
    CLI_INSERT_SLACK,
    CLI_KMER,
    CLI_MIN_SCORE,
    CLI_SEGMENTS,
    WORKLOADS,
    Workload,
)

#: Timed passes per run regardless of ``--seconds``: each chunk's
#: median over several is the steady figure.
MIN_PASSES = 3

_clock = time.perf_counter

#: The host-speed probe's two fixed sequences (seeded, never changed).
_PROBE_ROWS, _PROBE_COLS = (
    "".join(random.Random(seed).choice("ACGT") for _ in range(96))
    for seed in (1, 2)
)


def host_probe() -> float:
    """Seconds one fixed pure-Python edit-distance DP takes right now.

    It runs no program code, so only the host's speed moves it (about
    2 ms on a quiet 2-vCPU VM).  The rows are preallocated so the
    probe allocates nothing the garbage collector could charge to it.
    """
    previous = list(range(len(_PROBE_COLS) + 1))
    current = [0] * len(previous)
    started = _clock()
    for i, row_base in enumerate(_PROBE_ROWS, 1):
        current[0] = i
        for j, col_base in enumerate(_PROBE_COLS, 1):
            current[j] = min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (row_base != col_base),
            )
        previous, current = current, previous
    return _clock() - started


def cli_config(workload: Workload) -> object:
    """The config ``repro-genax align`` builds for this workload."""
    if workload.backend == "genax":
        return GenAxConfig(
            k=CLI_KMER,
            edit_bound=CLI_EDIT_BOUND,
            segment_count=CLI_SEGMENTS,
            min_score=CLI_MIN_SCORE,
            filters=workload.filters,
        )
    if workload.backend == "longread":
        return LongReadConfig(k=CLI_KMER, min_score=CLI_MIN_SCORE)
    if workload.backend == "bwamem":
        return BwaMemConfig(
            k=CLI_KMER,
            band=CLI_EDIT_BOUND,
            min_score=CLI_MIN_SCORE,
            filters=workload.filters,
        )
    raise ValueError(f"no CLI config for backend {workload.backend!r}")


def _counters(aligner: Any, rescuer: Optional[PairRescuer]) -> Dict[str, float]:
    """Work counts from the public stats surfaces of one pass."""
    stats = aligner.stats
    counters: Dict[str, float] = {
        "reads_total": stats.reads_total,
        "reads_exact": stats.reads_exact,
        "extensions": stats.extensions,
        "dp_cells": stats.dp_cells,
        "sillax_cycles": 0,
        "rerun_events": 0,
        "index_lookups": 0,
        "chain_anchor_hits": 0,
        "candidates_checked": 0,
        "candidates_rejected": 0,
        "rescue_attempts": 0,
        "rescued": 0,
    }
    lane_stats = getattr(aligner, "lane_stats", None)
    if lane_stats is not None:
        counters["sillax_cycles"] = lane_stats.cycles
        counters["rerun_events"] = lane_stats.rerun_events
    seeding_stats = getattr(aligner, "seeding_stats", None)
    if seeding_stats is not None:
        counters["index_lookups"] = seeding_stats.finder.index_lookups
    chain_stats = getattr(aligner, "chain_stats", None)
    if chain_stats is not None:
        counters["index_lookups"] = chain_stats.anchors_sampled
        counters["chain_anchor_hits"] = chain_stats.anchor_hits
    cascade = getattr(aligner, "cascade", None)
    if cascade is not None:
        report = cascade.report()
        counters["candidates_checked"] = report[0][1].checked
        counters["candidates_rejected"] = sum(row.rejected for _, row in report)
    if rescuer is not None:
        counters["rescue_attempts"] = rescuer.stats.rescue_attempts
        counters["rescued"] = rescuer.stats.rescued
    return counters


def _resolve_pairs(
    mapped: List[Any], reads: List[Any], rescuer: PairRescuer, aligner: Any
) -> List[Any]:
    resolved: List[Any] = []
    for index in range(0, len(mapped) - 1, 2):
        pairing = resolve_pair(
            mapped[index],
            mapped[index + 1],
            reads[index].sequence,
            reads[index + 1].sequence,
            rescuer,
            aligner.stats,
        )
        resolved.extend((pairing.first, pairing.second))
    return resolved


def run_pass(
    workload: Workload,
    reference_path: Path,
    reads_path: Path,
    sam_path: Path,
    traced: bool,
    chunk_reads: Optional[int],
) -> Dict[str, Any]:
    """One FASTA + FASTQ -> SAM pass; returns its timers and counters.

    With ``chunk_reads`` the reads go through ``align_batch`` (and pair
    resolution) ``chunk_reads`` at a time on the pass's one aligner, and
    each chunk is timed on its own (``align_chunks_s``, ``pairs_chunks_s``).
    With ``None`` the whole read set is one batch, as the CLI aligns it.
    """
    config = cli_config(workload)
    error: Optional[str] = None
    setup_probe = host_probe()
    t0 = _clock()
    name, sequence = read_fasta(reference_path)[0]
    reference = ReferenceGenome(sequence=sequence, name=name)
    t1 = _clock()
    with telemetry_session() if traced else contextlib.nullcontext() as telemetry:
        aligner = get_backend(workload.backend).build(reference, config, None)
        t2 = _clock()
        reads = read_fastq(reads_path)
        t3 = _clock()
        rescuer: Optional[PairRescuer] = None
        if workload.paired:
            rescuer = PairRescuer(
                reference.sequence,
                insert_mean=CLI_INSERT_MEAN,
                insert_slack=CLI_INSERT_SLACK,
                min_score=CLI_MIN_SCORE,
            )
        step = chunk_reads or len(reads)
        mapped: List[Any] = []
        align_chunks: List[float] = []
        pairs_chunks: List[float] = []
        # probes[i] and probes[i + 1] bracket the i-th timed step, the
        # steps running align, pairs, align, pairs ... (align only when
        # unpaired).
        probes = [host_probe()]
        for low in range(0, len(reads), step):
            chunk = reads[low : low + step]
            c0 = _clock()
            try:
                part = aligner.align_batch(chunk)
            except Exception:  # a raising batch leaves its reads unanswered
                error = traceback.format_exc()
                break
            align_chunks.append(_clock() - c0)
            probes.append(host_probe())
            if rescuer is not None:
                c0 = _clock()
                part = _resolve_pairs(part, chunk, rescuer, aligner)
                pairs_chunks.append(_clock() - c0)
                probes.append(host_probe())
            mapped.extend(part)
    spans = (
        {}
        if telemetry is None
        else {
            span: stat.self_s
            for span, stat in aggregate_events(telemetry.tracer.events).items()
        }
    )
    t4 = _clock()
    write_sam(sam_path, reference, mapped, reads)
    t5 = _clock()

    timers = {
        "read_fasta_s": t1 - t0,
        "build_s": t2 - t1,
        "setup_s": t2 - t0,
        "read_fastq_s": t3 - t2,
        "align_batch_s": sum(align_chunks),
        "pairs_s": sum(pairs_chunks),
        "write_sam_s": t5 - t4,
    }
    return {
        "timers": timers,
        "setup_probe_s": setup_probe,
        "align_chunks_s": align_chunks,
        "pairs_chunks_s": pairs_chunks,
        "probes_s": probes,
        "counters": _counters(aligner, rescuer),
        "spans": spans,
        "error": error,
        "sam": str(sam_path),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--reference", required=True, type=Path)
    parser.add_argument("--reads", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    # The warm-up pass aligns the whole read set in one batch, as the
    # CLI does; its SAM is the reference the chunked passes must match.
    warmup = run_pass(
        workload, args.reference, args.reads, args.out / "warmup.sam", False,
        None,
    )
    passes: List[Dict[str, Any]] = []
    started = _clock()
    while len(passes) < MIN_PASSES or _clock() - started < args.seconds:
        sam_path = args.out / f"pass_{len(passes):03d}.sam"
        passes.append(
            run_pass(
                workload, args.reference, args.reads, sam_path, False,
                workload.chunk_reads,
            )
        )
    traced = None
    if args.trace:
        traced = run_pass(
            workload, args.reference, args.reads, args.out / "traced.sam", True,
            workload.chunk_reads,
        )
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        json.dumps(
            {
                "warmup": warmup,
                "passes": passes,
                "traced": traced,
                "peak_rss_kib": peak_kib,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
