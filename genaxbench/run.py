"""GenAx end-to-end benchmark: generated FASTA + FASTQ in, SAM out.

    python3 genaxbench/run.py --workload short-genax --seed 1 --seconds 35 --trace 0

Run from the repository root; the program under test is imported from
``src/``.  The run

1. generates the workload's reference FASTA and read FASTQ from
   ``--seed`` (ground truth in the read names) under ``.genaxbench_work/``;
2. starts one aligning process (``passes.py``) that runs a whole-batch
   warm-up pass, repeats the chunked FASTA + FASTQ -> SAM pass for
   ``--seconds`` and, with ``--trace 1``, one traced pass;
3. checks every SAM it wrote: one primary record per read, bodies
   byte-identical across passes, right-locus rate above the workload's
   floor;
4. divides each timed step of each pass by the host-speed probe taken
   around it and takes the median over the passes, step by step
   (``calibrated_align_s``, ``calibrated_setup_s``); the raw fastest
   times (``best_timers``) go to the per-layer timers;
5. prints a table to stderr and, as the last stdout line, one JSON
   object with the end-to-end metrics (``--trace 0``) or the per-layer
   metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: The aligning process must finish well inside the 180 s run limit.
CHILD_TIMEOUT_S = 165

#: ``passes.host_probe``'s typical time on the 2-vCPU VM the benchmark
#: was tuned on, in a quiet spell.  Calibrated times are scaled to it,
#: so they read as seconds on that host when it is quiet.
PROBE_REFERENCE_S = 0.0023


def _fail(message: str) -> int:
    print(f"genaxbench: {message}", file=sys.stderr)
    return 2


def _sam_body(path: Path) -> bytes:
    with open(path, "rb") as handle:
        return b"".join(line for line in handle if not line.startswith(b"@"))


def check_sam(
    body: bytes, read_names: List[str], locus_slack: int
) -> Tuple[int, int, List[str]]:
    """``(answered, right_locus, problems)`` for one SAM body.

    A read is answered when it has exactly one primary record, in FASTQ
    order.  It is right-locus when that record is mapped on the true
    strand within ``locus_slack`` bp of the true position encoded in the
    read name (``name|position|strand``).
    """
    problems: List[str] = []
    primary: List[List[str]] = []
    for line in body.decode().splitlines():
        fields = line.split("\t")
        if int(fields[1]) & 0x900:  # secondary / supplementary
            continue
        primary.append(fields)
    names = [fields[0] for fields in primary]
    if names != read_names[: len(names)]:
        problems.append("SAM primary records are not one per read in FASTQ order")
    answered = len(names) if not problems else 0
    if answered != len(read_names):
        problems.append(
            f"{len(read_names) - answered} of {len(read_names)} reads "
            "have no primary SAM record"
        )
    right = 0
    for fields in primary[:answered]:
        flag = int(fields[1])
        if flag & 0x4:
            continue
        _, true_position, strand = fields[0].rsplit("|", 2)
        if ((flag & 0x10) != 0) != (strand == "-"):
            continue
        if abs(int(fields[3]) - 1 - int(true_position)) <= locus_slack:
            right += 1
    return answered, right, problems


def best_timers(passes: List[Dict[str, Any]]) -> Dict[str, float]:
    """Each step's raw fastest time over the timed passes.

    ``align_batch_s`` and ``pairs_s`` sum, chunk by chunk, the fastest
    time of that chunk in any pass.
    """

    def chunk_best(key: str) -> float:
        return sum(min(times) for times in zip(*(p[key] for p in passes)))

    return {
        "read_fastq_s": min(p["timers"]["read_fastq_s"] for p in passes),
        "align_batch_s": chunk_best("align_chunks_s"),
        "pairs_s": chunk_best("pairs_chunks_s"),
        "write_sam_s": min(p["timers"]["write_sam_s"] for p in passes),
    }


def _probe_scaled_steps(run_pass: Dict[str, Any]) -> List[float]:
    """One pass's timed steps, each in units of the host probe around it.

    The steps run ``read_fastq``, then align, pairs, align, pairs ...
    chunks (align only when unpaired), then ``write_sam``.  ``probes_s``
    brackets the chunks, so a chunk is divided by the mean of the probes
    right before and right after it; ``read_fastq`` and ``write_sam``
    (about 1 ms together) by the one probe next to each.
    """
    probes = run_pass["probes_s"]
    chunks = run_pass["align_chunks_s"]
    if run_pass["pairs_chunks_s"]:
        chunks = [
            t for pair in zip(chunks, run_pass["pairs_chunks_s"]) for t in pair
        ]
    timers = run_pass["timers"]
    return (
        [timers["read_fastq_s"] / probes[0]]
        + [
            seconds / ((probes[i] + probes[i + 1]) / 2)
            for i, seconds in enumerate(chunks)
        ]
        + [timers["write_sam_s"] / probes[-1]]
    )


def calibrated_align_s(passes: List[Dict[str, Any]]) -> float:
    """FASTQ-parse to SAM-written seconds at the probe's reference speed.

    Each step's time over the probe around it, median over the passes,
    summed over the steps and scaled to ``PROBE_REFERENCE_S``: a pass
    that fell in a slow spell of the shared host has slow probes too.
    """
    per_pass = [_probe_scaled_steps(p) for p in passes]
    return PROBE_REFERENCE_S * sum(
        statistics.median(step) for step in zip(*per_pass)
    )


def calibrated_setup_s(passes: List[Dict[str, Any]]) -> float:
    """Median setup seconds, each pass's over the probes around its setup."""
    return PROBE_REFERENCE_S * statistics.median(
        p["timers"]["setup_s"] / ((p["setup_probe_s"] + p["probes_s"][0]) / 2)
        for p in passes
    )


def _median_timer(passes: List[Dict[str, Any]], key: str) -> float:
    return statistics.median(p["timers"][key] for p in passes)


def end_to_end_metrics(
    passes: List[Dict[str, Any]], reads: int, right: int, answered: int,
    peak_rss_kib: int,
) -> Dict[str, Tuple[float, str]]:
    return {
        "reads_per_s": (reads / calibrated_align_s(passes), "1/s"),
        "setup_s": (calibrated_setup_s(passes), "s"),
        "peak_rss_mb": (peak_rss_kib / 1024.0, "MB"),
        "right_locus_rate": (right / reads, "ratio"),
        "answered_read_rate": (answered / reads, "ratio"),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    passes: List[Dict[str, Any]], traced: Dict[str, Any]
) -> Dict[str, Tuple[float, str]]:
    timers = best_timers(passes)
    counters = passes[0]["counters"]
    spans = traced["spans"]
    dp_seconds = timers["align_batch_s"] + timers["pairs_s"]
    return {
        "genome.read_fasta_s": (_median_timer(passes, "read_fasta_s"), "s"),
        "pipeline.build_s": (_median_timer(passes, "build_s"), "s"),
        "genome.read_fastq_s": (timers["read_fastq_s"], "s"),
        "pipeline.align_batch_s": (timers["align_batch_s"], "s"),
        "pipeline.pairs_s": (timers["pairs_s"], "s"),
        "pipeline.write_sam_s": (timers["write_sam_s"], "s"),
        "seeding.self_s": (spans.get("seed", 0.0), "s"),
        "filters.self_s": (
            spans.get("filter", 0.0) + spans.get("filter_batch", 0.0), "s"
        ),
        "extend.self_s": (
            spans.get("extend", 0.0) + spans.get("extend_batch", 0.0), "s"
        ),
        "pipeline.select_self_s": (spans.get("select", 0.0), "s"),
        "sillax.cycles": (counters["sillax_cycles"], "count"),
        "sillax.rerun_events": (counters["rerun_events"], "count"),
        "align.extensions": (counters["extensions"], "count"),
        "align.dp_cells": (counters["dp_cells"], "count"),
        "align.dp_cells_per_s": (_ratio(counters["dp_cells"], dp_seconds), "1/s"),
        "filters.candidates_checked": (counters["candidates_checked"], "count"),
        "filters.reject_frac": (
            _ratio(counters["candidates_rejected"], counters["candidates_checked"]),
            "ratio",
        ),
        "pairs.rescue_attempts": (counters["rescue_attempts"], "count"),
        "pairs.rescued": (counters["rescued"], "count"),
        "pairs.s_per_rescue": (
            _ratio(timers["pairs_s"], counters["rescue_attempts"]), "s"
        ),
        "seeding.index_lookups": (counters["index_lookups"], "count"),
        "seeding.chain_anchor_hits": (counters["chain_anchor_hits"], "count"),
        "pipeline.reads_exact_frac": (
            _ratio(counters["reads_exact"], counters["reads_total"]), "ratio"
        ),
        "host.probe_s": (
            statistics.median(t for p in passes for t in p["probes_s"]), "s"
        ),
        "trace.overhead_frac": (
            _ratio(
                traced["timers"]["align_batch_s"],
                _median_timer(passes, "align_batch_s"),
            )
            - 1.0,
            "ratio",
        ),
    }


def _run_child(
    workload: str, reference: Path, reads: Path, out: Path, seconds: int,
    trace: int,
) -> Optional[Dict[str, Any]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    command = [
        sys.executable, str(BENCH_DIR / "passes.py"),
        "--workload", workload, "--reference", str(reference),
        "--reads", str(reads), "--out", str(out),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        print("genaxbench: aligning process timed out", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(
            f"genaxbench: aligning process exited {done.returncode}",
            file=sys.stderr,
        )
        return None
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="GenAx FASTA+FASTQ -> SAM benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"the program is not here: no {SRC / 'repro'}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    from repro.genome.fasta import read_fastq
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(
            f"unknown workload {args.workload!r} "
            f"(known: {', '.join(sorted(WORKLOADS))})"
        )
    workload = WORKLOADS[args.workload]
    work = ROOT / ".genaxbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        reference, reads_path, size = workload.write_inputs(args.seed, work)
        result = _run_child(
            workload.name, reference, reads_path, work, args.seconds, args.trace
        )
        if result is None:
            return 1
        read_names = [read.name for read in read_fastq(reads_path)]
        passes = result["passes"]
        outputs = [result["warmup"]] + passes
        outputs += [result["traced"]] if result["traced"] else []
        bodies = [_sam_body(Path(p["sam"])) for p in outputs]
        answered, right, problems = check_sam(
            bodies[0], read_names, workload.locus_slack
        )
        problems += [f"pass raised:\n{p['error']}" for p in outputs if p["error"]]
        if any(body != bodies[0] for body in bodies[1:]):
            problems.append("SAM bodies differ between passes")
        if any(p["counters"] != outputs[0]["counters"] for p in outputs[1:]):
            problems.append("work counters differ between passes")
        rate = right / size.reads
        if rate < workload.min_right_locus:
            problems.append(
                f"right_locus_rate {rate:.3f} below floor "
                f"{workload.min_right_locus}"
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = end_to_end_metrics(
        passes, size.reads, right, answered, result["peak_rss_kib"]
    )
    metrics = (
        per_layer_metrics(passes, result["traced"]) if args.trace else e2e
    )
    print(
        f"{workload.name}: {workload.backend}, {size.reads} reads, "
        f"{size.bases} bases, {size.reference_bp} bp reference, "
        f"{len(passes)} passes",
        file=sys.stderr,
    )
    shown = dict(e2e)
    shown["failed_read_rate"] = (1.0 - answered / size.reads, "ratio")
    if args.trace:
        shown.update(metrics)
    for name, (value, unit) in shown.items():
        print(f"  {name:28s} {value:14.6g} {unit}", file=sys.stderr)
    for problem in problems:
        print(f"  FAIL: {problem}", file=sys.stderr)
    attempted = size.reads * len(outputs)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": (size.reads - answered) * len(outputs),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
