"""Pre-alignment filter-cascade sweep -> ``BENCH_filters.json``.

Not a paper figure: this is the acceptance benchmark for the repo's
composable filter cascade (:mod:`repro.filters`).  The workload is built
to look like the hard case pre-alignment filters exist for — a
repeat-rich genome (hundreds of diverged copies of one unit) read with
enough errors that SMEM seeds fragment and hit every copy — so spurious
extension candidates dominate and the cascade has junk to kill.  On that
workload the sweep measures, per cascade spec:

* **candidates_checked / rejected_before_dp / reject_rate** — how many
  extension candidates the cascade vetoed before any DP or SillaX lane
  ran (the full ``shouldered -> sneakysnake -> myers`` cascade must
  clear ``REJECT_TARGET`` = 95%);
* **mappings_changed** — rows differing from the unfiltered baseline
  (the cascade is lossless; the acceptance bar is 0);
* **per-stage** checked / rejected / false-accept / cycle counters
  straight from :meth:`FilterCascade.report`, so the cheapest-first
  ordering argument is visible in the data;
* **wall-clock** — elapsed seconds and reads/s against the baseline.

Runs on the ``bwamem`` backend, whose unfiltered baseline verifies
every candidate with banded DP; any spec holding a batched stage
(``sneakysnake``, ``myers``) also exercises the driver's cross-read
``filter_batch`` dispatch.  Results land in
``benchmarks/results/bench/BENCH_filters.json`` in the unified bench
envelope (:mod:`repro.perf.schema`, ``schema_version`` 3; the
bench-specific body lives under ``payload``) so future PRs can regress
against them.

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_filters.py [--quick]

``--quick`` shrinks the workload (120 repeat copies, 24 reads) for CI
smoke runs; the JSON schema is identical.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.filters import DEFAULT_CASCADE
from repro.genome.reference import ReferenceGenome
from repro.perf.schema import BENCH_SCHEMA_VERSION, bench_envelope, write_bench
from repro.perf.workloads import build_repeat_rich_workload
from repro.pipeline.bwamem import BwaMemAligner, BwaMemConfig
from repro.telemetry import monotonic_s

BENCHMARK = "bench_filters"
DEFAULT_OUT = (
    Path(__file__).parent / "results" / "bench" / "BENCH_filters.json"
)

#: The acceptance bar: fraction of extension candidates the full default
#: cascade must reject before any DP runs.
REJECT_TARGET = 0.95

FULL = dict(repeat_copies=400, reads=64)
QUICK = dict(repeat_copies=120, reads=24)

READ_LENGTH = 101
UNIT_BP = 600  # one repeat unit
FLANK_BP = 80  # random spacer between copies
DIVERGENCE = 0.12  # per-base substitution rate between repeat copies
READ_ERRORS = 10  # substitutions per read (fragments the SMEMs)
EDIT_BOUND = 12
KMER = 10  # short k so fragmented seeds still hit the repeat family

#: The cascade specs swept: each stage alone, the cheap pair, and the
#: full default cascade the acceptance bar applies to.
CASCADES: Tuple[Tuple[str, ...], ...] = (
    ("shouldered",),
    ("sneakysnake",),
    ("myers",),
    ("shouldered", "sneakysnake"),
    DEFAULT_CASCADE,
)

# Envelope keys every migrated BENCH file must carry (repro.perf.schema).
ENVELOPE_KEYS = (
    "schema_version", "benchmark", "quick", "machine", "workload",
    "payload", "machine_fingerprint", "workload_fingerprint", "run_id",
)

# Required payload structure: key -> required sub-keys (None = scalar).
# ``workload`` lives on the envelope, the rest under ``payload``;
# :func:`validate_result` checks each where it lives.
RESULT_SCHEMA: Dict[str, Optional[Sequence[str]]] = {
    "workload": ("genome_bp", "repeat_copies", "unit_bp", "divergence",
                 "reads", "read_length", "read_errors", "edit_bound", "kmer"),
    "baseline": ("elapsed_s", "reads_per_s"),
    "cascades": ("spec", "elapsed_s", "reads_per_s", "candidates_checked",
                 "rejected_before_dp", "reject_rate", "mappings_changed",
                 "stages"),
    "acceptance": ("target_reject_rate", "full_cascade_reject_rate",
                   "full_cascade_mappings_changed", "passed"),
}


def validate_result(data: dict) -> List[str]:
    """Return a list of schema violations (empty = valid)."""
    problems: List[str] = []
    for key in ENVELOPE_KEYS:
        if key not in data:
            problems.append(f"missing envelope key {key!r}")
    if data.get("schema_version") != BENCH_SCHEMA_VERSION:
        problems.append(
            f"schema_version {data.get('schema_version')!r} != "
            f"{BENCH_SCHEMA_VERSION}"
        )
    if data.get("benchmark") != BENCHMARK:
        problems.append(f"benchmark {data.get('benchmark')!r} != {BENCHMARK!r}")
    scope = dict(data.get("payload", {}))
    scope["workload"] = data.get("workload", {})
    for key, subkeys in RESULT_SCHEMA.items():
        if key not in scope:
            problems.append(f"missing key {key!r}")
            continue
        if subkeys is None:
            continue
        value = scope[key]
        entries = value if isinstance(value, list) else [value]
        if not entries:
            problems.append(f"{key!r} is empty")
        for entry in entries:
            if not isinstance(entry, dict):
                problems.append(f"{key!r} entry is not an object: {entry!r}")
                continue
            for subkey in subkeys:
                if subkey not in entry:
                    problems.append(f"{key!r} entry missing {subkey!r}")
    return problems


def build_workload(
    repeat_copies: int, read_count: int
) -> Tuple[ReferenceGenome, List[Tuple[str, str]]]:
    """Repeat-rich genome + high-error reads: spurious candidates dominate.

    Delegates to the registered generator in
    :mod:`repro.perf.workloads` (the ``repeat-rich`` profile), so the
    matrix runner and this bench build byte-identical inputs.  Every
    read is a genuine substring of the reference with ``READ_ERRORS``
    substitutions, so its true locus survives the cascade; the repeat
    family supplies hundreds of decoy placements whose distance exceeds
    the edit bound by construction (``READ_ERRORS`` +
    ~``DIVERGENCE * READ_LENGTH`` edits).
    """
    return build_repeat_rich_workload(
        repeat_copies=repeat_copies,
        reads=read_count,
        read_length=READ_LENGTH,
        unit_bp=UNIT_BP,
        flank_bp=FLANK_BP,
        divergence=DIVERGENCE,
        read_errors=READ_ERRORS,
    )


def mapping_key(mapped) -> List[Tuple[int, bool, int, str]]:
    return [(m.position, m.reverse, m.score, str(m.cigar)) for m in mapped]


def timed_align(aligner, reads) -> Tuple[float, list]:
    started = monotonic_s()
    mapped = aligner.align_batch(reads)
    elapsed = monotonic_s() - started
    return elapsed, mapped


def measure_cascade(
    reference: ReferenceGenome,
    reads: List[Tuple[str, str]],
    spec: Tuple[str, ...],
    baseline_key: list,
) -> dict:
    aligner = BwaMemAligner(
        reference, BwaMemConfig(k=KMER, band=EDIT_BOUND, filters=spec)
    )
    elapsed, mapped = timed_align(aligner, reads)
    cascade = aligner.cascade
    assert cascade is not None
    report = cascade.report()
    checked = report[0][1].checked
    rejected = sum(stage.rejected for __, stage in report)
    entry = {
        "spec": ",".join(spec),
        "elapsed_s": elapsed,
        "reads_per_s": len(reads) / elapsed,
        "candidates_checked": checked,
        "rejected_before_dp": rejected,
        "reject_rate": rejected / checked if checked else 0.0,
        "mappings_changed": sum(
            1 for a, b in zip(baseline_key, mapping_key(mapped)) if a != b
        ),
        "stages": [
            {
                "name": name,
                "checked": stage.checked,
                "rejected": stage.rejected,
                "reject_fraction": stage.reject_fraction,
                "false_accepts": stage.false_accepts,
                "cycles": stage.cycles,
            }
            for name, stage in report
        ],
    }
    print(f"filters={entry['spec']}: rejected "
          f"{rejected}/{checked} ({entry['reject_rate']:.1%}) before DP, "
          f"{entry['mappings_changed']} mappings changed, "
          f"{elapsed:.2f}s ({entry['reads_per_s']:.1f} reads/s)")
    return entry


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    shape = QUICK if args.quick else FULL
    reference, reads = build_workload(shape["repeat_copies"], shape["reads"])
    print(f"workload: {len(reference.sequence):,} bp "
          f"({shape['repeat_copies']} x {UNIT_BP} bp repeat copies at "
          f"{DIVERGENCE:.0%} divergence), {len(reads)} reads x "
          f"{READ_LENGTH} bp with {READ_ERRORS} errors, "
          f"edit_bound={EDIT_BOUND}, k={KMER}")

    baseline_aligner = BwaMemAligner(
        reference, BwaMemConfig(k=KMER, band=EDIT_BOUND)
    )
    baseline_s, baseline_mapped = timed_align(baseline_aligner, reads)
    baseline_key = mapping_key(baseline_mapped)
    baseline = {
        "elapsed_s": baseline_s,
        "reads_per_s": len(reads) / baseline_s,
    }
    print(f"baseline (no filters): {baseline_s:.2f}s "
          f"({baseline['reads_per_s']:.1f} reads/s)")

    cascades = [
        measure_cascade(reference, reads, spec, baseline_key)
        for spec in CASCADES
    ]

    full_entry = cascades[-1]
    assert full_entry["spec"] == ",".join(DEFAULT_CASCADE)
    acceptance = {
        "target_reject_rate": REJECT_TARGET,
        "full_cascade_reject_rate": full_entry["reject_rate"],
        "full_cascade_mappings_changed": full_entry["mappings_changed"],
        "passed": (
            full_entry["reject_rate"] > REJECT_TARGET
            and full_entry["mappings_changed"] == 0
        ),
    }
    print(f"acceptance: full cascade rejected "
          f"{acceptance['full_cascade_reject_rate']:.1%} before DP "
          f"(target > {REJECT_TARGET:.0%}), "
          f"{acceptance['full_cascade_mappings_changed']} mappings changed "
          f"-> {'PASS' if acceptance['passed'] else 'FAIL'}")

    result = bench_envelope(
        BENCHMARK,
        quick=args.quick,
        workload={
            "genome_bp": len(reference.sequence),
            "repeat_copies": shape["repeat_copies"],
            "unit_bp": UNIT_BP,
            "divergence": DIVERGENCE,
            "reads": len(reads),
            "read_length": READ_LENGTH,
            "read_errors": READ_ERRORS,
            "edit_bound": EDIT_BOUND,
            "kmer": KMER,
        },
        payload={
            "baseline": baseline,
            "cascades": cascades,
            "acceptance": acceptance,
        },
    )
    problems = validate_result(result)
    if problems:
        for problem in problems:
            print(f"schema violation: {problem}")
        return 1
    write_bench(args.out, result)
    print(f"wrote {args.out} (run {result['run_id']})")
    return 0 if acceptance["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(run())
