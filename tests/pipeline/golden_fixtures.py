"""Golden-fixture harness for the cross-backend refactor concordance suite.

The staged-pipeline refactor (pipeline/stages.py + registry.py) promised
bit-identical output for every backend.  "Bit-identical to what?" is
answered here: the mappings and counter snapshots of the *pre-refactor*
aligners on the standard simulated fixture set were serialized to
``tests/pipeline/goldens/<name>.json`` before the refactor landed, and
``test_backend_goldens.py`` replays every registered backend against them.
``myers-gate`` is ``bwamem`` behind the one-stage ``myers`` cascade; its
mappings are those of the former ``bitvector`` backend, byte for byte.

Regenerate (only when an intentional output change is reviewed):

    PYTHONPATH=src:tests python -m pipeline.golden_fixtures

The fixture set mirrors ``tests/conftest.py`` (same seeds, same sizes) but
is rebuilt locally so the goldens do not depend on pytest fixture scoping.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from repro.align.records import AlignmentStats, MappedRead
from repro.genome.reads import ReadSimulator
from repro.genome.reference import ReferenceGenome, make_reference
from repro.genome.variants import simulate_variants

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: The operating point every golden run uses (the standard test config).
EDIT_BOUND = 12
SEGMENT_COUNT = 4
READ_COUNT = 24


def fixture_reference() -> ReferenceGenome:
    """The 20 kbp planted-repeat reference from tests/conftest.py."""
    return make_reference(20_000, seed=11)


def fixture_batch(reference: ReferenceGenome) -> List[Tuple[str, str]]:
    """The 24 simulated reads (variants + errors) from tests/conftest.py."""
    rng = random.Random(23)
    variants = simulate_variants(reference.sequence, rng)
    simulator = ReadSimulator(reference, variants, read_length=101, seed=29)
    return [(s.name, s.sequence) for s in simulator.simulate(READ_COUNT)]


def mapping_rows(mapped: Sequence[MappedRead]) -> List[List[Any]]:
    """JSON-stable projection of every mapping field the SAM writer uses."""
    return [
        [
            m.read_name,
            m.position,
            m.reverse,
            m.score,
            "*" if m.cigar is None else str(m.cigar),
            m.mapping_quality,
            m.secondary_count,
        ]
        for m in mapped
    ]


def alignment_stats_dict(stats: AlignmentStats) -> Dict[str, int]:
    return {k: int(v) for k, v in dataclasses.asdict(stats).items()}


def lane_stats_dict(lane: Any) -> Dict[str, Any]:
    """Lane counters; re-run samples are order-insensitive across shards."""
    return {
        "extensions": lane.extensions,
        "cycles": lane.cycles,
        "stream_cycles": lane.stream_cycles,
        "rerun_events": lane.rerun_events,
        "rerun_cycles": lane.rerun_cycles,
        "rerun_cycle_samples": sorted(lane.rerun_cycle_samples),
    }


def seeding_stats_dict(seeding: Any) -> Dict[str, Any]:
    return {
        "reads_processed": seeding.reads_processed,
        "table_bytes_streamed": seeding.table_bytes_streamed,
        "finder": {
            k: int(v) for k, v in dataclasses.asdict(seeding.finder).items()
        },
        "intersections": {
            k: int(v)
            for k, v in dataclasses.asdict(seeding.intersections).items()
        },
    }


def load_golden(name: str) -> Dict[str, Any]:
    path = GOLDEN_DIR / f"{name}.json"
    with open(path) as handle:
        data: Dict[str, Any] = json.load(handle)
    return data


def _snapshot_genax() -> Dict[str, Any]:
    from repro.pipeline.genax import GenAxAligner, GenAxConfig

    reference = fixture_reference()
    batch = fixture_batch(reference)
    aligner = GenAxAligner(
        reference,
        GenAxConfig(edit_bound=EDIT_BOUND, segment_count=SEGMENT_COUNT),
    )
    mapped = aligner.align_batch(batch)
    return {
        "backend": "genax",
        "mappings": mapping_rows(mapped),
        "alignment_stats": alignment_stats_dict(aligner.stats),
        "lane_stats": lane_stats_dict(aligner.lane_stats),
        "seeding_stats": seeding_stats_dict(aligner.seeding_stats),
    }


def _snapshot_bwamem() -> Dict[str, Any]:
    from repro.pipeline.bwamem import BwaMemAligner, BwaMemConfig

    reference = fixture_reference()
    batch = fixture_batch(reference)
    aligner = BwaMemAligner(reference, BwaMemConfig(band=EDIT_BOUND))
    mapped = [aligner.align_read(name, sequence) for name, sequence in batch]
    return {
        "backend": "bwamem",
        "mappings": mapping_rows(mapped),
        "alignment_stats": alignment_stats_dict(aligner.stats),
    }


def _snapshot_bwamem_myers() -> Dict[str, Any]:
    from repro.pipeline.bwamem import BwaMemAligner, BwaMemConfig

    reference = fixture_reference()
    batch = fixture_batch(reference)
    aligner = BwaMemAligner(
        reference, BwaMemConfig(band=EDIT_BOUND, filters=("myers",))
    )
    mapped = aligner.align_batch(batch)
    return {
        "backend": "bwamem",
        "filters": ["myers"],
        "mappings": mapping_rows(mapped),
        "alignment_stats": alignment_stats_dict(aligner.stats),
    }


def _snapshot_longread() -> Dict[str, Any]:
    from repro.pipeline.longread import LongReadAligner, LongReadConfig

    reference = fixture_reference()
    batch = fixture_batch(reference)
    aligner = LongReadAligner(reference, LongReadConfig())
    mapped = aligner.align_batch(batch)
    return {
        "backend": "longread",
        "mappings": mapping_rows(mapped),
        "alignment_stats": alignment_stats_dict(aligner.stats),
    }


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, snapshot in (
        ("genax", _snapshot_genax()),
        ("bwamem", _snapshot_bwamem()),
        ("myers-gate", _snapshot_bwamem_myers()),
        ("longread", _snapshot_longread()),
    ):
        path = GOLDEN_DIR / f"{name}.json"
        with open(path, "w") as handle:
            json.dump(snapshot, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    regenerate()
