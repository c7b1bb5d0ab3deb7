"""Golden-fixture bit-identity: every backend vs its pre-refactor output.

The staged-pipeline refactor's acceptance criterion: for every registered
backend, SAM-visible mappings and counter snapshots are bit-identical to
the pre-refactor aligners' on the standard simulated fixture set — serial
per-read, serial segment-major batch, and through ``ParallelAligner`` at
jobs=1 and jobs=4 (counters equal up to the audited shard-variant
allowlist).  Goldens were captured *before* the refactor; see
``tests/pipeline/golden_fixtures.py`` for the regeneration protocol.
Besides one golden per backend, ``myers-gate`` pins the batched
``myers`` gate (the fixture's 70 candidates fill one NumPy dispatch).
"""

import pytest

from repro.analysis.config import shard_variant_counters
from repro.parallel import ParallelAligner
from repro.pipeline.bwamem import BwaMemConfig
from repro.pipeline.genax import GenAxConfig
from repro.pipeline.longread import LongReadConfig
from repro.pipeline.registry import backend_names, get_backend

from tests.pipeline.golden_fixtures import (
    EDIT_BOUND,
    SEGMENT_COUNT,
    alignment_stats_dict,
    fixture_batch,
    fixture_reference,
    lane_stats_dict,
    load_golden,
    mapping_rows,
    seeding_stats_dict,
)

#: The golden operating point per backend (mirrors golden_fixtures.py).
CONFIGS = {
    "genax": lambda: GenAxConfig(edit_bound=EDIT_BOUND, segment_count=SEGMENT_COUNT),
    "bwamem": lambda: BwaMemConfig(band=EDIT_BOUND),
    "longread": lambda: LongReadConfig(),
}

#: Every golden file: name -> (backend, config factory).
GOLDENS = {
    **{name: (name, factory) for name, factory in CONFIGS.items()},
    "myers-gate": (
        "bwamem",
        lambda: BwaMemConfig(band=EDIT_BOUND, filters=("myers",)),
    ),
}


def test_every_registered_backend_has_a_golden():
    """A new backend must ship a golden + config before it can register."""
    for name in backend_names():
        assert name in CONFIGS, f"add a golden config for backend {name!r}"
    for name, (backend, __) in GOLDENS.items():
        assert load_golden(name)["backend"] == backend


@pytest.fixture(scope="module")
def reference():
    return fixture_reference()


@pytest.fixture(scope="module")
def batch(reference):
    return fixture_batch(reference)


def build_golden(name, reference):
    backend, factory = GOLDENS[name]
    return get_backend(backend).build(reference, factory(), None)


@pytest.mark.parametrize("golden", tuple(GOLDENS))
class TestSerialGoldens:
    def test_batch_mappings_match_golden(self, golden, reference, batch):
        mapped = build_golden(golden, reference).align_batch(batch)
        assert mapping_rows(mapped) == load_golden(golden)["mappings"]

    def test_per_read_mappings_match_golden(self, golden, reference, batch):
        mapped = build_golden(golden, reference).align_reads(batch)
        assert mapping_rows(mapped) == load_golden(golden)["mappings"]

    def test_alignment_stats_match_golden(self, golden, reference, batch):
        aligner = build_golden(golden, reference)
        aligner.align_batch(batch)
        assert (
            alignment_stats_dict(aligner.stats)
            == load_golden(golden)["alignment_stats"]
        )


class TestGenAxHardwareCounters:
    """The accelerator's lane/seeding counters, pinned bit-for-bit."""

    def test_lane_stats_match_golden(self, reference, batch):
        aligner = get_backend("genax").build(reference, CONFIGS["genax"](), None)
        aligner.align_batch(batch)
        assert (
            lane_stats_dict(aligner.lane_stats)
            == load_golden("genax")["lane_stats"]
        )

    def test_seeding_stats_match_golden(self, reference, batch):
        aligner = get_backend("genax").build(reference, CONFIGS["genax"](), None)
        aligner.align_batch(batch)
        assert (
            seeding_stats_dict(aligner.seeding_stats)
            == load_golden("genax")["seeding_stats"]
        )


@pytest.mark.parametrize("golden", tuple(GOLDENS))
@pytest.mark.parametrize("jobs", [1, 4])
class TestParallelGoldens:
    def test_sharded_mappings_match_golden(self, golden, jobs, reference, batch):
        backend, factory = GOLDENS[golden]
        parallel = ParallelAligner(
            reference, factory(), jobs=jobs, backend=backend
        )
        mapped = parallel.align_batch(batch)
        assert mapping_rows(mapped) == load_golden(golden)["mappings"]

    def test_sharded_counters_match_golden(self, golden, jobs, reference, batch):
        """Merged counters equal the golden snapshot, except the audited
        shard-variant counters, which must strictly grow under sharding."""
        backend, factory = GOLDENS[golden]
        parallel = ParallelAligner(
            reference, factory(), jobs=jobs, backend=backend
        )
        parallel.align_batch(batch)
        snapshot = load_golden(golden)
        assert alignment_stats_dict(parallel.stats) == snapshot["alignment_stats"]
        if backend != "genax":
            return
        merged_lanes = lane_stats_dict(parallel.lane_stats)
        assert merged_lanes == snapshot["lane_stats"]
        merged_seeding = seeding_stats_dict(parallel.seeding_stats)
        golden_seeding = snapshot["seeding_stats"]
        variant = shard_variant_counters()
        for key, golden_value in golden_seeding.items():
            if key in variant:
                if jobs == 1:
                    # One in-process chunk: no re-streaming, exact match.
                    assert merged_seeding[key] == golden_value
                else:
                    assert merged_seeding[key] > golden_value
            else:
                assert merged_seeding[key] == golden_value, key
