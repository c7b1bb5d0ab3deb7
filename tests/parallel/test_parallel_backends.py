"""Backend-agnostic sharding: ParallelAligner over non-genax backends.

The generalized engine's contract (the tentpole's parallel layer): any
backend registered in ``repro.pipeline.registry`` shards through the same
driver, with bit-identical mappings and exactly-merged counters — here
exercised with ``bwamem``, which pre-refactor could not shard at all.
"""

import pytest

from repro.parallel import ParallelAligner
from repro.pipeline.bwamem import BwaMemAligner, BwaMemConfig
from repro.pipeline.genax import GenAxConfig

CONFIG = dict(band=12)


def mapping_key(mapped):
    return [
        (m.read_name, m.position, m.reverse, m.score, str(m.cigar),
         m.mapping_quality, m.secondary_count)
        for m in mapped
    ]


@pytest.fixture(scope="module")
def batch(simulated_reads):
    return [(s.name, s.sequence) for s in simulated_reads[:8]]


@pytest.fixture(scope="module")
def serial_run(small_reference, batch):
    aligner = BwaMemAligner(small_reference, BwaMemConfig(**CONFIG))
    mapped = aligner.align_batch(batch)
    return aligner, mapped


class TestBwaMemSharding:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_mappings_bit_identical(self, small_reference, batch, serial_run, jobs):
        __, serial_mapped = serial_run
        parallel = ParallelAligner(
            small_reference, BwaMemConfig(**CONFIG), jobs=jobs
        )
        assert mapping_key(parallel.align_batch(batch)) == mapping_key(
            serial_mapped
        )

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_counters_merge_to_serial_totals(
        self, small_reference, batch, serial_run, jobs
    ):
        """Software backend has no segment tables, so *every* counter —
        reads, extensions, DP cells — matches the serial run exactly."""
        serial, __ = serial_run
        parallel = ParallelAligner(
            small_reference, BwaMemConfig(**CONFIG), jobs=jobs
        )
        parallel.align_batch(batch)
        assert parallel.stats == serial.stats
        assert parallel.stats.dp_cells > 0

    def test_hardware_counter_surface_is_empty(self, small_reference, batch):
        """lane_stats/seeding_stats exist (CounterSource contract) but stay
        zero for a backend that models no accelerator hardware."""
        parallel = ParallelAligner(
            small_reference, BwaMemConfig(**CONFIG), jobs=2
        )
        parallel.align_batch(batch)
        assert parallel.lane_stats.extensions == 0
        assert parallel.seeding_stats.reads_processed == 0
        assert parallel.stats.candidates_filtered == 0


class TestBackendResolution:
    def test_backend_inferred_from_config_type(self, small_reference):
        assert (
            ParallelAligner(small_reference, BwaMemConfig(**CONFIG)).backend
            == "bwamem"
        )
        assert ParallelAligner(small_reference, GenAxConfig()).backend == "genax"

    def test_backend_defaults_to_genax(self, small_reference):
        parallel = ParallelAligner(small_reference)
        assert parallel.backend == "genax"
        assert isinstance(parallel.config, GenAxConfig)

    def test_explicit_backend_name(self, small_reference):
        parallel = ParallelAligner(
            small_reference, BwaMemConfig(**CONFIG), backend="bwamem"
        )
        assert parallel.backend == "bwamem"

    def test_config_type_mismatch_rejected(self, small_reference):
        with pytest.raises(ValueError, match="expects a BwaMemConfig"):
            ParallelAligner(small_reference, GenAxConfig(), backend="bwamem")

    def test_unknown_backend_rejected(self, small_reference):
        with pytest.raises(ValueError, match="unknown backend"):
            ParallelAligner(small_reference, backend="minimap2")

    def test_jobs_default_from_bwamem_config(self, small_reference):
        parallel = ParallelAligner(
            small_reference, BwaMemConfig(jobs=3, **CONFIG)
        )
        assert parallel.jobs == 3

    def test_counters_bundle_carries_backend_name(self, small_reference, batch):
        parallel = ParallelAligner(
            small_reference, BwaMemConfig(**CONFIG), jobs=2
        )
        parallel.align_batch(batch)
        assert parallel.counters.backend == "bwamem"
        assert parallel.counters.alignment.reads_total == len(batch)
