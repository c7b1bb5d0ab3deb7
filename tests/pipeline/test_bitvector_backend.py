"""Tests for the driver's batch dispatch paths.

Two contracts:

* for every golden configuration — each registered backend, plus
  ``bwamem`` behind the batch-capable ``myers`` gate — the driver's
  batch dispatch order and the per-candidate fallback order produce
  bit-identical ``MappedRead``s and counters: batching is a scheduling
  choice, not a semantic one;
* an engine with an ``extend_batch`` hook receives one cross-read
  dispatch per ``align_batch``, traced as an ``extend_batch`` span with
  its lane count in the ``pipeline_batch_lanes`` histogram.
"""

import dataclasses

import pytest

from repro.align.records import AlignmentStats
from repro.pipeline.registry import get_backend
from repro.pipeline.stages import PipelineDriver
from repro.telemetry import telemetry_session

from tests.pipeline.golden_fixtures import mapping_rows
from tests.pipeline.test_backend_goldens import GOLDENS


def stats_dict(stats: AlignmentStats):
    return dataclasses.asdict(stats)


@pytest.fixture(scope="module")
def batch(simulated_reads):
    return [(s.name, s.sequence) for s in simulated_reads]


@pytest.mark.parametrize("backend", tuple(GOLDENS))
class TestBatchDispatchIdentity:
    """Batch dispatch vs per-candidate fallback, every golden config."""

    def _drivers(self, backend, reference):
        name, factory = GOLDENS[backend]
        spec = get_backend(name)
        batched = spec.build(reference, factory(), None)._driver
        fallback_stages = spec.build(reference, factory(), None)._driver.stages
        fallback = PipelineDriver(fallback_stages, batch_dispatch=False)
        return batched, fallback

    def test_align_batch_identical(self, backend, small_reference, batch):
        batched, fallback = self._drivers(backend, small_reference)
        assert mapping_rows(batched.align_batch(batch)) == mapping_rows(
            fallback.align_batch(batch)
        )
        assert stats_dict(batched.stats) == stats_dict(fallback.stats)

    def test_align_read_identical(self, backend, small_reference, batch):
        batched, fallback = self._drivers(backend, small_reference)
        for name, sequence in batch[:8]:
            assert batched.align_read(name, sequence) == fallback.align_read(
                name, sequence
            )
        assert stats_dict(batched.stats) == stats_dict(fallback.stats)


class LoopingBatchEngine:
    """Pure batching over an existing engine: ``extend_batch`` loops."""

    def __init__(self, inner):
        self.inner = inner
        self.lanes = 0

    def extend(self, oriented, candidate, stats):
        return self.inner.extend(oriented, candidate, stats)

    def extend_batch(self, jobs, stats):
        self.lanes += len(jobs)
        return [self.extend(oriented, candidate, stats)
                for oriented, candidate in jobs]


class TestBatchTelemetry:
    def test_batch_histogram_and_stage_span(self, small_reference, batch):
        aligner = get_backend("bwamem").build(
            small_reference, GOLDENS["bwamem"][1](), None
        )
        stages = aligner._driver.stages
        engine = LoopingBatchEngine(stages.extender)
        with telemetry_session() as telemetry:
            driver = PipelineDriver(
                dataclasses.replace(stages, extender=engine)
            )
            mapped = driver.align_batch(batch)
        assert mapping_rows(mapped) == mapping_rows(aligner.align_batch(batch))
        lanes = telemetry.metrics.get("pipeline_batch_lanes")
        assert lanes.count == 1
        assert lanes.total == engine.lanes == driver.stats.extensions
        stage_names = {name for __, name, __ts, __pid in telemetry.tracer.events}
        assert "extend_batch" in stage_names
