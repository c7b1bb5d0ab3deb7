"""Pipeline-level cascade contracts, every registered backend.

Three promises the filter-cascade refactor makes at the driver level:

* **losslessness** — running the full default cascade changes no mapping
  relative to the no-filter pipeline (the stages are lower bounds on the
  edit distance the extension engine enforces);
* **dispatch identity** — batch-dispatched cascade filtering and the
  per-candidate fallback produce bit-identical mappings *and* identical
  shared/per-stage counters (batching is a scheduling choice), on both
  sides of the ``myers`` stage's scalar/NumPy switch and for reads
  carrying ``N`` runs;
* **order invariance** — stage order changes cost, never verdicts, so
  any permutation of the cascade maps identically.
"""

import dataclasses
import itertools

import pytest

import repro.filters.myers as myers_stage
from repro.filters import DEFAULT_CASCADE
from repro.pipeline.bwamem import BwaMemConfig
from repro.pipeline.genax import GenAxConfig
from repro.pipeline.registry import backend_names, get_backend
from repro.pipeline.stages import PipelineDriver
from repro.telemetry import telemetry_session

from tests.pipeline.golden_fixtures import (
    EDIT_BOUND,
    SEGMENT_COUNT,
    mapping_rows,
)

#: Per-backend config factory taking the cascade names tuple (or None).
#: The longread backend is deliberately absent: its per-read adaptive
#: gate plays the cascade's role, and the fixed-bound stages are
#: meaningless without a backend-level ``edit_bound``/``band``.
CASCADE_CONFIGS = {
    "genax": lambda filters: GenAxConfig(
        edit_bound=EDIT_BOUND, segment_count=SEGMENT_COUNT, filters=filters
    ),
    "bwamem": lambda filters: BwaMemConfig(band=EDIT_BOUND, filters=filters),
}


def stats_dict(stats):
    return dataclasses.asdict(stats)


def stage_reports(aligner):
    """Per-stage counters as comparable dicts (None-safe)."""
    cascade = aligner.cascade
    if cascade is None:
        return None
    return [
        (name, dataclasses.asdict(stage)) for name, stage in cascade.report()
    ]


def build_aligner(backend, reference, filters):
    return get_backend(backend).build(
        reference, CASCADE_CONFIGS[backend](filters), None
    )


@pytest.fixture(scope="module")
def batch(simulated_reads):
    return [(s.name, s.sequence) for s in simulated_reads]


CASCADE_BACKENDS = tuple(CASCADE_CONFIGS)


def test_config_factories_cover_every_cascade_backend():
    assert set(CASCADE_CONFIGS) <= set(backend_names())
    # Only the adaptive long-read backend opts out of the cascade.
    assert set(backend_names()) - set(CASCADE_CONFIGS) == {"longread"}


@pytest.mark.parametrize("backend", CASCADE_BACKENDS)
class TestCascadeLossless:
    """Full default cascade vs no filter: bit-identical mappings."""

    def test_mappings_identical_and_work_was_done(
        self, backend, small_reference, batch
    ):
        plain = build_aligner(backend, small_reference, None)
        filtered = build_aligner(backend, small_reference, DEFAULT_CASCADE)
        assert plain.cascade is None
        assert filtered.cascade is not None
        assert mapping_rows(filtered.align_batch(batch)) == mapping_rows(
            plain.align_batch(batch)
        )
        report = dict(filtered.cascade.report())
        assert report["shouldered"].checked > 0
        # Conservation within the cascade: stage i+1 sees exactly the
        # candidates stage i admitted.  (The shared candidates_filtered /
        # candidates_survived counters also absorb the extension engine's
        # own over-budget rejections, so they are not cascade-exclusive.)
        names = list(DEFAULT_CASCADE)
        for earlier, later in zip(names, names[1:]):
            assert report[later].checked == report[earlier].survived
        cascade_rejects = sum(report[name].rejected for name in names)
        assert cascade_rejects <= filtered.stats.candidates_filtered


@pytest.fixture
def kernel_dispatches(monkeypatch):
    """Lane count of every NumPy dispatch the ``myers`` stage makes."""
    lanes = []
    kernel = myers_stage.batch_semiglobal_min

    def spy(patterns, texts):
        lanes.append(len(patterns))
        return kernel(patterns, texts)

    monkeypatch.setattr(myers_stage, "batch_semiglobal_min", spy)
    return lanes


def with_n_runs(reads):
    """Every third read gets an ``N`` run the 2-bit batch codec rejects."""
    return [
        (name, seq[:40] + "NNNNN" + seq[45:] if index % 3 == 0 else seq)
        for index, (name, seq) in enumerate(reads)
    ]


@pytest.mark.parametrize("backend", CASCADE_BACKENDS)
class TestCascadeDispatchIdentity:
    """Batched cascade dispatch vs per-candidate fallback, per backend."""

    def _drivers(self, backend, reference, filters=DEFAULT_CASCADE):
        batched_aligner = build_aligner(backend, reference, filters)
        fallback_aligner = build_aligner(backend, reference, filters)
        fallback = PipelineDriver(
            fallback_aligner._driver.stages, batch_dispatch=False
        )
        return batched_aligner, fallback_aligner, fallback

    def test_align_batch_identical(self, backend, small_reference, batch):
        batched_aligner, fallback_aligner, fallback = self._drivers(
            backend, small_reference
        )
        batched = batched_aligner._driver
        assert mapping_rows(batched.align_batch(batch)) == mapping_rows(
            fallback.align_batch(batch)
        )
        assert stats_dict(batched.stats) == stats_dict(fallback.stats)
        assert stage_reports(batched_aligner) == stage_reports(
            fallback_aligner
        )

    # 4 reads give 13 myers lanes (scalar calls); 72 reads give 200+
    # lanes in one dispatch (the NumPy kernel).
    @pytest.mark.parametrize("read_count", [4, 72])
    def test_myers_gate_identical_around_batch_switch(
        self, backend, small_reference, batch, read_count, kernel_dispatches
    ):
        reads = (batch * 3)[:read_count]
        batched_aligner, fallback_aligner, fallback = self._drivers(
            backend, small_reference, ("myers",)
        )
        batched = batched_aligner._driver
        assert mapping_rows(batched.align_batch(reads)) == mapping_rows(
            fallback.align_batch(reads)
        )
        checked = batched.stats.candidates_filtered + (
            batched.stats.candidates_survived
        )
        if read_count == 4:
            assert checked < myers_stage.BATCH_MIN_LANES
            assert kernel_dispatches == []
        else:
            assert kernel_dispatches == [checked]
        # prefilter_cycles and the cascade verdict counters are part of
        # the shared stats; the per-stage counters live in the report.
        assert stats_dict(batched.stats) == stats_dict(fallback.stats)
        assert stage_reports(batched_aligner) == stage_reports(
            fallback_aligner
        )

    def test_n_runs_in_a_kernel_sized_dispatch(
        self, backend, small_reference, batch, kernel_dispatches
    ):
        reads = with_n_runs(batch * 3)
        batched_aligner = build_aligner(backend, small_reference, ("myers",))
        per_read = build_aligner(backend, small_reference, ("myers",))
        assert mapping_rows(batched_aligner.align_batch(reads)) == (
            mapping_rows(per_read.align_reads(reads))
        )
        assert stats_dict(batched_aligner.stats) == stats_dict(per_read.stats)
        # ACGT lanes still filled one NumPy dispatch; the N lanes did not.
        checked = batched_aligner.stats.candidates_filtered + (
            batched_aligner.stats.candidates_survived
        )
        assert len(kernel_dispatches) == 1
        assert myers_stage.BATCH_MIN_LANES <= kernel_dispatches[0] < checked


class TestOrderInvariance:
    """Stage order changes cost, never the surviving mapping set."""

    def test_every_permutation_maps_identically(self, small_reference, batch):
        baseline = build_aligner("bwamem", small_reference, ("myers",))
        expected = mapping_rows(baseline.align_batch(batch))
        for order in itertools.permutations(DEFAULT_CASCADE):
            aligner = build_aligner("bwamem", small_reference, order)
            assert mapping_rows(aligner.align_batch(batch)) == expected, order


class TestCascadeTelemetry:
    def test_depth_histogram_observes_every_candidate(
        self, small_reference, batch
    ):
        with telemetry_session() as telemetry:
            aligner = build_aligner("bwamem", small_reference, DEFAULT_CASCADE)
            aligner.align_batch(batch)
        depths = telemetry.metrics.get("pipeline_cascade_depth")
        checked = dict(aligner.cascade.report())["shouldered"].checked
        assert depths.count == checked
        stage_names = {name for __, name, __ts, __pid in telemetry.tracer.events}
        assert "filter_batch" in stage_names
