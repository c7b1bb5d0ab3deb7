"""Tests for the Myers pre-alignment gate and its pipeline integration.

The gate is the cascade's ``myers`` stage; its counters are the
cascade's per-stage :class:`~repro.filters.FilterStageStats`.
"""

import pytest

from repro.align.records import AlignmentStats
from repro.filters import FilterStageStats, MyersCandidateFilter, build_cascade
from repro.genome.reference import ReferenceGenome
from repro.pipeline.common import Candidate
from repro.pipeline.genax import GenAxAligner, GenAxConfig

CONFIG = dict(edit_bound=12, segment_count=4)


def mapping_key(mapped):
    return [
        (m.read_name, m.position, m.reverse, m.score, str(m.cigar),
         m.mapping_quality, m.secondary_count)
        for m in mapped
    ]


class MyersGate:
    """A one-stage ``myers`` cascade over a reference that *is* the window."""

    def __init__(self, max_edits, window, read_length):
        reference = ReferenceGenome(window, name="gate-test")
        slack = len(window) - read_length
        self.cascade = build_cascade(("myers",), reference, max_edits, slack)
        self.alignment = AlignmentStats()

    @property
    def stats(self):
        (__, stage), = self.cascade.report()
        return stage

    def survives(self, read):
        candidate = Candidate(0, reverse=False, seed_length=len(read))
        return self.cascade.admit(read, candidate, self.alignment)


def survives(max_edits, read, window):
    return MyersGate(max_edits, window, len(read)).survives(read)


class TestMyersPrefilter:
    def test_exact_window_survives(self):
        gate = MyersGate(0, "TTACGTACGTTT", 8)
        assert gate.survives("ACGTACGT")
        assert gate.stats.checked == 1
        assert gate.stats.rejected == 0
        assert gate.stats.survived == 1

    def test_hopeless_window_rejected(self):
        window = "T" * 20
        gate = MyersGate(1, window, 8)
        assert not gate.survives("ACAGACAG")
        assert gate.stats.rejected == 1
        assert gate.stats.cycles == len(window)
        assert gate.alignment.prefilter_cycles == len(window)

    def test_edit_budget_boundary(self):
        read = "AAAACCCC"
        window = "GGAAAACTCCGG"  # one substitution inside the best placement
        assert not survives(0, read, window)
        assert survives(1, read, window)

    def test_reject_fraction(self):
        gate = MyersGate(0, "ACGTTTTT", 4)
        assert gate.survives("ACGT")
        assert not gate.survives("GGGG")
        assert gate.stats.reject_fraction == pytest.approx(0.5)
        assert FilterStageStats().reject_fraction == 0.0

    def test_stats_merge(self):
        left = FilterStageStats(checked=4, rejected=1, cycles=100)
        right = FilterStageStats(checked=2, rejected=2, cycles=40)
        left.merge(right)
        assert left == FilterStageStats(checked=6, rejected=3, cycles=140)
        assert left.survived == 3

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            MyersCandidateFilter(ReferenceGenome("ACGT", name="t"), -1, 0)


class TestPipelineIntegration:
    @pytest.fixture(scope="class")
    def baseline(self, small_reference, simulated_reads):
        aligner = GenAxAligner(small_reference, GenAxConfig(**CONFIG))
        batch = [(s.name, s.sequence) for s in simulated_reads[:8]]
        return batch, aligner.align_batch(batch), aligner

    def test_default_threshold_counters_consistent(
        self, small_reference, baseline
    ):
        batch, __, plain = baseline
        aligner = GenAxAligner(
            small_reference, GenAxConfig(filters=("myers",), **CONFIG)
        )
        aligner.align_batch(batch)
        stats = aligner.stats
        (__, myers), = aligner.cascade.report()
        assert stats.candidates_filtered + stats.candidates_survived > 0
        assert stats.candidates_filtered == myers.rejected
        assert stats.candidates_survived == myers.survived
        # Only survivors reach the SillaX lanes.
        assert aligner.lane_stats.extensions == stats.candidates_survived
        assert plain.lane_stats.extensions == (
            stats.candidates_filtered + stats.candidates_survived
        )
        assert stats.prefilter_cycles == myers.cycles > 0

    def test_default_threshold_preserves_mappings_on_workload(
        self, small_reference, baseline
    ):
        """Simulated reads stay within the edit bound, so the gate agrees."""
        batch, plain_mapped, __ = baseline
        aligner = GenAxAligner(
            small_reference, GenAxConfig(filters=("myers",), **CONFIG)
        )
        assert mapping_key(aligner.align_batch(batch)) == mapping_key(
            plain_mapped
        )

    def test_prefilter_stats_none_when_disabled(self, small_reference):
        aligner = GenAxAligner(small_reference, GenAxConfig(**CONFIG))
        assert aligner.cascade is None
