"""GenAx: the full accelerator pipeline (§VI).

Architecture modelled (Fig. 11): 128 seeding lanes sharing segmented
index/position tables in on-chip SRAM, feeding 4 SillaX traceback lanes
that extend seed hits against windows fetched from the reference cache.
Segments are processed sequentially; all per-segment table traffic is
charged to the DDR4 streaming model.

Structurally the backend is a :class:`~repro.pipeline.stages.StageSet`
behind the shared :class:`~repro.pipeline.stages.PipelineDriver`:
:class:`SegmentedSeedProvider` (the seeding accelerator front-end),
optionally a pre-alignment :class:`~repro.filters.FilterCascade` (built
by name from :mod:`repro.filters.registry`), and
:class:`SillaXExtensionEngine` (the traceback lanes).  Functionally the
pipeline mirrors :mod:`repro.pipeline.bwamem` — the concordance
experiment (§VIII-A) compares the two extension engines behind the very
same driver loop — while the accounting (SillaX cycles, CAM lookups,
bytes streamed) feeds the throughput model behind Fig. 15.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.align.records import (
    AlignmentStats,
    MappedRead,
    ReadInput,
)
from repro.align.scoring import BWA_MEM_SCHEME, ScoringScheme
from repro.filters import FilterCascade, build_cascade
from repro.genome.reference import ReferenceGenome
from repro.pipeline.common import Candidate, Extension
from repro.pipeline.stages import PipelineDriver, StageSet
from repro.seeding.accelerator import (
    GlobalSeed,
    SeedingAccelerator,
    SeedingStats,
)
from repro.seeding.cache import IndexCache
from repro.seeding.index import IndexTables
from repro.seeding.smem import SmemConfig
from repro.sillax.lane import LaneStats, SillaXLane


@dataclass
class GenAxConfig:
    """GenAx operating point; defaults follow §VI-§VIII."""

    k: int = 12
    edit_bound: int = 40  # conservative K from §VIII-A
    min_score: int = 30
    max_candidates: Optional[int] = 64
    segment_count: int = 8  # 512 in the paper; scaled to the genome size
    seeding_lanes: int = 128
    sillax_lanes: int = 4
    probe: bool = True
    exact_match_fast_path: bool = True
    scheme: ScoringScheme = field(default_factory=lambda: BWA_MEM_SCHEME)
    # Pre-alignment filter cascade: an ordered tuple of registered filter
    # names (repro.filters.registry) vetoing candidate windows with no
    # semi-global placement of the read within ``edit_bound`` edits (the
    # SillaX budget) before the cycle-accurate lane runs.  None/()
    # disables filtering (the pinned default).
    filters: Optional[Tuple[str, ...]] = None
    # Shard-parallel driver knobs (consumed by repro.parallel.ParallelAligner).
    jobs: int = 1
    # Persist built index tables keyed by (sequence, k, segments) so
    # repeated runs skip the O(genome) rebuild (repro.seeding.cache).
    cache_dir: Optional[str] = None


class SegmentedSeedProvider:
    """:class:`SeedProvider` over the segmented seeding accelerator.

    Per-read mode streams the segment tables once per oriented sequence;
    batch mode hands the whole oriented batch to
    :meth:`SeedingAccelerator.seed_reads`, which streams each segment's
    tables once per batch (§VI) — that accounting difference is exactly
    what the two driver execution orders expose.
    """

    def __init__(self, accelerator: SeedingAccelerator) -> None:
        self.accelerator = accelerator

    @property
    def stats(self) -> SeedingStats:
        return self.accelerator.stats

    def seed(self, oriented: str) -> List[GlobalSeed]:
        return self.accelerator.seed_read(oriented)

    def seed_batch(self, oriented: Sequence[str]) -> List[List[GlobalSeed]]:
        return self.accelerator.seed_reads(oriented)


class SillaXExtensionEngine:
    """:class:`ExtensionEngine` over a round-robin pool of SillaX lanes."""

    def __init__(
        self,
        reference: ReferenceGenome,
        edit_bound: int,
        scheme: ScoringScheme,
        lanes: int,
    ) -> None:
        self.reference = reference
        self._lanes = [SillaXLane(edit_bound, scheme) for _ in range(lanes)]
        self._next_lane = 0

    @property
    def lane_stats(self) -> LaneStats:
        """Merged SillaX lane statistics."""
        merged = LaneStats()
        for lane in self._lanes:
            merged.merge(lane.stats)
        return merged

    def extend(
        self, oriented: str, candidate: Candidate, stats: AlignmentStats
    ) -> Optional[Extension]:
        lane = self._lanes[self._next_lane]
        self._next_lane = (self._next_lane + 1) % len(self._lanes)
        outcome = lane.extend(self.reference, oriented, candidate.window_start)
        stats.extensions += 1
        stats.cycles += outcome.result.total_cycles
        result = outcome.result
        query_end = result.alignment.query_end if result.alignment else 0
        return Extension(
            candidate=candidate,
            score=outcome.score,
            position=outcome.position,
            cigar=result.cigar,
            query_end=query_end,
        )


class GenAxAligner:
    """The accelerator: a thin facade over the staged pipeline driver.

    Composes segmented SMEM seeding + (optional) pre-alignment filter
    cascade + SillaX seed extension into a :class:`StageSet`; the public
    mapping API, ``stats`` surface and output are unchanged (enforced
    bit-for-bit by the golden-fixture tests).
    """

    def __init__(
        self,
        reference: ReferenceGenome,
        config: Optional[GenAxConfig] = None,
        tables: Optional[List[IndexTables]] = None,
    ):
        self.reference = reference
        self.config = config or GenAxConfig()
        smem_config = SmemConfig(
            k=self.config.k,
            probe=self.config.probe,
            exact_match_fast_path=self.config.exact_match_fast_path,
        )
        cache = (
            IndexCache(self.config.cache_dir)
            if self.config.cache_dir is not None
            else None
        )
        self.seeder = SeedingAccelerator(
            reference,
            smem_config,
            segment_count=self.config.segment_count,
            lanes=self.config.seeding_lanes,
            cache=cache,
            tables=tables,
        )
        self._engine = SillaXExtensionEngine(
            reference,
            self.config.edit_bound,
            self.config.scheme,
            self.config.sillax_lanes,
        )
        self._cascade = build_cascade(
            self.config.filters or (),
            reference,
            self.config.edit_bound,
            self.config.edit_bound,
        )
        self._driver = PipelineDriver(
            StageSet(
                seeder=SegmentedSeedProvider(self.seeder),
                extender=self._engine,
                match_score=self.config.scheme.match,
                min_score=self.config.min_score,
                max_candidates=self.config.max_candidates,
                cascade=self._cascade,
            )
        )
        # The driver owns the counters; the facade aliases them so the
        # pre-refactor ``aligner.stats`` surface is unchanged.
        self.stats: AlignmentStats = self._driver.stats

    # ----------------------------------------------------------------- API

    @property
    def lane_stats(self) -> LaneStats:
        """Merged SillaX lane statistics."""
        return self._engine.lane_stats

    @property
    def seeding_stats(self) -> SeedingStats:
        return self.seeder.stats

    @property
    def cascade(self) -> Optional[FilterCascade]:
        """The installed pre-alignment cascade (None when disabled)."""
        return self._cascade

    def align_read(self, name: str, sequence: str) -> MappedRead:
        """Map one read through the accelerator."""
        return self._driver.align_read(name, sequence)

    def align_reads(self, reads: Iterable[ReadInput]) -> List[MappedRead]:
        """Map a batch of (name, sequence) pairs or Read objects."""
        return self._driver.align_reads(reads)

    def align_batch(self, reads: Iterable[ReadInput]) -> List[MappedRead]:
        """Segment-major batch mapping — the order the hardware runs (§VI).

        All reads (both orientations) are seeded against each segment in
        turn, so each segment's tables are streamed **once per batch**
        instead of once per read; the buffered hits then flow to the SillaX
        lanes.  Functionally identical to :meth:`align_reads` (the tests
        enforce it); the accounting difference is the point.
        """
        return self._driver.align_batch(reads)
