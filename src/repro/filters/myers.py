"""Myers bit-vector cascade stage: the one semi-global verification gate.

Fetches the same reference window the extension engine would (read
length + ``window_slack``), and admits a candidate iff the whole read
matches *some* substring of that window within ``max_edits`` edits — the
semi-global Myers minimum of :mod:`repro.align.myers`.  This is the most
precise (and most expensive) stage the default cascade runs, which is
why the registry orders it last: the shouldered and SneakySnake stages
are strictly cheaper over-approximations of the same distance bound, so
anything they veto this stage would have vetoed too.

Two kernels answer the same question.  :meth:`MyersCandidateFilter.admit`
and small dispatches run the pure-Python
:func:`~repro.align.myers.myers_semiglobal_min`, one lane at a time;
dispatches of at least :data:`BATCH_MIN_LANES` lanes go to the NumPy
:func:`~repro.align.bitvector.batch_semiglobal_min`, which scores every
lane per column step.  The two are element-wise identical (the
``bitvector-vs-myers`` difftest pair pins it), so the switch changes
speed, never a verdict.  A lane whose read carries a non-ACGT base (an
``N`` run, IUPAC code or lowercase letter) always takes the scalar call:
the 2-bit batch codec cannot encode it, while the scalar recurrence
simply never matches it.  Windows are ACGT by construction, because
:class:`~repro.genome.reference.ReferenceGenome` validates its sequence.

Counter discipline (see :mod:`repro.filters.base`): the stage charges its
streamed window to ``stats.prefilter_cycles``; the cascade owns the
once-per-candidate ``candidates_filtered`` / ``candidates_survived``
charges and the per-stage :class:`~repro.filters.base.FilterStageStats`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.align.bitvector import batch_semiglobal_min
from repro.align.myers import myers_semiglobal_min
from repro.align.records import AlignmentStats
from repro.filters.base import FilterJob
from repro.genome.reference import ReferenceGenome
from repro.genome.sequence import is_dna

if TYPE_CHECKING:
    from repro.pipeline.common import Candidate

#: Fewest ACGT lanes in one dispatch that go to the NumPy kernel.  The
#: kernel pays a fixed per-call cost (packing, bit-plane setup, one NumPy
#: step per window column) that only enough lanes amortise.  Measured on
#: a 2-vCPU host, 101 bp reads vs 125 bp windows, best of 7, scalar vs
#: batched: 0.49 vs 5.79 ms at 4 lanes, 5.4 vs 9.9 ms at 32, 11.3 vs
#: 10.8 ms at 64, 16.8 vs 9.6 ms at 128, 91.7 vs 21.5 ms at 700.  With
#: 181 bp windows, and with 150 bp reads, the crossover also fell at 64.
BATCH_MIN_LANES = 64


class MyersCandidateFilter:
    """Bit-vector semi-global scan: exact within-budget membership test."""

    name = "myers"

    def __init__(
        self, reference: ReferenceGenome, max_edits: int, window_slack: int
    ) -> None:
        if max_edits < 0:
            raise ValueError(f"max_edits must be non-negative, got {max_edits}")
        # Deferred import: repro.pipeline imports this package at module
        # scope, so importing pipeline.common at import time would cycle.
        from repro.pipeline.common import fetch_window

        self._fetch_window = fetch_window
        self.reference = reference
        self.max_edits = max_edits
        self.window_slack = window_slack

    def _window(
        self, oriented: str, candidate: "Candidate", stats: AlignmentStats
    ) -> str:
        window = self._fetch_window(
            self.reference, candidate, len(oriented), self.window_slack
        )
        stats.prefilter_cycles += len(window)
        return window

    def admit(
        self, oriented: str, candidate: "Candidate", stats: AlignmentStats
    ) -> bool:
        window = self._window(oriented, candidate, stats)
        return myers_semiglobal_min(oriented, window) <= self.max_edits

    def admit_batch(
        self, jobs: Sequence[FilterJob], stats: AlignmentStats
    ) -> List[bool]:
        reads = [oriented for oriented, __ in jobs]
        windows = [
            self._window(oriented, candidate, stats)
            for oriented, candidate in jobs
        ]
        batched: Dict[int, int] = {}
        if len(jobs) >= BATCH_MIN_LANES:
            # Candidates of one read share its oriented string, so the
            # ACGT check runs once per distinct read, not once per lane.
            acgt = {read: is_dna(read) for read in dict.fromkeys(reads)}
            lanes = [i for i, read in enumerate(reads) if acgt[read]]
            if len(lanes) >= BATCH_MIN_LANES:
                scores = batch_semiglobal_min(
                    [reads[i] for i in lanes], [windows[i] for i in lanes]
                )
                batched = dict(zip(lanes, scores.tolist()))
        return [
            (
                batched[i]
                if i in batched
                else myers_semiglobal_min(read, window)
            )
            <= self.max_edits
            for i, (read, window) in enumerate(zip(reads, windows))
        ]
