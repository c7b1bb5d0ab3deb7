"""Admissibility tests for the concrete cascade stages.

The cascade is lossless only if no stage ever vetoes a candidate the
extension engine would have accepted.  For each stage the guarantee has
a precise shape:

* ``shouldered``: its base-count bound never exceeds the true semi-global
  edit distance (a universal lower bound);
* ``sneakysnake``: whenever the true distance fits the budget, the stage
  admits (the one-sided no-false-reject guarantee — its bound may
  overshoot on candidates that are already over budget, which is fine);
* ``myers``: exact — admits *iff* the true distance fits the budget.

Every property is checked against a reference full-DP semi-global
distance over seeded-random workloads (explicit ``random.Random`` per
repo policy, enforced by genaxlint GX101).
"""

import random

import pytest

from repro.align.records import AlignmentStats
from repro.filters import (
    MyersCandidateFilter,
    ShoulderedFilter,
    SneakySnakeFilter,
)
from repro.genome.reference import ReferenceGenome
from repro.genome.sequence import ALPHABET
from repro.pipeline.common import Candidate, fetch_window


def semiglobal_distance(query, text):
    """Min edits to align all of *query* against any substring of *text*."""
    previous = [0] * (len(text) + 1)
    for row, base in enumerate(query, start=1):
        current = [row] + [0] * len(text)
        for col, other in enumerate(text, start=1):
            current[col] = min(
                previous[col] + 1,
                current[col - 1] + 1,
                previous[col - 1] + (base != other),
            )
        previous = current
    return min(previous)


def random_cases(seed, count, text_len=40, query_len=24):
    rng = random.Random(seed)
    for _ in range(count):
        text = "".join(rng.choice(ALPHABET) for _ in range(
            rng.randrange(1, text_len)
        ))
        if rng.random() < 0.5:
            # Mutated substring: keeps plenty of within-budget cases.
            start = rng.randrange(len(text))
            query = list(text[start:start + query_len])
            for _ in range(rng.randrange(4)):
                if not query:
                    break
                pos = rng.randrange(len(query))
                query[pos] = rng.choice(ALPHABET)
            query = "".join(query)
        else:
            query = "".join(rng.choice(ALPHABET) for _ in range(
                rng.randrange(1, query_len)
            ))
        if query:
            yield query, text


def build_stage(stage_class, text, query, max_edits):
    """Stage + candidate whose fetched window is exactly *text*."""
    reference = ReferenceGenome(text, name="bounds-test")
    slack = max(0, len(text) - len(query))
    stage = stage_class(reference, max_edits, slack)
    candidate = Candidate(window_start=0, reverse=False, seed_length=len(query))
    assert fetch_window(reference, candidate, len(query), slack) == text
    return stage, candidate


class TestShouldered:
    def test_bound_never_exceeds_true_distance(self):
        stage = ShoulderedFilter(ReferenceGenome("ACGT", name="t"), 2, 0)
        for query, text in random_cases(seed=101, count=60):
            bound = stage.distance_bound(query, text)
            assert bound <= semiglobal_distance(query, text), (query, text)

    def test_counts_excess_bases(self):
        stage = ShoulderedFilter(ReferenceGenome("ACGT", name="t"), 2, 0)
        assert stage.distance_bound("AAAA", "AATT") == 2
        assert stage.distance_bound("ACGT", "ACGT") == 0
        assert stage.distance_bound("GGGG", "AAAA") == 4

    @pytest.mark.parametrize("max_edits", [0, 1, 3])
    def test_never_falsely_rejects(self, max_edits):
        for query, text in random_cases(seed=102, count=40):
            stage, candidate = build_stage(
                ShoulderedFilter, text, query, max_edits
            )
            if semiglobal_distance(query, text) <= max_edits:
                assert stage.admit(query, candidate, AlignmentStats())

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            ShoulderedFilter(ReferenceGenome("ACGT", name="t"), -1, 0)


class TestSneakySnake:
    @pytest.mark.parametrize("max_edits", [0, 1, 3])
    def test_never_falsely_rejects(self, max_edits):
        for query, text in random_cases(seed=103, count=40):
            stage, candidate = build_stage(
                SneakySnakeFilter, text, query, max_edits
            )
            if semiglobal_distance(query, text) <= max_edits:
                assert stage.admit(query, candidate, AlignmentStats())

    def test_batch_verdicts_match_scalar(self):
        # Heterogeneous lengths in one batch: lane independence through
        # the sentinel padding.
        cases = list(random_cases(seed=104, count=16))
        texts = [text for _, text in cases]
        reference = ReferenceGenome("".join(texts), name="batch-test")
        stage = SneakySnakeFilter(reference, 2, 5)
        jobs, offset = [], 0
        for query, text in cases:
            jobs.append(
                (query, Candidate(offset, reverse=False, seed_length=len(query)))
            )
            offset += len(text)
        batched = stage.admit_batch(jobs, AlignmentStats())
        scalar = [
            stage.admit(query, candidate, AlignmentStats())
            for query, candidate in jobs
        ]
        assert batched == scalar

    def test_distance_bounds_edge_shapes(self):
        stage = SneakySnakeFilter(ReferenceGenome("ACGT", name="t"), 1, 0)
        assert stage.distance_bounds([], []).tolist() == []
        assert stage.distance_bounds(["ACGT"], ["ACGT"]).tolist() == [0]
        with pytest.raises(ValueError):
            stage.distance_bounds(["A", "C"], ["A"])

    def test_detects_hopeless_windows(self):
        stage = SneakySnakeFilter(ReferenceGenome("ACGT", name="t"), 1, 0)
        bounds = stage.distance_bounds(["AAAAAAAA"], ["TTTTTTTT"])
        assert bounds[0] > 1

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            SneakySnakeFilter(ReferenceGenome("ACGT", name="t"), -1, 0)


class TestMyers:
    @pytest.mark.parametrize("max_edits", [0, 1, 3])
    def test_exactly_the_budget_membership_test(self, max_edits):
        for query, text in random_cases(seed=105, count=40):
            stage, candidate = build_stage(
                MyersCandidateFilter, text, query, max_edits
            )
            admitted = stage.admit(query, candidate, AlignmentStats())
            within = semiglobal_distance(query, text) <= max_edits
            assert admitted == within, (query, text, max_edits)

    @pytest.mark.parametrize("lanes", [8, 96])
    def test_batch_verdicts_match_scalar(self, lanes):
        # Below and above BATCH_MIN_LANES, with ragged lengths and some
        # reads the 2-bit batch codec cannot encode.
        cases = list(random_cases(seed=106, count=lanes))
        texts = [text for _, text in cases]
        reference = ReferenceGenome("".join(texts), name="batch-test")
        stage = MyersCandidateFilter(reference, 2, 5)
        jobs, offset = [], 0
        for index, (query, text) in enumerate(cases):
            if index % 5 == 0:
                query = "N" + query[1:]
            jobs.append(
                (query, Candidate(offset, reverse=False, seed_length=len(query)))
            )
            offset += len(text)
        batch_stats, scalar_stats = AlignmentStats(), AlignmentStats()
        batched = stage.admit_batch(jobs, batch_stats)
        scalar = [
            stage.admit(query, candidate, scalar_stats)
            for query, candidate in jobs
        ]
        assert batched == scalar
        assert True in batched and False in batched
        assert batch_stats == scalar_stats


class TestCycleCharging:
    @pytest.mark.parametrize(
        "stage_class", [ShoulderedFilter, SneakySnakeFilter, MyersCandidateFilter]
    )
    def test_each_admit_charges_the_streamed_window(self, stage_class):
        text = "ACGTACGTACGTACGT"
        query = "ACGTACGT"
        stage, candidate = build_stage(stage_class, text, query, 2)
        stats = AlignmentStats()
        stage.admit(query, candidate, stats)
        assert stats.prefilter_cycles == len(text)
