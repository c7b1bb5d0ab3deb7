"""Seeded workload generators: reference FASTA + read FASTQ on disk.

Every workload is a pure function of ``--seed``.  The aligning process
never sees the generator, only the two files it writes, and each read
name carries its ground truth as ``name|position|strand`` (0-based
reference position of the read's first base, the same convention as
``repro-genax simulate``).

The seed picks the reference, read positions, strands and error bases.
Read counts and lengths, and the things that set the work of a pass
(error-free reads, extra seed loci, rescued mates), are held fixed, so
the figures compare across seeds; ``README.md`` gives the reasons.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.genome.fasta import write_fasta, write_fastq
from repro.genome.long_reads import NanoporeSimulator
from repro.genome.pairs import PairedEndSimulator
from repro.genome.reads import ErrorProfile, Read, ReadSimulator, SimulatedRead
from repro.genome.reference import RepeatSpec, make_reference
from repro.genome.sequence import reverse_complement
from repro.genome.variants import simulate_variants

#: The ``repro-genax align`` defaults every workload runs at.
CLI_KMER = 12
CLI_EDIT_BOUND = 12
CLI_SEGMENTS = 4
CLI_MIN_SCORE = 30
CLI_INSERT_MEAN = 350
CLI_INSERT_SLACK = 140


@dataclass(frozen=True)
class InputSize:
    """What one pass aligns: reads, read bases and reference length."""

    reads: int
    bases: int
    reference_bp: int


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: generator plus the alignment it drives."""

    name: str
    backend: str  # registered pipeline backend name
    filters: Optional[Tuple[str, ...]]  # the ``--filters`` cascade, if any
    paired: bool  # interleaved FR mates through resolve_pair
    min_right_locus: float  # correctness floor on right_locus_rate
    locus_slack: int  # |SAM POS - truth| allowed for a right-locus call
    chunk_reads: int  # reads per timed align_batch call (whole pairs if paired)
    generate: Callable[[int], Tuple[Tuple[str, str], List[Read]]]

    def write_inputs(self, seed: int, directory: Path) -> Tuple[Path, Path, InputSize]:
        """Generate the workload for *seed* into ``directory``."""
        (ref_name, sequence), reads = self.generate(seed)
        reference_path = directory / "reference.fa"
        reads_path = directory / "reads.fq"
        write_fasta(reference_path, [(ref_name, sequence)])
        write_fastq(reads_path, reads)
        size = InputSize(
            reads=len(reads),
            bases=sum(len(read.sequence) for read in reads),
            reference_bp=len(sequence),
        )
        return reference_path, reads_path, size


def _truth_named(simulated: List[SimulatedRead]) -> List[Read]:
    return [
        Read(
            name=f"{s.name}|{s.true_position}|{'-' if s.reverse else '+'}",
            sequence=s.sequence,
            quality=s.read.quality,
        )
        for s in simulated
    ]


#: Illumina-like 3' ramp of the short-read workloads (per-base error
#: probability from the first to the last base).
SHORT_RAMP = (0.01, 0.03)


def _error_count_schedule(reads: int, mean: float) -> List[int]:
    """Per-read error counts at the Poisson quantiles of *mean*.

    Read ``i`` gets the count at cumulative probability ``(i + 0.5) /
    reads``.  Every seed therefore has the same number of error-free
    reads (which take the exact-match path and skip extension) and the
    same count distribution, while the seed still picks the positions,
    strands and substituted bases.
    """
    counts = []
    for index in range(reads):
        target = (index + 0.5) / reads
        count, term = 0, math.exp(-mean)
        cumulative = term
        while cumulative < target:
            count += 1
            term *= mean / count
            cumulative += term
        counts.append(count)
    return counts


def _substitute(read: Read, count: int, rng: random.Random) -> Read:
    """*count* substitutions, positions weighted by the ``SHORT_RAMP``."""
    length = len(read.sequence)
    low, high = SHORT_RAMP
    weights = [low + (high - low) * i / (length - 1) for i in range(length)]
    positions: set = set()
    while len(positions) < count:
        positions.add(rng.choices(range(length), weights)[0])
    bases = list(read.sequence)
    for position in positions:
        bases[position] = rng.choice("ACGT".replace(bases[position], ""))
    return Read(read.name, "".join(bases), read.quality)


def _kmer_loci(sequence: str, k: int) -> Dict[str, List[int]]:
    loci: Dict[str, List[int]] = defaultdict(list)
    for start in range(len(sequence) - k + 1):
        loci[sequence[start : start + k]].append(start)
    return loci


def _truth(read: Read) -> Tuple[int, bool]:
    """``(position, reverse)`` from a ``name|position|strand`` read name."""
    _, position, strand = read.name.rsplit("|", 2)
    return int(position), strand == "-"


def _seeds_only_at_truth(
    read: Read,
    loci: Dict[str, List[int]],
    k: int,
    sequence: Optional[str] = None,
) -> bool:
    """True when no k-mer of *sequence* (default: the read's), on either
    strand, occurs in the reference away from the read's true locus."""
    truth, _ = _truth(read)
    sequence = read.sequence if sequence is None else sequence
    for oriented in (sequence, reverse_complement(sequence)):
        for start in range(len(oriented) - k + 1):
            for hit in loci.get(oriented[start : start + k], ()):
                if abs(hit - truth) > len(oriented):
                    return False
    return True


SHORT_GENAX_READS = 20


def _short_genax(seed: int) -> Tuple[Tuple[str, str], List[Read]]:
    # The illumina-small shape: planted repeats and donor variants.
    reference = make_reference(60_000, seed=seed)
    variants = simulate_variants(reference.sequence, random.Random(seed + 1))
    simulator = ReadSimulator(
        reference,
        variants,
        read_length=101,
        seed=seed + 2,
        error_profile=ErrorProfile(rate_start=0.0, rate_end=0.0, indel_fraction=0.0),
    )
    low, high = SHORT_RAMP
    counts = _error_count_schedule(SHORT_GENAX_READS, 101 * (low + high) / 2)
    rng = random.Random(seed + 3)
    rng.shuffle(counts)
    # Reads whose k-mers also occur elsewhere (repeat copies, chance
    # 12-mer matches) get one SillaX extension per extra locus, and
    # their share swings the work per pass by about 15% between seeds.
    # Keeping only reads seeded at their true locus makes the work a
    # function of the error-count schedule alone.
    loci = _kmer_loci(reference.sequence, CLI_KMER)
    reads: List[Read] = []
    for clean in _truth_named(simulator.simulate(20 * SHORT_GENAX_READS)):
        read = _substitute(clean, counts[len(reads)], rng)
        if _seeds_only_at_truth(read, loci, CLI_KMER):
            reads.append(read)
            if len(reads) == SHORT_GENAX_READS:
                return (reference.name, reference.sequence), reads
    raise RuntimeError(f"seed {seed}: too few uniquely seeded reads")


#: Every ``N_READ_PERIOD``-th paired-end read carries a short run of
#: ``N`` calls, as real FASTQ does.
N_READ_PERIOD = 33

#: One pair in ``BLIND_PAIR_PERIOD`` has a second mate that seeding
#: cannot place (see :func:`_seed_blind`), so mate rescue runs a fixed
#: number of times per seed instead of a seed-dependent handful.
BLIND_PAIR_PERIOD = 25

#: Spacing of the substitutions in a seed-blind mate: every window of
#: ``CLI_KMER`` bases holds at least one, so no exact k-mer survives.
BLIND_SPACING = 10

#: k-mer length that finds repeat copies but not chance matches.
REPEAT_KMER = 20


def _true_bases(read: Read, reference: str) -> str:
    """The error-free bases the read was sampled from, in read orientation."""
    start, reverse = _truth(read)
    bases = reference[start : start + len(read.sequence)]
    return reverse_complement(bases) if reverse else bases


def _seed_blind(read: Read, reference: str, rng: random.Random) -> Read:
    """The read's true bases with a substitution every ``BLIND_SPACING``.

    Single-end seeding finds no exact k-mer at the true locus and leaves
    the mate unmapped; ten substitutions in 101 bp still score
    51 >= ``CLI_MIN_SCORE``, so the insert-window rescue places it.
    """
    bases = list(_true_bases(read, reference))
    for index in range(rng.randrange(BLIND_SPACING), len(bases), BLIND_SPACING):
        bases[index] = rng.choice("ACGT".replace(bases[index], ""))
    return Read(read.name, "".join(bases), read.quality)


def _with_n_calls(read: Read, rng: random.Random) -> Read:
    bases = list(read.sequence)
    quality = list(read.quality)
    start = rng.randrange(0, len(bases) - 3)
    for offset in range(rng.randint(1, 3)):
        bases[start + offset] = "N"
        quality[start + offset] = "#"
    return Read(read.name, "".join(bases), "".join(quality))


PAIRS = 50


def _paired_repeat_bwamem(seed: int) -> Tuple[Tuple[str, str], List[Read]]:
    # About half the genome is diverged copies of dispersed repeat
    # families, so seeds hit decoys the myers stage must reject.
    repeats = RepeatSpec(
        dispersed_repeat_count=25,
        dispersed_repeat_length=400,
        dispersed_copies=5,
        tandem_repeat_count=4,
        mutation_rate=0.05,
    )
    reference = make_reference(100_000, seed=seed, repeats=repeats)
    simulator = PairedEndSimulator(
        reference,
        read_length=101,
        insert_mean=CLI_INSERT_MEAN,
        error_profile=ErrorProfile(rate_start=0.02, rate_end=0.08),
        seed=seed + 1,
    )
    rng = random.Random(seed + 2)
    reads = _truth_named(simulator.simulate(PAIRS))
    # Blind only pairs whose two ends share no 20-mer with a repeat copy:
    # there the blind mate can be placed at another copy (no rescue) or
    # the anchor misplaced (rescue searches the wrong window).  Chance
    # 12-mer hits elsewhere are harmless; their extensions score low.
    loci = _kmer_loci(reference.sequence, REPEAT_KMER)
    eligible = [
        pair
        for pair in range(PAIRS)
        if all(
            _seeds_only_at_truth(
                read, loci, REPEAT_KMER, _true_bases(read, reference.sequence)
            )
            for read in reads[2 * pair : 2 * pair + 2]
        )
    ]
    blind_pairs = PAIRS // BLIND_PAIR_PERIOD
    if len(eligible) < blind_pairs:
        raise RuntimeError(f"seed {seed}: too few pairs in unique sequence")
    for pair in eligible[:: len(eligible) // blind_pairs][:blind_pairs]:
        reads[2 * pair + 1] = _seed_blind(reads[2 * pair + 1], reference.sequence, rng)
    for index in range(N_READ_PERIOD // 2, len(reads), N_READ_PERIOD):
        reads[index] = _with_n_calls(reads[index], rng)
    return (reference.name, reference.sequence), reads


NANOPORE_READS = 6
NANOPORE_LENGTH = 1_500


def _long_nanopore(seed: int) -> Tuple[Tuple[str, str], List[Read]]:
    reference = make_reference(60_000, seed=seed)
    # Fixed read length: the band and DP memory grow with it, so a
    # seed-drawn length would move reads_per_s and peak_rss_mb.
    simulator = NanoporeSimulator(
        reference,
        mean_length=NANOPORE_LENGTH,
        min_length=NANOPORE_LENGTH,
        max_length=NANOPORE_LENGTH,
        seed=seed + 1,
    )
    reads = _truth_named(simulator.simulate(NANOPORE_READS))
    return (reference.name, reference.sequence), reads


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="short-genax",
            backend="genax",
            filters=None,
            paired=False,
            min_right_locus=0.95,
            locus_slack=12,
            chunk_reads=1,
            generate=_short_genax,
        ),
        Workload(
            name="paired-repeat-bwamem",
            backend="bwamem",
            filters=("myers",),
            paired=True,
            min_right_locus=0.90,
            locus_slack=12,
            chunk_reads=10,
            generate=_paired_repeat_bwamem,
        ),
        Workload(
            name="long-nanopore",
            backend="longread",
            filters=None,
            paired=False,
            min_right_locus=0.80,
            locus_slack=250,
            chunk_reads=1,
            generate=_long_nanopore,
        ),
    )
}
