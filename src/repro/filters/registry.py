"""Filter registry: name -> cascade-stage factory.

The cascade a backend runs is declared as an ordered tuple of registered
filter names (the CLI's ``--filters shouldered,sneakysnake,myers`` spec
is exactly such a tuple), and every consumer — backend configs, the CLI,
the filter bench — resolves stages by name here instead of importing
concrete filter classes.  Adding a filter is one :class:`FilterSpec`
registration, the same move :mod:`repro.pipeline.registry` makes for
backends.

Stage order in a spec is the cascade's execution order.  The registered
default, :data:`DEFAULT_CASCADE`, runs cheapest-first: the base-count
``shouldered`` veto, then the vectorized ``sneakysnake`` coverage bound,
then the exact ``myers`` bit-vector scan — each stage a tighter (and
costlier) lower bound on the same semi-global edit distance, so the
earlier stages never veto a candidate the ``myers`` stage would admit.

Run ``python -m repro.filters`` to print the README filter table;
``tests/analysis/test_docs_sync.py`` asserts the README copy matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.filters.base import CandidateFilter
from repro.filters.cascade import FilterCascade
from repro.filters.myers import MyersCandidateFilter
from repro.filters.shouldered import ShoulderedFilter
from repro.filters.sneakysnake import SneakySnakeFilter
from repro.genome.reference import ReferenceGenome

#: A stage factory: ``(reference, max_edits, window_slack) -> stage``.
FilterBuilder = Callable[[ReferenceGenome, int, int], CandidateFilter]


@dataclass(frozen=True)
class FilterSpec:
    """One registered cascade stage: name, one-line summary, factory."""

    name: str
    summary: str  # one line; rendered into the README filter table
    batched: bool  # whether the stage implements admit_batch
    build: FilterBuilder


_REGISTRY: Dict[str, FilterSpec] = {}


def register_filter(spec: FilterSpec) -> FilterSpec:
    """Register *spec*; duplicate names are a programming error."""
    if spec.name in _REGISTRY:
        raise ValueError(f"filter {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def filter_names() -> Tuple[str, ...]:
    """Registered filter names, in registration order."""
    return tuple(_REGISTRY)


def get_filter(name: str) -> FilterSpec:
    """Look a filter up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise ValueError(f"unknown filter {name!r} (known: {known})") from None


def parse_cascade_spec(spec: str) -> Tuple[str, ...]:
    """Parse a CLI cascade spec (comma-separated registered names).

    ``"none"`` (or the empty string) names the empty cascade.  Order is
    preserved — it is the execution order.  Unknown and repeated names
    are rejected: a repeated stage would double-charge its telemetry
    counters without changing any verdict.
    """
    text = spec.strip()
    if not text or text == "none":
        return ()
    names = tuple(part.strip() for part in text.split(","))
    seen = set()
    for name in names:
        get_filter(name)  # raises on unknown (and on empty parts)
        if name in seen:
            raise ValueError(f"filter {name!r} repeated in cascade spec")
        seen.add(name)
    return names


def build_cascade(
    names: Sequence[str],
    reference: ReferenceGenome,
    max_edits: int,
    window_slack: int,
) -> Optional[FilterCascade]:
    """Build the cascade *names* describe (``None`` for the empty spec).

    All stages share one edit budget and window slack — the cascade is a
    chain of progressively tighter bounds on the same question, so a
    per-stage budget would only ever make an earlier stage lossy.
    """
    if not names:
        return None
    return FilterCascade(
        [
            get_filter(name).build(reference, max_edits, window_slack)
            for name in names
        ]
    )


def render_filter_table() -> str:
    """The markdown filter table the README embeds (kept in sync by test)."""
    lines = ["| filter | batched | what it vetoes |", "|---|---|---|"]
    for spec in _REGISTRY.values():
        batched = "yes" if spec.batched else "no"
        lines.append(f"| `{spec.name}` | {batched} | {spec.summary} |")
    return "\n".join(lines)


# ---------------------------------------------------------------- filters


SHOULDERED_FILTER = register_filter(
    FilterSpec(
        name="shouldered",
        summary=(
            "base-count lower bound: read letters the window cannot "
            "supply each cost an edit (four `str.count` passes, no "
            "per-base work)"
        ),
        batched=False,
        build=ShoulderedFilter,
    )
)

SNEAKYSNAKE_FILTER = register_filter(
    FilterSpec(
        name="sneakysnake",
        summary=(
            "SneakySnake-style diagonal coverage over the packed 2-bit "
            "codecs: read bases matchable on no nearby diagonal each "
            "cost an edit (vectorized across lanes)"
        ),
        batched=True,
        build=SneakySnakeFilter,
    )
)

MYERS_FILTER = register_filter(
    FilterSpec(
        name="myers",
        summary=(
            "Myers bit-vector semi-global scan: the exact "
            "within-budget membership test (NumPy lanes from 64 "
            "candidates per dispatch)"
        ),
        batched=True,
        build=MyersCandidateFilter,
    )
)


DEFAULT_CASCADE: Tuple[str, ...] = ("shouldered", "sneakysnake", "myers")
"""The cheapest-first full cascade the bench and docs showcase."""
