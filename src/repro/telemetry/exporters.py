"""Exporters: Prometheus text, structured JSON, Chrome traces, profiles.

Everything here is a pure function of a :class:`MetricRegistry` or a
:class:`Tracer` — exporters never mutate telemetry state, so they are
safe to call mid-run (a scrape) or post-run (artifact writes), and the
multiprocess story stays in :mod:`repro.telemetry.runtime` where it
belongs.

Formats:

* :func:`prometheus_text` — the Prometheus exposition text format
  (``# HELP`` / ``# TYPE`` preamble, cumulative ``_bucket{le=...}``
  series for histograms), suitable for a textfile collector.
* :func:`metrics_json` — the registry snapshot wrapped with a schema
  version, what ``--metrics-out`` writes and CI uploads.
* :func:`write_chrome_trace` — the ``{"traceEvents": [...]}`` JSON that
  loads in Perfetto / ``chrome://tracing``.
* :func:`render_profile` — the human per-stage time/work table
  ``--profile`` prints to stderr.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricRegistry
from repro.telemetry.tracer import Tracer

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "lint_prometheus_text",
    "metrics_json",
    "prometheus_text",
    "render_profile",
    "write_chrome_trace",
    "write_json",
    "write_metrics",
]

METRICS_SCHEMA_VERSION = 1


def _format_value(value: float) -> str:
    """Prometheus-style number: integers bare, floats with full precision."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(registry: MetricRegistry) -> str:
    """The registry in Prometheus exposition text format (sorted names)."""
    lines: List[str] = []
    for metric in registry.metrics():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, (Counter, Gauge)):
            lines.append(f"{metric.name} {_format_value(metric.value)}")
        elif isinstance(metric, Histogram):
            cumulative = 0
            for bound, count in zip(metric.bounds, metric.counts):
                cumulative += count
                lines.append(
                    f'{metric.name}_bucket{{le="{_format_value(bound)}"}} '
                    f"{cumulative}"
                )
            lines.append(
                f'{metric.name}_bucket{{le="+Inf"}} {metric.count}'
            )
            lines.append(f"{metric.name}_sum {_format_value(metric.total)}")
            lines.append(f"{metric.name}_count {metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")


# Prometheus exposition-format grammar, per the text-format spec.
_METRIC_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)(?: (?P<timestamp>-?\d+))?$"
)
_LABEL_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\["\\n])*)"(?:,|$)'
)
_TYPE_KINDS = frozenset(
    {"counter", "gauge", "histogram", "summary", "untyped"}
)


def lint_prometheus_text(text: str) -> List[str]:
    """Validate Prometheus exposition text; returns problems (empty = ok).

    Checks the invariants a real scraper enforces: metric/label name
    grammar, ``# TYPE`` kinds, HELP/TYPE uniqueness and placement
    (metadata before that metric's first sample), label-value escaping,
    parseable sample values, cumulative histogram buckets ending in a
    ``+Inf`` bucket with matching ``_sum``/``_count``, and the trailing
    newline.  Used by the exporter tests so a formatting regression fails
    in CI rather than at scrape time.
    """
    problems: List[str] = []
    if text and not text.endswith("\n"):
        problems.append("output must end with a newline")
    seen_help: Dict[str, int] = {}
    seen_type: Dict[str, int] = {}
    sampled: Dict[str, int] = {}
    types: Dict[str, str] = {}
    buckets: Dict[str, List[Tuple[str, float]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            problems.append(f"line {lineno}: blank line")
            continue
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                continue  # free-form comment: legal, uncheckable
            kind, name = parts[1], parts[2]
            if _METRIC_NAME_RE.fullmatch(name) is None:
                problems.append(
                    f"line {lineno}: invalid metric name {name!r}"
                )
            registry = seen_help if kind == "HELP" else seen_type
            if name in registry:
                problems.append(
                    f"line {lineno}: duplicate # {kind} for {name} "
                    f"(first at line {registry[name]})"
                )
            registry[name] = lineno
            if name in sampled:
                problems.append(
                    f"line {lineno}: # {kind} for {name} after its first "
                    f"sample (line {sampled[name]})"
                )
            if kind == "TYPE":
                declared = parts[3] if len(parts) > 3 else ""
                if declared not in _TYPE_KINDS:
                    problems.append(
                        f"line {lineno}: unknown TYPE {declared!r} for {name}"
                    )
                types[name] = declared
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        sampled.setdefault(name, lineno)
        labels_blob = match.group("labels")
        labels: Dict[str, str] = {}
        if labels_blob is not None:
            consumed = sum(
                len(m.group(0)) for m in _LABEL_RE.finditer(labels_blob)
            )
            if consumed != len(labels_blob):
                problems.append(
                    f"line {lineno}: malformed labels {{{labels_blob}}} "
                    "(bad name, quoting, or escaping)"
                )
            labels = {
                m.group(1): m.group(2)
                for m in _LABEL_RE.finditer(labels_blob)
            }
        raw_value = match.group("value")
        try:
            value = float(raw_value)
        except ValueError:
            problems.append(
                f"line {lineno}: unparseable value {raw_value!r} for {name}"
            )
            continue
        if name.endswith("_bucket"):
            base = name[: -len("_bucket")]
            if "le" not in labels:
                problems.append(
                    f"line {lineno}: histogram bucket {name} missing "
                    'the le="..." label'
                )
            else:
                buckets.setdefault(base, []).append((labels["le"], value))
    for base, series in sorted(buckets.items()):
        if types.get(base) != "histogram":
            problems.append(
                f"{base}_bucket series without # TYPE {base} histogram"
            )
        if not series or series[-1][0] != "+Inf":
            problems.append(
                f"{base}_bucket series does not end with le=\"+Inf\""
            )
        counts = [count for __, count in series]
        if counts != sorted(counts):
            problems.append(f"{base}_bucket counts are not cumulative")
        for suffix in ("_sum", "_count"):
            if f"{base}{suffix}" not in sampled:
                problems.append(f"{base}{suffix} sample missing")
    return problems


def metrics_json(registry: MetricRegistry) -> Dict[str, Any]:
    """The registry snapshot wrapped with a schema version."""
    return {
        "schema_version": METRICS_SCHEMA_VERSION,
        "metrics": registry.snapshot(),
    }


def write_json(path: Union[str, Path], payload: Dict[str, Any]) -> None:
    """Write *payload* as indented JSON (parents created)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_metrics(path: Union[str, Path], registry: MetricRegistry) -> None:
    """Write the registry: Prometheus text for ``.prom`` paths, else JSON."""
    target = Path(path)
    if target.suffix == ".prom":
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(prometheus_text(registry))
    else:
        write_json(target, metrics_json(registry))


def write_chrome_trace(path: Union[str, Path], tracer: Tracer) -> None:
    """Write the tracer's events as Chrome trace-event JSON."""
    write_json(path, tracer.chrome_trace())


# ----------------------------------------------------------------- profile

#: The pipeline stages the driver brackets, in pipeline order.  Shared
#: with :class:`repro.telemetry.runtime.PipelineTelemetry`, which
#: registers one ``pipeline_stage_seconds_<stage>`` histogram per entry.
PROFILE_STAGES = (
    "seed", "filter", "filter_batch", "extend", "extend_batch", "select",
)

#: Work counters rendered under the stage table: metric name -> label.
_WORK_COUNTERS = (
    ("pipeline_reads_total", "reads"),
    ("pipeline_seeds_total", "seeds"),
    ("pipeline_candidates_total", "candidates"),
    ("pipeline_extensions_total", "extensions"),
)


def render_profile(registry: MetricRegistry, elapsed_s: float) -> str:
    """The per-stage time/work table ``--profile`` prints.

    Totals are computed from the (possibly shard-merged) registry, so a
    ``--jobs N`` run's table reconciles with the merged worker
    registries by construction.  With multiple workers the summed stage
    seconds are CPU seconds across shards and may legitimately exceed
    the wall-clock ``elapsed_s``; the share column is normalised against
    the stage sum, not the wall clock.
    """
    rows: List[Tuple[str, int, float]] = []
    stage_total = 0.0
    for stage in PROFILE_STAGES:
        name = f"pipeline_stage_seconds_{stage}"
        calls = 0
        seconds = 0.0
        if name in registry:
            hist = registry.get(name)
            assert isinstance(hist, Histogram)
            calls = hist.count
            seconds = hist.total
        rows.append((stage, calls, seconds))
        stage_total += seconds
    lines = [
        "pipeline profile (stage seconds are summed across shards)",
        f"{'stage':<12} {'calls':>10} {'total_s':>10} {'mean_ms':>10} {'share':>7}",
    ]
    for stage, calls, seconds in rows:
        mean_ms = (seconds / calls * 1e3) if calls else 0.0
        share = (seconds / stage_total) if stage_total > 0 else 0.0
        lines.append(
            f"{stage:<12} {calls:>10} {seconds:>10.3f} "
            f"{mean_ms:>10.3f} {share:>6.1%}"
        )
    lines.append(
        f"{'(sum)':<12} {sum(calls for __, calls, __s in rows):>10} "
        f"{stage_total:>10.3f} {'':>10} {'':>7}"
    )
    lines.append(f"wall time: {elapsed_s:.3f}s")
    work: List[str] = []
    for metric_name, label in _WORK_COUNTERS:
        if metric_name in registry:
            metric = registry.get(metric_name)
            if isinstance(metric, Counter):
                work.append(f"{label}={_format_value(metric.value)}")
    if work:
        lines.append("work: " + ", ".join(work))
    lines.extend(_render_filter_stages(registry))
    return "\n".join(lines)


# Published by repro.pipeline.counters: per-stage cascade counters are
# named <backend>_filter_<stage>_<field>; backends never contain "_".
_FILTER_METRIC_RE = re.compile(
    r"^(?P<backend>[a-z0-9]+)_filter_(?P<stage>\w+?)_"
    r"(?P<field>checked|rejected|false_accepts|cycles|reject_fraction)$"
)


def _render_filter_stages(registry: MetricRegistry) -> List[str]:
    """Per-stage cascade rows for the ``--profile`` table.

    Reconstructed from the published ``<backend>_filter_<stage>_*``
    metrics so the table works on merged shard registries, where the
    cascade object itself died with the workers.
    """
    stages: Dict[Tuple[str, str], Dict[str, float]] = {}
    for metric in registry.metrics():
        match = _FILTER_METRIC_RE.match(metric.name)
        if match is None or not isinstance(metric, (Counter, Gauge)):
            continue
        key = (match.group("backend"), match.group("stage"))
        stages.setdefault(key, {})[match.group("field")] = float(metric.value)
    if not stages:
        return []
    lines = [
        f"{'filter stage':<24} {'checked':>10} {'rejected':>10} "
        f"{'false_acc':>10} {'reject':>7}"
    ]
    for backend, stage in sorted(stages):
        fields = stages[(backend, stage)]
        checked = fields.get("checked", 0.0)
        rejected = fields.get("rejected", 0.0)
        reject_fraction = fields.get(
            "reject_fraction", rejected / checked if checked else 0.0
        )
        lines.append(
            f"{backend + '/' + stage:<24} {int(checked):>10} "
            f"{int(rejected):>10} {int(fields.get('false_accepts', 0)):>10} "
            f"{reject_fraction:>6.1%}"
        )
    return lines
