"""The regression gate: current matrix run vs. a history baseline.

Two modes, matching how the two metric families behave:

* ``work-count`` — the hard CI gate.  Work counters (candidates checked,
  extensions, cascade rejects, modelled cycles) are
  deterministic for a fixed workload, so the default tolerance is 1.0:
  *any* increase over the baseline fails, naming the metric, the cell
  (backend/jobs/profile) and the baseline run id.  Quality counters
  (``reads_mapped``, ``reads_exact``) gate in the opposite direction —
  a mapped read lost is a regression even though the count went down.
  The baseline only needs a matching *workload* fingerprint; a noisy
  shared runner gates work counts regardless of machine.
* ``wall-clock`` — the nightly gate.  Elapsed seconds are noisy, so the
  default tolerance is 1.25 and the baseline must additionally match the
  *machine* fingerprint; a baseline on different hardware is a
  ``fingerprint-mismatch`` outcome, never a silent comparison.

A run with no comparable baseline is ``missing-baseline`` — failing by
default so a CI misconfiguration (history not checked out, fingerprint
drift) cannot masquerade as a pass; ``allow_missing`` downgrades it for
bootstrap runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.perf.history import HistoryStore
from repro.perf.matrix import MATRIX_BENCHMARK, cell_key

__all__ = [
    "GATE_MODES",
    "GATE_WALL_CLOCK",
    "GATE_WORK_COUNT",
    "GateFinding",
    "GateReport",
    "evaluate_gate",
]

GATE_WORK_COUNT = "work-count"
GATE_WALL_CLOCK = "wall-clock"
GATE_MODES = (GATE_WORK_COUNT, GATE_WALL_CLOCK)

#: Default tolerance per mode: work counts are deterministic (no increase
#: allowed); wall clock gets a noise band.
DEFAULT_TOLERANCE = {GATE_WORK_COUNT: 1.0, GATE_WALL_CLOCK: 1.25}

#: Work metrics where *more* is better: gated against any decrease.
HIGHER_IS_BETTER = frozenset({"reads_mapped", "reads_exact"})

#: Gate outcomes, from best to worst.
OUTCOME_PASS = "pass"
OUTCOME_FAIL = "fail"
OUTCOME_MISSING_BASELINE = "missing-baseline"
OUTCOME_FINGERPRINT_MISMATCH = "fingerprint-mismatch"


@dataclass(frozen=True)
class GateFinding:
    """One metric that crossed its limit in one matrix cell."""

    metric: str
    backend: str
    jobs: int
    profile: str
    current: float
    baseline: float
    limit: float
    direction: str  # "increase" (lower is better) or "decrease"
    baseline_run_id: str

    def render(self) -> str:
        verb = "exceeds" if self.direction == "increase" else "fell below"
        return (
            f"{self.profile}/{self.backend}/jobs={self.jobs}: "
            f"{self.metric}={_fmt(self.current)} {verb} limit "
            f"{_fmt(self.limit)} (baseline {_fmt(self.baseline)}, "
            f"run {self.baseline_run_id})"
        )


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.4f}"


@dataclass
class GateReport:
    """The gate verdict plus everything needed to act on it."""

    mode: str
    outcome: str
    tolerance: float
    current_run_id: str
    baseline_run_id: Optional[str] = None
    findings: List[GateFinding] = field(default_factory=list)
    cells_compared: int = 0
    metrics_compared: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.outcome == OUTCOME_PASS

    def render(self) -> str:
        lines = [
            f"perf gate [{self.mode}] -> {self.outcome.upper()}",
            f"  current run {self.current_run_id}, baseline "
            f"{self.baseline_run_id or '<none>'}, tolerance "
            f"{self.tolerance:g}",
            f"  compared {self.metrics_compared} metrics across "
            f"{self.cells_compared} cells",
        ]
        for finding in self.findings:
            lines.append(f"  REGRESSION {finding.render()}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _check_metric(
    metric: str,
    current: float,
    baseline: float,
    tolerance: float,
    cell: Tuple[str, int, str],
    baseline_run_id: str,
) -> Optional[GateFinding]:
    backend, jobs, profile = cell
    if metric in HIGHER_IS_BETTER:
        # Quality counter: any decrease is a regression (tolerance bands
        # widen only the lower-is-better side; losing mapped reads is
        # never noise on a deterministic workload).
        limit = baseline
        if current < limit:
            return GateFinding(
                metric=metric,
                backend=backend,
                jobs=jobs,
                profile=profile,
                current=current,
                baseline=baseline,
                limit=limit,
                direction="decrease",
                baseline_run_id=baseline_run_id,
            )
        return None
    limit = baseline * tolerance
    if current > limit:
        return GateFinding(
            metric=metric,
            backend=backend,
            jobs=jobs,
            profile=profile,
            current=current,
            baseline=baseline,
            limit=limit,
            direction="increase",
            baseline_run_id=baseline_run_id,
        )
    return None


def evaluate_gate(
    current: Mapping[str, Any],
    store: HistoryStore,
    *,
    mode: str = GATE_WORK_COUNT,
    tolerance: Optional[float] = None,
    allow_missing: bool = False,
) -> GateReport:
    """Compare *current* (an envelope matrix result) against history."""
    if mode not in GATE_MODES:
        raise ValueError(f"unknown gate mode {mode!r} (known: {GATE_MODES})")
    if current.get("benchmark") != MATRIX_BENCHMARK:
        raise ValueError(
            f"the gate compares {MATRIX_BENCHMARK} results, got "
            f"{current.get('benchmark')!r}"
        )
    resolved_tolerance = (
        DEFAULT_TOLERANCE[mode] if tolerance is None else float(tolerance)
    )
    current_run_id = str(current.get("run_id", "<unknown>"))
    report = GateReport(
        mode=mode,
        outcome=OUTCOME_PASS,
        tolerance=resolved_tolerance,
        current_run_id=current_run_id,
    )

    workload_fp = current.get("workload_fingerprint")
    baseline = store.latest(
        benchmark=MATRIX_BENCHMARK,
        workload_fingerprint=workload_fp,
        exclude_run_id=current_run_id,
    )
    if baseline is None:
        report.outcome = (
            OUTCOME_PASS if allow_missing else OUTCOME_MISSING_BASELINE
        )
        report.notes.append(
            f"no recorded baseline with workload fingerprint {workload_fp} "
            f"under {store.root}"
            + (" (allowed)" if allow_missing else "")
        )
        return report
    if mode == GATE_WALL_CLOCK:
        machine_fp = current.get("machine_fingerprint")
        if baseline.get("machine_fingerprint") != machine_fp:
            matched = store.latest(
                benchmark=MATRIX_BENCHMARK,
                workload_fingerprint=workload_fp,
                machine_fingerprint=machine_fp,
                exclude_run_id=current_run_id,
            )
            if matched is None:
                report.outcome = (
                    OUTCOME_PASS
                    if allow_missing
                    else OUTCOME_FINGERPRINT_MISMATCH
                )
                report.baseline_run_id = str(baseline.get("run_id"))
                report.notes.append(
                    "wall-clock baselines must share the machine "
                    f"fingerprint: current {machine_fp}, nearest baseline "
                    f"{baseline.get('machine_fingerprint')} "
                    f"(run {baseline.get('run_id')})"
                    + (" (allowed)" if allow_missing else "")
                )
                return report
            baseline = matched

    baseline_run_id = str(baseline.get("run_id"))
    report.baseline_run_id = baseline_run_id
    baseline_cells: Dict[Tuple[str, int, str], Mapping[str, Any]] = {
        cell_key(cell): cell
        for cell in baseline.get("payload", {}).get("cells", [])
    }
    current_cells = list(current.get("payload", {}).get("cells", []))
    for cell in current_cells:
        key = cell_key(cell)
        base_cell = baseline_cells.pop(key, None)
        if base_cell is None:
            report.notes.append(
                f"cell {key[2]}/{key[0]}/jobs={key[1]} has no baseline "
                "(new cell, skipped)"
            )
            continue
        report.cells_compared += 1
        if mode == GATE_WORK_COUNT:
            current_metrics = dict(cell.get("work", {}))
            baseline_metrics = dict(base_cell.get("work", {}))
        else:
            current_metrics = {
                "elapsed_s": float(cell.get("wall", {}).get("elapsed_s", 0.0))
            }
            baseline_metrics = {
                "elapsed_s": float(
                    base_cell.get("wall", {}).get("elapsed_s", 0.0)
                )
            }
        for metric in sorted(current_metrics):
            if metric not in baseline_metrics:
                report.notes.append(
                    f"metric {metric} in cell {key[2]}/{key[0]}/"
                    f"jobs={key[1]} has no baseline (new metric, skipped)"
                )
                continue
            report.metrics_compared += 1
            finding = _check_metric(
                metric,
                float(current_metrics[metric]),
                float(baseline_metrics[metric]),
                resolved_tolerance,
                key,
                baseline_run_id,
            )
            if finding is not None:
                report.findings.append(finding)
    for key in sorted(baseline_cells):
        report.notes.append(
            f"baseline cell {key[2]}/{key[0]}/jobs={key[1]} missing from "
            "the current run"
        )
    if report.findings:
        report.outcome = OUTCOME_FAIL
    return report
