"""Steadiness check: two sets of benchmark runs of one commit.

    python3 genaxbench/steadiness.py                 # 10 seeds x every workload, twice
    python3 genaxbench/steadiness.py --runs 5 --workloads paired-repeat-bwamem

Runs the ``BENCHMARK.json`` command (``--trace 0``) once per seed and
workload, for two sets of seeds (set A: 1..N, set B: N+1..2N).  For every
end-to-end metric it prints each set's median and quartiles, the
quartile spread as a share of the median, and whether

* the spread stays within the metric's bound (``setup_s`` is exempt),
  and below a third of it ("steady");
* set B's median is no worse than set A's by more than the bound.

Exits 1 if any run fails or is incorrect, or any check above fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def _run(command: List[str], workload: str, seed: int, seconds: int) -> Dict:
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        timeout=180, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(done.stdout.decode().strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return result["metrics"]


def _worse_by(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: List[str] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]]
    )
    args = parser.parse_args(argv)

    samples: Dict[str, Dict[str, List[List[float]]]] = {
        w: {m["name"]: [[], []] for m in spec["end_to_end"]}
        for w in args.workloads
    }
    for set_index in range(2):
        for seed in range(1 + set_index * args.runs, 1 + (set_index + 1) * args.runs):
            for workload in args.workloads:
                metrics = _run(
                    spec["command"], workload, seed, spec["run_seconds"]
                )
                for name, entry in metrics.items():
                    samples[workload][name][set_index].append(entry["value"])
                print(f"  set {'AB'[set_index]} seed {seed} {workload} done",
                      file=sys.stderr)

    ok = True
    header = (
        f"{'workload':22s} {'metric':20s} {'set':3s} {'q1':>11s} "
        f"{'median':>11s} {'q3':>11s} {'spread':>7s} {'bound':>6s}  verdict"
    )
    print(header)
    for workload in args.workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for set_index, values in enumerate(samples[workload][name]):
                q1, median, q3 = statistics.quantiles(values, n=4)
                medians.append(median)
                spread = (q3 - q1) / median
                if name == "setup_s":
                    verdict = "exempt"
                elif spread > bound:
                    verdict = "TOO NOISY"
                    ok = False
                elif spread > bound / 3:
                    verdict = "within bound"
                else:
                    verdict = "steady"
                print(
                    f"{workload:22s} {name:20s} {'AB'[set_index]:3s} "
                    f"{q1:11.5g} {median:11.5g} {q3:11.5g} {spread:7.1%} "
                    f"{bound:6.2f}  {verdict}  "
                    + " ".join(f"{value:.4g}" for value in values)
                )
            worse = _worse_by(medians[0], medians[1], metric["better"])
            agree = worse <= bound
            ok = ok and agree
            print(
                f"{workload:22s} {name:20s} B vs A: {worse:+.1%} worse "
                f"(bound {bound:.0%}) -> {'agree' if agree else 'DISAGREE'}"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
