"""The unified bench envelope: fingerprints, content address, legacy load."""

import json

import pytest

from repro.perf.schema import (
    BENCH_SCHEMA_VERSION,
    bench_envelope,
    compute_run_id,
    ensure_bench_out,
    load_bench,
    machine_info,
    write_bench,
)


def make_envelope(**kwargs):
    defaults = dict(
        quick=True,
        workload={"genome_bp": 1000, "reads": 4},
        payload={"cells": [{"backend": "genax", "jobs": 1, "work": {}}]},
    )
    defaults.update(kwargs)
    return bench_envelope("perf_matrix", **defaults)


class TestMachineInfo:
    def test_fields_present(self):
        info = machine_info()
        for key in ("cpu_count", "cpu_model", "numpy_version", "blas",
                    "python_version", "python_build", "start_method"):
            assert key in info, key
        assert info["cpu_count"] >= 1

    def test_stable_within_process(self):
        assert machine_info() == machine_info()


class TestEnvelope:
    def test_required_keys(self):
        result = make_envelope()
        for key in ("schema_version", "benchmark", "quick", "machine",
                    "git_sha", "workload", "payload", "recorded_utc",
                    "machine_fingerprint", "workload_fingerprint", "run_id"):
            assert key in result, key
        assert result["schema_version"] == BENCH_SCHEMA_VERSION

    def test_workload_fingerprint_ignores_machine_and_payload(self):
        a = make_envelope()
        b = make_envelope(payload={"cells": []})
        assert a["workload_fingerprint"] == b["workload_fingerprint"]
        assert a["run_id"] != b["run_id"]

    def test_workload_fingerprint_tracks_params_and_scale(self):
        base = make_envelope()
        other_params = make_envelope(workload={"genome_bp": 2000, "reads": 4})
        other_scale = make_envelope(quick=False)
        assert base["workload_fingerprint"] != other_params["workload_fingerprint"]
        assert base["workload_fingerprint"] != other_scale["workload_fingerprint"]

    def test_run_id_excludes_volatile_labels(self):
        result = make_envelope()
        relabelled = dict(result, recorded_utc="2020-01-01T00:00:00Z",
                          history={"sequence": 9})
        assert compute_run_id(relabelled) == result["run_id"]


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        out = tmp_path / "results" / "bench" / "BENCH_x.json"
        result = make_envelope()
        write_bench(ensure_bench_out(out), result)
        assert load_bench(out) == result

    def test_write_is_deterministic_bytes(self, tmp_path):
        result = make_envelope()
        a = tmp_path / "results" / "bench" / "a.json"
        b = tmp_path / "results" / "bench" / "b.json"
        write_bench(a, result)
        write_bench(b, result)
        assert a.read_bytes() == b.read_bytes()


class TestLegacyLoad:
    def test_committed_bench_files_load(self):
        from pathlib import Path

        bench_dir = (
            Path(__file__).resolve().parents[2]
            / "benchmarks" / "results" / "bench"
        )
        for name in ("BENCH_filters.json", "BENCH_parallel.json"):
            loaded = load_bench(bench_dir / name)
            assert loaded["schema_version"] == BENCH_SCHEMA_VERSION

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(ValueError, match="schema_version"):
            load_bench(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="not a JSON object"):
            load_bench(path)


class TestEnsureBenchOut:
    def test_accepts_results_bench(self, tmp_path):
        ok = tmp_path / "results" / "bench" / "BENCH_matrix.json"
        assert ensure_bench_out(ok) == ok

    @pytest.mark.parametrize("relative", [
        "results/BENCH_matrix.json",
        "results/paper/BENCH_matrix.json",
        "bench/BENCH_matrix.json",
        "BENCH_matrix.json",
    ])
    def test_refuses_everything_else(self, tmp_path, relative):
        with pytest.raises(ValueError, match="results/bench"):
            ensure_bench_out(tmp_path / relative)
