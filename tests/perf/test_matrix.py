"""The matrix runner on a tiny workload: determinism and output guard."""

import pytest

from repro.perf.matrix import MatrixSpec, cell_key, run_matrix

#: A deliberately tiny repeat-rich workload so the sweep stays fast.
TINY_OVERRIDES = {"repeat-rich": {"repeat_copies": 12, "reads": 4}}


def tiny_spec(backends=("bwamem",)):
    return MatrixSpec(
        backends=tuple(backends),
        jobs=(1,),
        profiles=("repeat-rich",),
        quick=True,
    )


@pytest.fixture(scope="module")
def tiny_result():
    return run_matrix(tiny_spec(), profile_overrides=TINY_OVERRIDES)


class TestEnvelope:
    def test_result_is_a_matrix_envelope(self, tiny_result):
        assert tiny_result["benchmark"] == "perf_matrix"
        assert tiny_result["quick"] is True
        cells = tiny_result["payload"]["cells"]
        assert [cell_key(c) for c in cells] == [
            ("bwamem", 1, "repeat-rich")
        ]

    def test_overrides_recorded_in_workload_params(self, tiny_result):
        params = tiny_result["workload"]["profiles"]["repeat-rich"]
        assert params["repeat_copies"] == 12
        assert params["reads"] == 4
        assert params["kmer"] == 10  # operating point travels with params

    def test_cell_has_work_and_wall_families(self, tiny_result):
        cell = tiny_result["payload"]["cells"][0]
        work = cell["work"]
        assert all(isinstance(v, int) for v in work.values())
        assert "candidates_checked" in work
        assert "extensions" in work
        assert "reads_mapped" in work
        # The default cascade ran: per-stage counters are present.
        assert any(k.startswith("filter_") for k in work)
        assert cell["wall"]["elapsed_s"] > 0


class TestDeterminism:
    def test_rerun_work_metrics_are_identical(self, tiny_result):
        again = run_matrix(tiny_spec(), profile_overrides=TINY_OVERRIDES)

        def strip(result):
            return [
                (cell_key(c), c["work"])
                for c in result["payload"]["cells"]
            ]

        assert strip(again) == strip(tiny_result)
        assert (
            again["workload_fingerprint"]
            == tiny_result["workload_fingerprint"]
        )

    def test_different_workload_changes_fingerprint(self, tiny_result):
        other = run_matrix(
            tiny_spec(),
            profile_overrides={"repeat-rich": {"repeat_copies": 13,
                                              "reads": 4}},
        )
        assert (
            other["workload_fingerprint"]
            != tiny_result["workload_fingerprint"]
        )


class TestValidationAndGuard:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            run_matrix(
                MatrixSpec(("warp-drive",), (1,), ("repeat-rich",), True)
            )

    def test_zero_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            MatrixSpec(("bwamem",), (0,), ("repeat-rich",), True).validate()

    def test_out_path_must_be_results_bench(self, tmp_path):
        with pytest.raises(ValueError, match="results/bench"):
            run_matrix(
                tiny_spec(),
                tmp_path / "BENCH_matrix.json",
                profile_overrides=TINY_OVERRIDES,
            )

    def test_writes_under_results_bench(self, tmp_path):
        out = tmp_path / "results" / "bench" / "BENCH_matrix.json"
        result = run_matrix(
            tiny_spec(), out, profile_overrides=TINY_OVERRIDES
        )
        assert out.exists()
        from repro.perf.schema import load_bench

        assert load_bench(out) == result

    def test_trace_out_writes_chrome_trace(self, tmp_path):
        import json

        trace = tmp_path / "trace.json"
        run_matrix(
            tiny_spec(), profile_overrides=TINY_OVERRIDES, trace_out=trace
        )
        doc = json.loads(trace.read_text())
        names = {event["name"] for event in doc["traceEvents"]}
        assert "perf_matrix_pass" in names


class TestDefaultSpec:
    def test_quick_default_sweeps_jobs_1(self):
        spec = MatrixSpec.default(quick=True)
        assert spec.jobs == (1,)
        assert "genax" in spec.backends
        assert "repeat-rich" in spec.profiles

    def test_full_default_sweeps_worker_counts(self):
        assert MatrixSpec.default(quick=False).jobs == (1, 2, 4)
