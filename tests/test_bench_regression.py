"""Unit tests for the CI benchmark regression gate
(``benchmarks/check_regression.py``): direction-aware comparison,
metric extraction, and the baseline/artifact mismatch failure modes."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).parent.parent / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _SCRIPT)
check_regression = importlib.util.module_from_spec(_spec)
# Registered before exec: dataclass field resolution looks the module
# up in sys.modules.
sys.modules["check_regression"] = check_regression
_spec.loader.exec_module(check_regression)

Metric = check_regression.Metric
compare = check_regression.compare
extract_metrics = check_regression.extract_metrics


class TestCompare:
    def test_throughput_drop_is_regression(self):
        metric = Metric("events_per_sec", higher_better=True)
        regressed, change = compare(metric, 100.0, 70.0, tolerance=0.25)
        assert regressed and change == pytest.approx(0.30)

    def test_throughput_drop_within_tolerance_passes(self):
        metric = Metric("events_per_sec", higher_better=True)
        regressed, change = compare(metric, 100.0, 80.0, tolerance=0.25)
        assert not regressed and change == pytest.approx(0.20)

    def test_latency_rise_is_regression(self):
        metric = Metric("p99_retrieval_s", higher_better=False)
        regressed, change = compare(metric, 1.0, 1.4, tolerance=0.25)
        assert regressed and change == pytest.approx(0.40)

    def test_improvements_always_pass(self):
        faster = Metric("events_per_sec", higher_better=True)
        assert compare(faster, 100.0, 500.0, tolerance=0.25) == (False, -4.0)
        lower = Metric("p99_retrieval_s", higher_better=False)
        regressed, change = compare(lower, 1.0, 0.2, tolerance=0.25)
        assert not regressed and change == pytest.approx(-0.8)

    def test_zero_baseline_never_divides(self):
        metric = Metric("events_per_sec", higher_better=True)
        assert compare(metric, 0.0, 10.0, tolerance=0.25) == (False, 0.0)


class TestExtraction:
    def test_cluster_events_gates_events_per_sec(self):
        metrics = extract_metrics("bench_cluster_events.json",
                                  {"events_per_sec": 50_000.0})
        (metric, value), = metrics.values()
        assert metric.wall_clock and metric.higher_better
        assert value == 50_000.0

    def test_kernel_micro_gates_ops_per_sec(self):
        metrics = extract_metrics("kernel_micro.json",
                                  {"ops_per_sec": 1_000_000.0})
        (metric, value), = metrics.values()
        assert metric.wall_clock and metric.higher_better
        assert value == 1_000_000.0

    def test_shard_sweep_keys_rows_by_shards_and_reranker(self):
        payload = {"rows": [
            {"shards": 1, "reranker": "off", "throughput_qps": 1.5,
             "mean_retrieval_s": 0.9, "p99_retrieval_s": 2.2},
            {"shards": 4, "reranker": "exact", "throughput_qps": 1.4,
             "mean_retrieval_s": 0.6, "p99_retrieval_s": 0.9},
        ]}
        metrics = extract_metrics("retrieval_shard_sweep.json", payload)
        assert "shards=1,reranker=off:throughput_qps" in metrics
        assert "shards=4,reranker=exact:p99_retrieval_s" in metrics
        assert len(metrics) == 6
        # Simulated numbers are deterministic, not wall-clock floors.
        assert not any(m.wall_clock for m, _ in metrics.values())

    def test_autoscale_keys_rows_by_fleet(self):
        payload = {"rows": [
            {"fleet": "static-3", "slo_attainment": 1.0,
             "dollars_per_query": 5.4e-4, "p99_delay_s": 1.4,
             "scale_ups": 0, "retires": 0},
            {"fleet": "forecast", "slo_attainment": 1.0,
             "dollars_per_query": 3.3e-4, "p99_delay_s": 2.4,
             "scale_ups": 4, "retires": 4},
        ]}
        metrics = extract_metrics("autoscale_trace.json", payload)
        assert "fleet=forecast:dollars_per_query" in metrics
        assert "fleet=static-3:slo_attainment" in metrics
        # Event counts ride in the artifact but are not gated.
        assert len(metrics) == 6
        assert not any(m.wall_clock for m, _ in metrics.values())
        assert metrics["fleet=forecast:slo_attainment"][0].higher_better
        assert not metrics["fleet=forecast:p99_delay_s"][0].higher_better

    def test_cache_zipf_gates_hit_rates_and_throughput(self):
        metrics = extract_metrics("cache_zipf.json", {
            "hit_rate": 0.93, "result_hit_rate": 0.91,
            "events_per_sec": 30_000.0})
        assert len(metrics) == 3
        # Hit rates are seeded-deterministic; only the throughput is a
        # wall-clock floor.
        assert not metrics["hit_rate"][0].wall_clock
        assert metrics["hit_rate"][0].higher_better
        assert not metrics["result_hit_rate"][0].wall_clock
        assert metrics["events_per_sec"][0].wall_clock

    def test_decide_micro_gates_throughput_and_speedup(self):
        metrics = extract_metrics("decide_micro.json", {
            "decisions_per_sec": 100_000.0, "speedup_vs_plans": 20.0})
        assert len(metrics) == 2
        # Both machine-dependent: gated as de-rated wall-clock floors.
        assert metrics["decisions_per_sec"][0].wall_clock
        assert metrics["decisions_per_sec"][0].higher_better
        assert metrics["speedup_vs_plans"][0].wall_clock

    def test_unknown_artifact_rejected(self):
        with pytest.raises(ValueError, match="no metric spec"):
            extract_metrics("bench_unknown.json", {})


class TestGateEndToEnd:
    """Drive the gate against scratch artifact/baseline dirs."""

    @pytest.fixture()
    def dirs(self, tmp_path, monkeypatch):
        artifacts = tmp_path / "artifacts"
        baselines = tmp_path / "baselines"
        artifacts.mkdir()
        baselines.mkdir()
        monkeypatch.setattr(check_regression, "ARTIFACT_DIR", artifacts)
        monkeypatch.setattr(check_regression, "BASELINE_DIR", baselines)
        return artifacts, baselines

    def write(self, root: Path, events: float, qps: float) -> None:
        (root / "bench_cluster_events.json").write_text(json.dumps(
            {"events_per_sec": events}))
        (root / "kernel_micro.json").write_text(json.dumps(
            {"ops_per_sec": events * 10.0}))
        (root / "decide_micro.json").write_text(json.dumps(
            {"decisions_per_sec": events * 2.0,
             "speedup_vs_plans": 25.0}))
        (root / "retrieval_shard_sweep.json").write_text(json.dumps(
            {"rows": [{"shards": 1, "reranker": "off",
                       "throughput_qps": qps, "mean_retrieval_s": 0.5,
                       "p99_retrieval_s": 1.0}]}))
        (root / "autoscale_trace.json").write_text(json.dumps(
            {"rows": [{"fleet": "forecast", "slo_attainment": 1.0,
                       "dollars_per_query": 3.3e-4,
                       "p99_delay_s": 2.4}]}))
        (root / "cache_zipf.json").write_text(json.dumps(
            {"hit_rate": 0.9, "result_hit_rate": 0.88,
             "events_per_sec": events}))

    def test_matching_numbers_pass(self, dirs, capsys):
        artifacts, baselines = dirs
        self.write(artifacts, 50_000.0, 1.5)
        self.write(baselines, 50_000.0, 1.5)
        assert check_regression.run_gate(tolerance=0.25) == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_regression_fails_and_names_the_metric(self, dirs, capsys):
        artifacts, baselines = dirs
        self.write(artifacts, 20_000.0, 1.5)  # 60% events/sec drop
        self.write(baselines, 50_000.0, 1.5)
        assert check_regression.run_gate(tolerance=0.25) == 1
        err = capsys.readouterr().err
        assert "events_per_sec regressed 60.0%" in err

    def test_missing_baseline_fails_loudly(self, dirs, capsys):
        artifacts, _ = dirs
        self.write(artifacts, 50_000.0, 1.5)
        assert check_regression.run_gate(tolerance=0.25) == 1
        assert "no committed baseline" in capsys.readouterr().err

    def test_fast_mode_mismatch_fails_and_names_the_artifact(
            self, dirs, capsys):
        artifacts, baselines = dirs
        self.write(artifacts, 50_000.0, 1.5)
        self.write(baselines, 50_000.0, 1.5)
        path = artifacts / "retrieval_shard_sweep.json"
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({**payload, "fast_mode": True}))
        assert check_regression.run_gate(tolerance=0.25) == 1
        err = capsys.readouterr().err
        assert "1 regression(s)" in err
        assert ("retrieval_shard_sweep.json: artifact has fast_mode=True "
                "but the baseline has fast_mode=False") in err

    def test_update_derates_wall_clock_only(self, dirs):
        artifacts, baselines = dirs
        self.write(artifacts, 50_000.0, 1.5)
        assert check_regression.update_baselines() == 0
        events = json.loads(
            (baselines / "bench_cluster_events.json").read_text())
        assert events["events_per_sec"] == pytest.approx(
            50_000.0 * check_regression.WALL_CLOCK_DERATE)
        sweep = json.loads(
            (baselines / "retrieval_shard_sweep.json").read_text())
        assert sweep["rows"][0]["throughput_qps"] == 1.5  # untouched
        # And the freshly updated baselines gate green.
        assert check_regression.run_gate(tolerance=0.25) == 0

    def test_repo_baselines_are_committed_and_coherent(self):
        """The real baselines exist and parse through the extractors."""
        for name in check_regression.GATED_ARTIFACTS:
            path = Path(_SCRIPT).parent / "baselines" / name
            assert path.exists(), f"missing committed baseline {name}"
            metrics = extract_metrics(name, json.loads(path.read_text()))
            assert metrics
