"""Benchmark regression gate: compare fresh artifacts to baselines.

CI's ``bench-regression`` job runs the micro-benchmarks
(``bench_cluster_events.py``, ``bench_kernel_micro.py``,
``bench_decide_micro.py``, ``bench_retrieval_shards.py``,
``bench_autoscale.py``, ``bench_cache.py``) at full weight, then
invokes this script to compare the freshly written
``benchmarks/artifacts/*.json`` against the **committed**
``benchmarks/baselines/*.json``. Any gated metric that regresses by
more than the tolerance (default 25%, ``REPRO_BENCH_TOLERANCE``)
fails the job; improvements and in-band drift are reported but pass.

An artifact is only comparable to a baseline recorded in the same
mode: ``REPRO_BENCH_FAST=1`` shrinks the simulated workloads, which
moves the deterministic metrics too. An artifact whose ``fast_mode``
differs from its baseline's fails the gate by name, without comparing
its metrics.

Two kinds of gated metrics:

* **deterministic** — simulated quantities (queries/sec of simulated
  time, scatter-gather latencies). Identical on every machine for a
  given seed, so the committed value is the exact expectation and the
  tolerance only absorbs numeric/library drift.
* **wall-clock** — real events/sec throughput. Machine-dependent, so
  the committed baseline is a *floor*: the dev-machine measurement
  de-rated by ``WALL_CLOCK_DERATE`` at ``--update`` time to absorb
  slower CI runners. The 25% gate on top of that floor still catches
  order-of-magnitude kernel regressions while tolerating runner
  variance. Re-baseline from a representative run with::

      python benchmarks/check_regression.py --update

Usage::

    python benchmarks/check_regression.py            # gate (CI)
    python benchmarks/check_regression.py --update   # rewrite baselines
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ARTIFACT_DIR = BENCH_DIR / "artifacts"
BASELINE_DIR = BENCH_DIR / "baselines"

DEFAULT_TOLERANCE = 0.25
#: Wall-clock baselines are recorded at this fraction of the measured
#: value, turning them into floors that absorb runner variance.
WALL_CLOCK_DERATE = 0.40


@dataclass(frozen=True)
class Metric:
    """One gated number inside an artifact.

    ``path`` addresses the value: a key for top-level scalars, or
    ``("rows", key_fields, value_field)`` handled by the extractors
    below. ``higher_better`` sets the regression direction;
    ``wall_clock`` marks machine-dependent metrics (de-rated on
    ``--update``).
    """

    name: str
    higher_better: bool
    wall_clock: bool = False


def _shard_key(row: dict) -> str:
    return f"shards={row['shards']},reranker={row['reranker']}"


def extract_metrics(artifact_name: str, payload: dict) -> dict[str, Metric]:
    """Flatten an artifact into ``{metric_name: Metric}`` plus values.

    Returns a dict of metric name -> (Metric, value).
    """
    out: dict[str, tuple[Metric, float]] = {}
    if artifact_name == "bench_cluster_events.json":
        out["events_per_sec"] = (
            Metric("events_per_sec", higher_better=True, wall_clock=True),
            float(payload["events_per_sec"]),
        )
    elif artifact_name == "kernel_micro.json":
        out["ops_per_sec"] = (
            Metric("ops_per_sec", higher_better=True, wall_clock=True),
            float(payload["ops_per_sec"]),
        )
    elif artifact_name == "retrieval_shard_sweep.json":
        for row in payload["rows"]:
            key = _shard_key(row)
            out[f"{key}:throughput_qps"] = (
                Metric("throughput_qps", higher_better=True),
                float(row["throughput_qps"]),
            )
            out[f"{key}:mean_retrieval_s"] = (
                Metric("mean_retrieval_s", higher_better=False),
                float(row["mean_retrieval_s"]),
            )
            out[f"{key}:p99_retrieval_s"] = (
                Metric("p99_retrieval_s", higher_better=False),
                float(row["p99_retrieval_s"]),
            )
    elif artifact_name == "autoscale_trace.json":
        # Deterministic simulated quantities per fleet arm; scaling
        # event counts are reported in the artifact but not gated
        # (they may legitimately shift when a policy is retuned).
        for row in payload["rows"]:
            key = f"fleet={row['fleet']}"
            out[f"{key}:slo_attainment"] = (
                Metric("slo_attainment", higher_better=True),
                float(row["slo_attainment"]),
            )
            out[f"{key}:dollars_per_query"] = (
                Metric("dollars_per_query", higher_better=False),
                float(row["dollars_per_query"]),
            )
            out[f"{key}:p99_delay_s"] = (
                Metric("p99_delay_s", higher_better=False),
                float(row["p99_delay_s"]),
            )
    elif artifact_name == "decide_micro.json":
        # Both wall-clock: absolute fast-path throughput, plus its
        # ratio over the scalar reference chooser in ``tests/`` (the
        # ratio is machine-dependent too, but far more stable — a
        # regression here means the fast path itself decayed).
        out["decisions_per_sec"] = (
            Metric("decisions_per_sec", higher_better=True, wall_clock=True),
            float(payload["decisions_per_sec"]),
        )
        out["speedup_vs_plans"] = (
            Metric("speedup_vs_plans", higher_better=True, wall_clock=True),
            float(payload["speedup_vs_plans"]),
        )
    elif artifact_name == "cache_zipf.json":
        # Hit rates are deterministic (seeded trace, seeded keys);
        # events_per_sec is the wall-clock hit-path throughput.
        out["hit_rate"] = (
            Metric("hit_rate", higher_better=True),
            float(payload["hit_rate"]),
        )
        out["result_hit_rate"] = (
            Metric("result_hit_rate", higher_better=True),
            float(payload["result_hit_rate"]),
        )
        out["events_per_sec"] = (
            Metric("events_per_sec", higher_better=True, wall_clock=True),
            float(payload["events_per_sec"]),
        )
    else:
        raise ValueError(f"no metric spec for artifact {artifact_name!r}")
    return out


GATED_ARTIFACTS = ("bench_cluster_events.json",
                   "kernel_micro.json",
                   "decide_micro.json",
                   "retrieval_shard_sweep.json",
                   "autoscale_trace.json",
                   "cache_zipf.json")

#: Artifacts whose gated metrics are machine-dependent throughputs;
#: ``--update`` records ``metric * WALL_CLOCK_DERATE`` as a floor for
#: every listed key.
WALL_CLOCK_ARTIFACTS = {
    "bench_cluster_events.json": ("events_per_sec",),
    "kernel_micro.json": ("ops_per_sec",),
    "decide_micro.json": ("decisions_per_sec", "speedup_vs_plans"),
    "cache_zipf.json": ("events_per_sec",),
}


def compare(metric: Metric, baseline: float, measured: float,
            tolerance: float) -> tuple[bool, float]:
    """Return ``(regressed, signed_change)``.

    ``signed_change`` is the relative change in the *bad* direction
    (positive = regression): a throughput drop or a latency rise.
    """
    if baseline == 0:
        return False, 0.0
    if metric.higher_better:
        change = (baseline - measured) / baseline
    else:
        change = (measured - baseline) / baseline
    return change > tolerance, change


def run_gate(tolerance: float) -> int:
    failures: list[str] = []
    lines: list[str] = []
    for name in GATED_ARTIFACTS:
        artifact_path = ARTIFACT_DIR / name
        baseline_path = BASELINE_DIR / name
        if not artifact_path.exists():
            failures.append(f"{name}: artifact missing — did the "
                            "benchmark run?")
            continue
        if not baseline_path.exists():
            failures.append(f"{name}: no committed baseline "
                            f"({baseline_path}); run --update and "
                            "commit it")
            continue
        artifact = json.loads(artifact_path.read_text())
        committed = json.loads(baseline_path.read_text())
        fast, base_fast = (artifact.get("fast_mode", False),
                           committed.get("fast_mode", False))
        if fast != base_fast:
            failures.append(
                f"{name}: artifact has fast_mode={fast} but the baseline "
                f"has fast_mode={base_fast}; rerun the benchmark "
                f"{'without' if fast else 'with'} REPRO_BENCH_FAST=1")
            continue
        measured = extract_metrics(name, artifact)
        baseline = extract_metrics(name, committed)
        for key, (metric, value) in sorted(measured.items()):
            if key not in baseline:
                failures.append(f"{name}:{key}: not in baseline — "
                                "re-baseline with --update")
                continue
            base_value = baseline[key][1]
            regressed, change = compare(metric, base_value, value, tolerance)
            tag = "wall-clock floor" if metric.wall_clock else "deterministic"
            verdict = "FAIL" if regressed else "ok"
            # measured/baseline ratio on every line — passing runs show
            # headroom trends in the nightly logs, not just failures.
            ratio = value / base_value if base_value else float("inf")
            lines.append(
                f"  [{verdict}] {name}:{key}: measured {value:.6g} vs "
                f"baseline {base_value:.6g} (ratio {ratio:.2f}x, {tag}, "
                f"{'regression' if change > 0 else 'improvement'} "
                f"{abs(change) * 100:.1f}%)"
            )
            if regressed:
                failures.append(
                    f"{name}:{key} regressed {change * 100:.1f}% "
                    f"(measured {value:.6g}, baseline {base_value:.6g}, "
                    f"tolerance {tolerance * 100:.0f}%)"
                )
        missing = sorted(set(baseline) - set(measured))
        for key in missing:
            failures.append(f"{name}:{key}: baselined metric missing "
                            "from the fresh artifact")
    print(f"benchmark regression gate (tolerance {tolerance * 100:.0f}%):")
    for line in lines:
        print(line)
    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("all gated benchmark metrics within tolerance")
    return 0


def update_baselines() -> int:
    BASELINE_DIR.mkdir(exist_ok=True)
    for name in GATED_ARTIFACTS:
        artifact_path = ARTIFACT_DIR / name
        if not artifact_path.exists():
            print(f"skipping {name}: no artifact (run the benchmark "
                  "first)", file=sys.stderr)
            return 1
        payload = json.loads(artifact_path.read_text())
        metrics = extract_metrics(name, payload)
        if name in WALL_CLOCK_ARTIFACTS:
            keys = WALL_CLOCK_ARTIFACTS[name]
            baseline = dict(payload)
            floors = []
            for key in keys:
                measured = metrics[key][1]
                baseline[key] = measured * WALL_CLOCK_DERATE
                floors.append(f"{key} ({measured:.0f})")
            baseline["_note"] = (
                f"wall-clock FLOOR(s): measured {', '.join(floors)} "
                f"de-rated by {WALL_CLOCK_DERATE} to absorb slower CI "
                "runners; regenerate with check_regression.py --update"
            )
            baseline.pop("best_seconds", None)
            baseline.pop("reference_best_seconds", None)
        else:
            baseline = dict(payload)
            baseline.pop("wall_seconds", None)
            baseline["_note"] = (
                "deterministic simulated metrics: exact expectations "
                "for the committed seed; regenerate with "
                "check_regression.py --update"
            )
        (BASELINE_DIR / name).write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"baselined {name} -> {BASELINE_DIR / name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite baselines from current artifacts")
    parser.add_argument(
        "--tolerance", type=float,
        default=float(os.environ.get("REPRO_BENCH_TOLERANCE",
                                     DEFAULT_TOLERANCE)),
        help="max allowed regression as a fraction (default 0.25)")
    args = parser.parse_args(argv)
    if args.update:
        return update_baselines()
    return run_gate(args.tolerance)


if __name__ == "__main__":
    raise SystemExit(main())
