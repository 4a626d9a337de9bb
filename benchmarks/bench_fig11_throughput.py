"""Benchmark: regenerate the paper's fig11_throughput via its experiment driver.

Also runs the cluster replica-sweep variant and drops its table as a
JSON artifact (``benchmarks/artifacts/fig11_replica_sweep.json``) so
scaling regressions are diffable across runs.
"""

from repro.experiments import fig11_throughput

from conftest import run_experiment, write_artifact


def test_fig11_throughput(bench_fast):
    run_experiment(fig11_throughput.run, bench_fast)


def test_fig11_replica_sweep(bench_fast):
    report = run_experiment(fig11_throughput.run_replica_sweep, bench_fast)
    artifact = write_artifact(
        "fig11_replica_sweep.json",
        {"name": report.name, "rows": report.rows, "notes": report.notes},
    )
    print(f"\nartifact: {artifact}")
